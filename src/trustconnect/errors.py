"""Exception types shared across the package."""

import math


class TrustConnectError(Exception):
    """Base class for all trustconnect errors."""


class ParseError(TrustConnectError):
    """A file could not be parsed.

    Carries the offending line number so CLI users can find the problem.
    """

    def __init__(self, message: str, path: str | None = None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        location = ""
        if path is not None:
            location += str(path)
        if line_no is not None:
            location += f":{line_no}"
        super().__init__(f"{location}: {message}" if location else message)


class GraphInvariantError(TrustConnectError):
    """A graph violates its structural invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SnapshotMismatchError(TrustConnectError):
    """A snapshot does not line up with its companion graph."""


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first attribute of ``obj`` that is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
