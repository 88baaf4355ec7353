"""Exception types shared across the package, and the readers of its text formats."""

import math
from contextlib import AbstractContextManager
from itertools import repeat


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


def finite_float(field: str) -> float:
    """float(field), rejecting NaN and the infinities."""
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    return value


def is_one_field(text: str) -> bool:
    """Whether ``text`` reads back as one record field: nonempty, no whitespace, no ``#``."""
    return text.split() == [text] and "#" not in text


class RecordReader(AbstractContextManager):
    """The records of a line-oriented text document, as field lists.

    Line 1 must be ``header``; ``#`` starts a comment. ``usage`` maps each
    record kind to its fields, e.g. ``{"edge": "<i> <j>"}``, and a
    bracketed field is optional. Kinds in ``single`` may occur at most
    once. Use the reader as a context manager around the loop: a
    ValueError raised while the caller converts a record becomes a
    ParseError at that record's line.
    """

    def __init__(self, text: str, path: str | None, header: str,
                 usage: dict[str, str], single=()):
        self.lines = text.splitlines()
        if not self.lines or self.lines[0].strip() != header:
            raise ParseError(f"missing header {header!r}", path, 1)
        self.path = path
        self.usage = usage
        self.single = frozenset(single)
        self.line_no = 1
        # field count of each kind with all optional fields, the kind included
        self.counts = {kind: len(fields.split()) + 1 for kind, fields in usage.items()}

    def __iter__(self):
        counts, single, seen = self.counts, self.single, set()
        for line_no, raw in enumerate(self.lines[1:], start=2):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            fields = raw.split()
            if not fields:
                continue
            self.line_no = line_no
            kind = fields[0]
            if kind in single:
                if kind in seen:
                    raise ParseError(f"duplicate {kind} record", self.path, line_no)
                seen.add(kind)
            if counts.get(kind) != len(fields):
                # off the common path: an unknown kind, or optional fields omitted
                usage = self.usage.get(kind)
                if usage is None:
                    raise ParseError(f"unknown record type {kind!r}", self.path, line_no)
                if not counts[kind] - usage.count("[") <= len(fields) < counts[kind]:
                    raise ParseError(f"expected: {kind} {usage}", self.path, line_no)
            yield fields

    def __exit__(self, exc_type, exc, traceback):
        if isinstance(exc, ValueError):
            raise ParseError(str(exc), self.path, self.line_no) from exc


COLUMN_CHUNK = 16384


def read_columns(lines: list[str], start: int, stop: int, spec) -> list[list] | None:
    """The fields of ``lines[start:stop]`` by column, or None if a line is not canonical.

    A canonical line holds ``len(spec)`` fields joined by single spaces. Per
    field, ``spec`` gives the string every line holds there, the list of
    strings the lines hold there, or a function to map over the column; the
    mapped columns are returned, and a function raising ValueError or
    LookupError also gives None. Lines are split ``COLUMN_CHUNK`` at a time.
    """
    width = len(spec)
    columns = {k: [] for k, kind in enumerate(spec) if callable(kind)}
    for begin in range(start, stop, COLUMN_CHUNK):
        chunk = lines[begin:min(begin + COLUMN_CHUNK, stop)]
        # per line: a total field count accepts "a b" + "c a b c"
        if set(map(str.count, chunk, repeat(" "))) != {width - 1}:
            return None
        fields = " ".join(chunk).split(" ")
        for k, kind in enumerate(spec):
            column = fields[k::width]
            try:
                if k in columns:
                    columns[k].extend(map(kind, column))
                elif (column.count(kind) != len(column) if isinstance(kind, str)
                      else column != kind[begin - start:begin - start + len(column)]):
                    return None
            except (ValueError, LookupError):
                return None
    return list(columns.values())
