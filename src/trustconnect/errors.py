"""Exception types shared across the package, and the readers of its text formats."""

import math
from collections.abc import Iterator
from itertools import islice, repeat
from pathlib import Path


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

    def __init__(self, violations: list[str], path: str | None = None):
        self.violations = list(violations)
        message = "; ".join(self.violations)
        super().__init__(message if path is None else f"{path}: {message}")


class SnapshotMismatchError(TrustConnectError):
    """A snapshot does not line up with its companion graph."""


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first attribute of ``obj`` that is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def finite_float(field: str) -> float:
    """float(field), rejecting NaN and the infinities."""
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    return value


def is_one_field(text: str) -> bool:
    """Whether ``text`` reads back as one record field: nonempty, no whitespace, no ``#``."""
    return text.split() == [text] and "#" not in text


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, without a leading byte-order mark.

    A byte that is not UTF-8 raises ParseError at its line. The decode
    error carries the bytes it decoded, the whole file after any mark, so
    the line is found without reading the file again.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        data, start = exc.object, exc.start
        line_no = len((data[:start].decode("utf-8") + "x").splitlines())
        message = f"invalid UTF-8 byte 0x{data[start]:02x}: {exc.reason}"
        raise ParseError(message, str(path), line_no) from None


LIST, SINGLE, ID = "list", "single", "id"


def read_records(text: str, path: str | None, header: str, records: dict) -> dict:
    """The converted records of a line-oriented text document, by kind.

    Line 1 must be ``header``; ``#`` starts a comment. ``records`` maps each
    kind to ``(usage, convert, shape)``. ``usage`` lists the fields after
    the kind, e.g. ``"<i> <j>"``; a kind with bracketed (optional) fields
    counts its own in ``convert``, which maps the whole field list, kind
    first, to the record's value. By ``shape``, a kind maps to: LIST, the
    list of its values in file order; SINGLE, its one value, or nothing
    when no record has it; ID, ``{id: value}``, one record per id, where
    the id is the int after the kind, or the pair of ints after it when
    the value is the fourth field. Every ValueError, the reader's own or a
    converter's, becomes a ParseError at the record's line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"missing header {header!r}", path, 1)
    found = {kind: [] if shape == LIST else {}
             for kind, (_, _, shape) in records.items() if shape != SINGLE}
    # per kind: the field count, the kind included
    plans = {kind: (len(usage.split()) + 1, convert, shape, found.get(kind))
             for kind, (usage, convert, shape) in records.items()}
    line_no = 1
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            fields = raw.split()
            if not fields:
                continue
            kind = fields[0]
            plan = plans.get(kind)
            if plan is None:
                raise ValueError(f"unknown record type {kind!r}")
            count, convert, shape, values = plan
            if shape == SINGLE and kind in found:
                raise ValueError(f"duplicate {kind} record")
            if count != len(fields) and "[" not in records[kind][0]:
                raise ValueError(f"expected: {kind} {records[kind][0]}")
            if shape == LIST:
                values.append(convert(fields))
            elif shape == SINGLE:
                found[kind] = convert(fields)
            else:
                key = int(fields[1]) if count == 3 else (int(fields[1]), int(fields[2]))
                if key in values:
                    ids = " ".join(map(str, key)) if count > 3 else key
                    raise ValueError(f"duplicate {kind} {ids} record")
                values[key] = convert(fields)
    except ValueError as exc:
        raise ParseError(str(exc), path, line_no) from exc
    return found


LINE_CHUNK, COLUMN_CHUNK = 1 << 16, 1024


def split_lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, a chunk of about ``LINE_CHUNK`` characters at a time.

    A chunk ends just after a ``\\n``, which ends any line break it is part of.
    """
    begin = 0
    while begin < len(text):
        cut = text.find("\n", begin + LINE_CHUNK) + 1 or len(text)
        yield from text[begin:cut].splitlines()
        begin = cut


def read_columns(lines: Iterator[str], spec) -> list[list] | None:
    """The fields of the lines ``lines`` yields by column, or None if a line is not canonical.

    A canonical line holds ``len(spec)`` fields joined by single spaces. Per
    field, ``spec`` gives an iterator over the strings the lines hold there,
    or a function to map over the column; the mapped columns are returned,
    and a function raising ValueError or LookupError also gives None. Lines
    are split ``COLUMN_CHUNK`` at a time.
    """
    width = len(spec)
    columns = {k: [] for k, kind in enumerate(spec) if callable(kind)}
    while chunk := list(islice(lines, COLUMN_CHUNK)):
        # per line: a total field count accepts "a b" + "c a b c"
        if set(map(str.count, chunk, repeat(" "))) != {width - 1}:
            return None
        fields = " ".join(chunk).split(" ")
        for k, kind in enumerate(spec):
            column = fields[k::width]
            try:
                if k in columns:
                    columns[k].extend(map(kind, column))
                elif column != list(islice(kind, len(column))):
                    return None
            except (ValueError, LookupError):
                return None
    return list(columns.values())
