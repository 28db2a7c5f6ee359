"""The tab-separated format of every pipeline file: one UTF-8 record per
line, fields split on tabs, blank and whitespace-only lines skipped. No
field may contain a tab or a line break, so whatever `write_tsv` writes,
`read_tsv` reads back field for field."""

from __future__ import annotations

import operator
import os
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

# applies a field's parser to its text; operator.call is new in Python 3.11
_parse = getattr(operator, "call", lambda parse, text: parse(text))


class DataError(ValueError):
    """Malformed or unusable input data (CLI exit code 3)."""


def open_input(path: str | os.PathLike) -> BinaryIO:
    """The input file opened for binary reading. A path that cannot be
    opened (missing, a directory, through a file, not permitted, holding a
    NUL byte) raises `DataError("<path>: <reason>")`."""
    try:
        return open(path, "rb")
    except (OSError, ValueError) as exc:  # open raises ValueError for a NUL byte
        reason = getattr(exc, "strerror", None) or str(exc)
        raise DataError(f"{os.fspath(path)}: {reason.lower()}") from None


def byte_lines(path: str | os.PathLike) -> Iterator[bytes]:
    """The file's lines as undecoded bytes without their line breaks,
    split where text mode splits them (at \\n, \\r\\n or \\r), so that a
    reader can decode each line where it handles the line's other faults."""
    with open_input(path) as fh:
        for chunk in fh:
            yield from chunk.splitlines()


def read_tsv(
    path: str | os.PathLike,
    fields: Sequence[Callable[[str], Any]],
    row: Callable[..., object],
) -> None:
    """Calls `row(*typed)` for each line, `typed` being its fields passed
    through `fields`, one parser each; `row` keeps what it needs. A line
    that is not UTF-8, a wrong field count, or a ValueError from a parser
    or from `row` (which checks the values), raises
    `DataError("<path>:<line>: <reason>")`."""
    n = len(fields)
    for lineno, raw in enumerate(byte_lines(path), 1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != n:
                raise ValueError(f"expected {n} tab-separated fields, got {len(parts)}")
            row(*map(_parse, fields, parts))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise DataError(f"{path}:{lineno}: {exc}") from None


def write_tsv(path: str | os.PathLike, rows: Iterable[Sequence[str]]) -> None:
    """Each row's fields tab-joined, one row per line, in UTF-8. Every
    field is checked and encoded before the file is opened, so a tab or
    line break (`<path>: row <n>: field <k> contains a tab or line break`)
    or text UTF-8 cannot encode (`... is not valid UTF-8`, such as a file
    name that is not) raises DataError and writes nothing."""
    lines = []
    for n, row in enumerate(rows, 1):
        fields = []
        for k, field in enumerate(row, 1):
            if "\t" in field or "\n" in field or "\r" in field:
                raise DataError(f"{path}: row {n}: field {k} contains a tab or line break")
            try:
                fields.append(field.encode("utf-8"))
            except UnicodeEncodeError:
                raise DataError(f"{path}: row {n}: field {k} is not valid UTF-8") from None
        lines.append(b"\t".join(fields) + b"\n")
    with open(path, "wb") as fh:
        fh.writelines(lines)
