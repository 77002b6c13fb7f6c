"""The line rule every fixture file shares, and its one format error.

Seeds, blacklist, signatures, public suffixes, GeoIP, WhoIs and
credentials are read a line at a time; a line ends at LF, CRLF or CR (a
file opened in text mode, or ``io.StringIO(text, newline=None)``).
Surrounding whitespace is stripped, and blank lines and lines whose first
non-blank character is ``#`` are skipped.  A CSV fixture parses each
remaining line on its own, so a quoted cell cannot span lines.  Every
error names its file line.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator


class FixtureFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def fixture_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(file line number, stripped line) for every line that is not blank or a comment."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def fixture_rows(lines: Iterable[str], layout: str) -> Iterator[tuple[int, list[str]]]:
    """(file line number, stripped cells) for every entry of a CSV fixture.

    ``layout`` names the columns, comma-separated; a line with another
    number of cells is an error.
    """
    width = layout.count(",") + 1
    for lineno, line in fixture_lines(lines):
        try:
            cells = next(csv.reader([line]))
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise FixtureFormatError(str(exc), lineno) from None
        if len(cells) != width:
            raise FixtureFormatError(f"expected {layout}", lineno)
        yield lineno, [cell.strip() for cell in cells]
