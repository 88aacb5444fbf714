"""Source files and source locations."""

from __future__ import annotations


class Location:
    """A point in a source file (1-based line and column).

    Immutable by convention.  Slotted, with a three-field pickle form:
    the scanner builds one per token and a module snapshot pickles one
    per node, so both the constructor and the pickled form stay small.
    """

    __slots__ = ("filename", "line", "column")

    UNKNOWN: "Location"  # set below

    def __init__(self, filename: str, line: int, column: int):
        self.filename = filename
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Location:
            return NotImplemented
        return (self.line == other.line and self.column == other.column
                and self.filename == other.filename)

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))

    def __reduce__(self):
        return (Location, (self.filename, self.line, self.column))

    def __repr__(self) -> str:
        return (f"Location(filename={self.filename!r}, line={self.line!r}, "
                f"column={self.column!r})")

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


Location.UNKNOWN = Location("<unknown>", 0, 0)


def span(first: Location, last: Location) -> Location:
    """Collapse a span to its starting location.

    Maya reports a single point per node; we keep the same convention but
    accept a pair so call sites read naturally.
    """
    if first is Location.UNKNOWN:
        return last
    return first


class SourceFile:
    """A named chunk of source text with line bookkeeping."""

    def __init__(self, filename: str, text: str):
        self.filename = filename
        self.text = text

    def location(self, offset: int) -> Location:
        prefix = self.text[:offset]
        line = prefix.count("\n") + 1
        last_newline = prefix.rfind("\n")
        column = offset - last_newline
        return Location(self.filename, line, column)
