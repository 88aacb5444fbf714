"""The per-character scanner: the differential oracle for
``repro.lexer.scanner`` (tests only).

This is the scanner the compiler used before lexing moved to one
compiled master pattern, kept verbatim.  It advances one character at a
time and tries every operator with ``startswith``, which makes it slow
but easy to read against the token rules.  Its one known defect is
kept too: a malformed number (``0x``, ``1e``, a non-decimal digit such
as a superscript two, ``1e999L``) escapes from ``int``/``float`` as a
bare ``ValueError`` or ``OverflowError``, where ``repro.lexer.scanner``
raises a located ``LexError``.
"""

from __future__ import annotations

from typing import List

from repro.lexer.scanner import LexError
from repro.lexer.source import Location, SourceFile
from repro.lexer.tokens import KEYWORDS, OPERATORS, Token


_SORTED_OPERATORS = sorted(OPERATORS, key=len, reverse=True)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
}


class Scanner:
    """Scans a SourceFile into flat tokens (no delimiter matching)."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.line = 1
        self.column = 1

    def location(self) -> Location:
        return Location(self.source.filename, self.line, self.column)

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                return out
            out.append(self._next_token())

    # -- internals -----------------------------------------------------

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif text.startswith("//", self.pos):
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance()
            elif text.startswith("/*", self.pos):
                start = self.location()
                self._advance(2)
                while not text.startswith("*/", self.pos):
                    if self.pos >= len(text):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        text = self.text
        loc = self.location()
        ch = text[self.pos]
        if ch.isalpha() or ch in "_$":
            return self._word(loc)
        if ch.isdigit():
            return self._number(loc)
        if ch == ".":
            # A leading dot can start a double literal (".5").
            if self.pos + 1 < len(text) and text[self.pos + 1].isdigit():
                return self._number(loc)
        if ch == '"':
            return self._string(loc)
        if ch == "'":
            return self._char(loc)
        for op in _SORTED_OPERATORS:
            if text.startswith(op, self.pos):
                self._advance(len(op))
                return Token(op, op, loc)
        raise LexError(f"unexpected character {ch!r}", loc)

    def _word(self, loc: Location) -> Token:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (
            text[self.pos].isalnum() or text[self.pos] in "_$"
        ):
            self._advance()
        word = text[start : self.pos]
        if word in KEYWORDS:
            return Token(word, word, loc)
        return Token("Identifier", word, loc)

    def _number(self, loc: Location) -> Token:
        start = self.pos
        text = self.text
        is_double = False
        if text.startswith(("0x", "0X"), self.pos):
            self._advance(2)
            while self.pos < len(text) and text[self.pos] in "0123456789abcdefABCDEF":
                self._advance()
            literal = text[start : self.pos]
            value = int(literal, 16)
        else:
            while self.pos < len(text) and text[self.pos].isdigit():
                self._advance()
            if self.pos < len(text) and text[self.pos] == ".":
                # Don't treat "1..2" or "x.method" style dots as part of
                # the number unless a digit follows.
                if self.pos + 1 < len(text) and text[self.pos + 1].isdigit():
                    is_double = True
                    self._advance()
                    while self.pos < len(text) and text[self.pos].isdigit():
                        self._advance()
            if self.pos < len(text) and text[self.pos] in "eE":
                is_double = True
                self._advance()
                if self.pos < len(text) and text[self.pos] in "+-":
                    self._advance()
                while self.pos < len(text) and text[self.pos].isdigit():
                    self._advance()
            literal = text[start : self.pos]
            value = float(literal) if is_double else int(literal)
        if self.pos < len(text) and text[self.pos] in "lL":
            self._advance()
            return Token("LongLit", literal, loc, value=int(value))
        if self.pos < len(text) and text[self.pos] in "dDfF":
            self._advance()
            return Token("DoubleLit", literal, loc, value=float(value))
        if is_double:
            return Token("DoubleLit", literal, loc, value=value)
        return Token("IntLit", literal, loc, value=value)

    def _string(self, loc: Location) -> Token:
        self._advance()  # opening quote
        value = self._quoted('"', loc)
        return Token("StringLit", value, loc, value=value)

    def _char(self, loc: Location) -> Token:
        self._advance()  # opening quote
        value = self._quoted("'", loc)
        if len(value) != 1:
            raise LexError("character literal must contain one character", loc)
        return Token("CharLit", value, loc, value=value)

    def _quoted(self, quote: str, loc: Location) -> str:
        text = self.text
        out: List[str] = []
        while True:
            if self.pos >= len(text) or text[self.pos] == "\n":
                raise LexError("unterminated literal", loc)
            ch = text[self.pos]
            if ch == quote:
                self._advance()
                return "".join(out)
            if ch == "\\":
                self._advance()
                if self.pos >= len(text):
                    raise LexError("unterminated escape", loc)
                esc = text[self.pos]
                if esc not in _ESCAPES:
                    raise LexError(f"bad escape \\{esc}", self.location())
                out.append(_ESCAPES[esc])
                self._advance()
            else:
                out.append(ch)
                self._advance()

