"""The flat scanner: text to a stream of non-tree tokens.

One compiled master pattern does the work.  Each match skips the
whitespace in front of a token and then takes the token itself through
one named alternative, so a token costs a single ``match`` call rather
than a Python step per character.  Line and column come from counting
newlines between the end of one token and the start of the next (no
token spans a newline).  Comments are alternatives of the same pattern
and are dropped as they match.

Java's lexical rules are Unicode-aware, and the pattern mirrors the
``str`` predicates the rules are written in: ``\\w`` is exactly
``isalnum()`` plus ``_`` and ``\\d`` is exactly ``isdecimal()``.  An
identifier starts with an ``isalpha()`` character, ``_`` or ``$``;
ASCII starts take the ``word`` alternative and anything else the rare
``uword`` one, which checks ``isalpha()`` itself.  A number runs over
decimal digits only: a non-decimal digit (``isdigit()`` but not
``isdecimal()``, such as a superscript) inside a number makes it a
located "malformed number", like ``0x`` or ``1e``, and one that starts
a token is an "unexpected character".

No alternative can match the empty string or begin with whitespace,
and every repetition is over disjoint single characters, so a match
runs in time linear in what it consumes.  The only backtracking is
into the leading whitespace when nothing follows it, which happens once,
at the end of the text.  The per-character scanner this replaced
survives in the test suite as the differential oracle
(``tests/lexer_reference.py``).
"""

from __future__ import annotations

import re
from typing import List

from repro.diag import Diagnostic, DiagnosticError, SourceSpan
from repro.lexer.source import Location, SourceFile
from repro.lexer.tokens import KEYWORDS, OPERATORS, Token


class LexError(DiagnosticError):
    """A lexical error with a source location."""

    phase = "lex"

    def __init__(self, message: str, location: Location):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.diagnostic = Diagnostic(
            message, phase="lex",
            span=SourceSpan.from_location(location), cause=self,
        )


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

_ESCAPE_CLASS = "[%s]" % re.escape("".join(_ESCAPES))


def _literal_body(quote: str) -> str:
    """The inside of a quoted literal, as an unrolled loop: plain runs
    separated by valid escapes.  Every iteration starts with a
    backslash, so there is one way to match any text."""
    plain = r"[^%s\\\n]*" % quote
    return rf"{plain}(?:\\{_ESCAPE_CLASS}{plain})*"


_STRING_BODY = _literal_body('"')
_CHAR_BODY = _literal_body("'")

_OPERATOR_ALTERNATION = "|".join(
    re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True))

# Alternatives are ordered where their first characters overlap:
# numbers before the "." operator (".5"), comments and the unterminated
# "/*" before "/", and each literal before the error alternative for
# its opener.
_MASTER = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<word>[A-Za-z_$][\w$]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*[lL]?)"
    r"|(?P<num>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d*)?[lLdDfF]?)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<badcomment>/\*)"
    r"|(?P<dot>\.(?=[^\x00-\x7f]))"
    rf"|(?P<op>{_OPERATOR_ALTERNATION})"
    rf'|(?P<string>"{_STRING_BODY}")'
    rf"|(?P<char>'{_CHAR_BODY}')"
    r"|(?P<uword>[^\W\d][\w$]*)"
    r"|(?P<badquote>[\"'])"
    r"|(?P<bad>[^ \t\r\n])"
    r")",
    re.DOTALL,
)

_BODIES = {'"': re.compile(_STRING_BODY), "'": re.compile(_CHAR_BODY)}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], body)


def _number(literal: str, loc: Location) -> Token:
    """A decimal number token from its matched spelling."""
    suffix = literal[-1]
    if suffix in "lLdDfF":
        literal = literal[:-1]
    try:
        value = int(literal) if literal.isdecimal() else float(literal)
        if suffix in "lL":
            return Token("LongLit", literal, loc, value=int(value))
    except (ValueError, OverflowError):
        raise LexError(f"malformed number {literal!r}", loc) from None
    if suffix in "dDfF":
        return Token("DoubleLit", literal, loc, value=float(value))
    if isinstance(value, float):
        return Token("DoubleLit", literal, loc, value=value)
    return Token("IntLit", literal, loc, value=value)


def _number_overrun(text: str, literal: str, end: int) -> int:
    """Where an unsuffixed number would end if its digits ran on into
    a non-decimal digit, or 0 when it stops at ``end``.

    The decimal rules take a digit character wherever they take a
    digit, and a "." when a digit follows it and the number has no
    fraction or exponent yet; a non-decimal digit there makes the
    whole literal malformed, not a number followed by junk.
    """
    if text[end:end + 1].isdigit():
        return end + 1
    if (text[end:end + 1] == "." and text[end + 1:end + 2].isdigit()
            and literal.isdecimal()):
        return end + 2
    return 0


class Scanner:
    """Scans a SourceFile into flat tokens (no delimiter matching)."""

    def __init__(self, source: SourceFile):
        self.source = source

    def tokens(self) -> List[Token]:
        text = self.source.text
        filename = self.source.filename
        match = _MASTER.match
        out: List[Token] = []
        append = out.append
        pos = 0     # where the next match starts
        last = 0    # end of the previous token: newlines are counted after it
        line = 1
        line_start = 0
        while True:
            m = match(text, pos)
            if m is None:
                return out  # only whitespace was left
            kind = m.lastgroup
            start, pos = m.span(kind)
            if kind == "comment":
                continue
            newlines = text.count("\n", last, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", last, start) + 1
            last = pos
            loc = Location(filename, line, start - line_start + 1)
            if kind == "word":
                word = text[start:pos]
                append(Token(word if word in KEYWORDS else "Identifier",
                             word, loc))
            elif kind == "op":
                op = text[start:pos]
                append(Token(op, op, loc))
            elif kind == "num":
                literal = text[start:pos]
                overrun = (literal[-1] not in "lLdDfF"
                           and _number_overrun(text, literal, pos))
                if overrun:
                    raise LexError("malformed number "
                                   f"{text[start:overrun]!r}", loc)
                append(_number(literal, loc))
            elif kind == "string":
                value = _unescape(text[start + 1:pos - 1])
                append(Token("StringLit", value, loc, value=value))
            elif kind == "char":
                value = _unescape(text[start + 1:pos - 1])
                if len(value) != 1:
                    raise LexError(
                        "character literal must contain one character", loc)
                append(Token("CharLit", value, loc, value=value))
            elif kind == "hex":
                literal = text[start:pos]
                long = literal[-1] in "lL"
                if long:
                    literal = literal[:-1]
                if len(literal) == 2:  # "0x" without digits
                    raise LexError(f"malformed number {literal!r}", loc)
                append(Token("LongLit" if long else "IntLit", literal, loc,
                             value=int(literal, 16)))
            elif kind == "dot":
                if text[pos].isdigit():
                    raise LexError("malformed number "
                                   f"{text[start:pos + 1]!r}", loc)
                append(Token(".", ".", loc))
            elif kind == "uword":
                first = text[start]
                if not first.isalpha():
                    raise LexError(f"unexpected character {first!r}", loc)
                word = text[start:pos]
                append(Token(word if word in KEYWORDS else "Identifier",
                             word, loc))
            elif kind == "badquote":
                self._bad_literal(text, start, loc)
            elif kind == "badcomment":
                raise LexError("unterminated block comment", loc)
            else:
                raise LexError(f"unexpected character {text[start]!r}", loc)

    @staticmethod
    def _bad_literal(text: str, start: int, loc: Location) -> None:
        """Raise the error of a quoted literal that failed to match: the
        first problem after its opening quote, as a left-to-right read
        meets it."""
        stop = _BODIES[text[start]].match(text, start + 1).end()
        if stop >= len(text) or text[stop] == "\n":
            raise LexError("unterminated literal", loc)
        # A backslash that does not begin a valid escape.
        if stop + 1 >= len(text):
            raise LexError("unterminated escape", loc)
        esc = Location(loc.filename, loc.line, loc.column + stop + 1 - start)
        raise LexError(f"bad escape \\{text[stop + 1]}", esc)


def scan(text: str, filename: str = "<string>") -> List[Token]:
    """Scan source text into a flat token list."""
    return Scanner(SourceFile(filename, text)).tokens()
