"""Differential test: the master-pattern scanner against the
per-character reference scanner (``tests/lexer_reference.py``).

Every case must give the same tokens -- kind, text, value, the value's
type and location -- or the same ``LexError`` message and location.
Where the reference escapes with a bare ``ValueError`` or
``OverflowError`` from a malformed number, the scanner must raise a
``LexError`` at the literal's start instead.

The corpus is every ``.maya`` file in the repository and the text of
the test modules, whole, sliced at random, and mutated with comment
markers, quotes, backslashes, ``\\r`` and non-ASCII letters and digits,
plus random strings over a token-ish alphabet.  The case count defaults
to a tier-1 sized run of a few seconds; set ``LEXER_DIFF_CASES`` to run
more (CI runs ten times as many).
"""

import os
import random
from pathlib import Path

from repro.lexer import LexError, SourceFile, scan
from tests.lexer_reference import Scanner as ReferenceScanner

ROOT = Path(__file__).resolve().parent.parent

CASES = int(os.environ.get("LEXER_DIFF_CASES", "20000"))
SEED = 20021017

#: Fragments spliced into slices and strung into random cases: the
#: characters whose handling differs most between a character loop and
#: a pattern (comment and literal delimiters, escapes, carriage
#: returns, Unicode letters and digits, number shapes).
MUTATIONS = [
    "/*", "*/", "//", '"', "'", "\\", "\\n", "\\q", "\r", "\n", " ",
    "\t", "é", "٣", "²", "½", " ", "€", "0x", "0X1f", "1e", "1e+",
    "e5", ".", "..", ".5", "L", "l", "d", "F", "$", "_", "`", "#",
    ">>>=", ">>", "=", "0", "7", "9",
]
ALPHABET = MUTATIONS + list("abcxyzABXZ(){}[];,+-*/%<>!&|^~?:@")


def corpus():
    files = sorted(ROOT.glob("examples/**/*.maya"))
    files += sorted(ROOT.glob("benchmarks/e2e/programs/*.maya"))
    files += sorted(ROOT.glob("tests/*.py"))
    texts = [path.read_text(encoding="utf-8") for path in files]
    return [text for text in texts if text]


def cases(texts, count, seed=SEED):
    """``count`` seeded inputs after the corpus texts themselves."""
    rng = random.Random(seed)
    yield from texts
    for index in range(count):
        shape = index % 3
        if shape == 2:
            yield "".join(rng.choice(ALPHABET)
                          for _ in range(rng.randrange(1, 30)))
            continue
        text = rng.choice(texts)
        start = rng.randrange(len(text))
        piece = text[start:start + rng.randrange(1, 160)]
        if shape == 1:
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(piece) + 1)
                piece = piece[:at] + rng.choice(MUTATIONS) + piece[at:]
        yield piece


class _Recording(ReferenceScanner):
    """The reference, remembering where its last number started."""

    number_start = None

    def _number(self, loc):
        self.number_start = loc
        return super()._number(loc)


def _observe(tokens):
    return [(t.kind, t.text, t.value, type(t.value), t.location)
            for t in tokens]


def reference_outcome(text):
    scanner = _Recording(SourceFile("<case>", text))
    try:
        return ("tokens", _observe(scanner.tokens()))
    except LexError as error:
        return ("error", str(error), error.location)
    except (ValueError, OverflowError):
        # The reference's malformed-number crash; the scanner owes a
        # located LexError at the literal's start.
        return ("number", scanner.number_start)


def outcome(text):
    try:
        return ("tokens", _observe(scan(text, "<case>")))
    except LexError as error:
        return ("error", str(error), error.location)


def differences(inputs):
    diffs = []
    for text in inputs:
        want = reference_outcome(text)
        got = outcome(text)
        if want[0] == "number":
            ok = (got[0] == "error" and got[2] == want[1]
                  and ("malformed number" in got[1]
                       or "unexpected character" in got[1]))
        else:
            ok = got == want
        if not ok:
            diffs.append((text, want, got))
    return diffs


def test_scanner_matches_reference():
    texts = corpus()
    assert len(texts) > 40
    diffs = differences(cases(texts, CASES))
    assert not diffs, (f"{len(diffs)} differences; first: {diffs[0]!r}")


def test_malformed_numbers_are_located():
    # Each of these crashed the reference with a bare ValueError or
    # OverflowError; the differential check demands a LexError at the
    # literal's start.
    inputs = ["x = 0x;", "1e", "a 1e+ b", "\n  ²", "1²", "y.² ", "1.²",
              "1e5²", "0XL", "1e999L", "٣²"]
    assert all(reference_outcome(text)[0] == "number" for text in inputs)
    assert differences(inputs) == []
