"""Unit tests for the scanner and stream lexer."""

import pickle
import time

import pytest

from repro.lexer import LexError, Token, scan, stream_lex
from repro.lexer.tokens import flatten


class TestScanner:
    def test_identifiers_and_keywords(self):
        tokens = scan("class Foo if whileLoop")
        assert [t.kind for t in tokens] == ["class", "Identifier", "if",
                                            "Identifier"]
        assert tokens[3].text == "whileLoop"

    def test_foreach_is_not_reserved(self):
        tokens = scan("foreach")
        assert tokens[0].kind == "Identifier"

    def test_int_literal(self):
        token = scan("42")[0]
        assert token.kind == "IntLit" and token.value == 42

    def test_hex_literal(self):
        token = scan("0xFF")[0]
        assert token.value == 255

    def test_long_literal(self):
        token = scan("42L")[0]
        assert token.kind == "LongLit" and token.value == 42

    def test_double_literal(self):
        token = scan("3.25")[0]
        assert token.kind == "DoubleLit" and token.value == 3.25

    def test_exponent_literal(self):
        token = scan("1e3")[0]
        assert token.kind == "DoubleLit" and token.value == 1000.0

    def test_string_literal_with_escapes(self):
        token = scan(r'"a\nb\"c"')[0]
        assert token.kind == "StringLit" and token.value == 'a\nb"c'

    def test_char_literal(self):
        token = scan("'x'")[0]
        assert token.kind == "CharLit" and token.value == "x"

    def test_char_literal_must_be_single(self):
        with pytest.raises(LexError):
            scan("'xy'")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            scan('"abc')

    def test_operators_longest_match(self):
        tokens = scan("a >>>= b >>> c >> d > e")
        kinds = [t.kind for t in tokens if t.kind != "Identifier"]
        assert kinds == [">>>=", ">>>", ">>", ">"]

    def test_line_comment(self):
        tokens = scan("a // comment\n b")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_block_comment(self):
        tokens = scan("a /* x\ny */ b")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            scan("/* never ends")

    def test_locations(self):
        tokens = scan("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_dollar_identifiers(self):
        token = scan("enumVar$1")[0]
        assert token.kind == "Identifier" and token.text == "enumVar$1"

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            scan("a ` b")

    @pytest.mark.parametrize("source, column, message", [
        ("x = 0x;", 5, "malformed number '0x'"),
        ("1e", 1, "malformed number '1e'"),
        ("a = 1e+ b", 5, "malformed number '1e+'"),
        ("2.5e-L", 1, "malformed number '2.5e-'"),
        ("1\u00b2", 1, "malformed number '1\u00b2'"),
        ("a.\u00b2", 2, "malformed number '.\u00b2'"),
        ("  \u00b2", 3, "unexpected character '\u00b2'"),
        ("1e999L", 1, "malformed number '1e999'"),
    ])
    def test_malformed_numbers_are_located(self, source, column, message):
        with pytest.raises(LexError) as exc:
            scan("\n" + source, "n.maya")
        assert exc.value.location.line == 2
        assert exc.value.location.column == column
        assert str(exc.value) == f"n.maya:2:{column}: {message}"

    def test_unicode_digits_and_letters(self):
        tokens = scan("\u0663\u0664 + caf\u00e9 x\u00b2")
        assert [(t.kind, t.value) for t in tokens] == [
            ("IntLit", 34), ("+", None), ("Identifier", None),
            ("Identifier", None)]
        with pytest.raises(LexError, match="unexpected character"):
            scan("\u00bd")

    def test_carriage_return_advances_the_column(self):
        tokens = scan("a\r\n\rb")
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 2)

    def test_location_pickles_as_three_fields(self):
        location = scan("\n  x", "f.maya")[0].location
        assert location.__reduce__() == (type(location), ("f.maya", 2, 3))
        assert pickle.loads(pickle.dumps(location)) == location
        assert repr(location) == \
            "Location(filename='f.maya', line=2, column=3)"


class TestLinearTime:
    """Inputs that make a backtracking pattern blow up must lex (or
    fail at the right place) in time linear in their size."""

    BOUND_S = 5.0

    def timed(self, source):
        start = time.perf_counter()
        try:
            result = scan(source)
        except LexError as error:
            result = error
        assert time.perf_counter() - start < self.BOUND_S
        return result

    def test_megabyte_of_whitespace_then_junk(self):
        error = self.timed(" \t\r\n" * 250_000 + "#")
        assert isinstance(error, LexError)
        assert "unexpected character '#'" in str(error)
        assert (error.location.line, error.location.column) == (250_001, 1)

    def test_many_comments_then_an_unterminated_one(self):
        error = self.timed("/* */ " * 100_000 + "/*" + " x" * 50_000)
        assert isinstance(error, LexError)
        assert "unterminated block comment" in str(error)
        assert error.location.column == 600_001

    def test_long_identifier(self):
        tokens = self.timed("a" * 200_000 + " ;")
        assert [t.kind for t in tokens] == ["Identifier", ";"]
        assert len(tokens[0].text) == 200_000


class TestStreamLexer:
    def test_builds_subtrees(self):
        tree = stream_lex("f(a) { b; } [c]")
        assert [t.kind for t in tree] == [
            "Identifier", "ParenTree", "BraceTree", "BracketTree"
        ]

    def test_nested_subtrees(self):
        tree = stream_lex("{ ( [ x ] ) }")
        brace = tree[0]
        paren = brace.children[0]
        bracket = paren.children[0]
        assert bracket.children[0].text == "x"

    def test_empty_brackets_are_dims(self):
        tree = stream_lex("int[] x")
        assert tree[1].kind == "Dims"

    def test_empty_parens(self):
        tree = stream_lex("f()")
        assert tree[1].kind == "EmptyParen"

    def test_primitive_cast_classified(self):
        tree = stream_lex("(int) x")
        assert tree[0].kind == "CastParen"

    def test_primitive_array_cast_classified(self):
        tree = stream_lex("(double[][]) x")
        assert tree[0].kind == "CastParen"

    def test_name_array_cast_classified(self):
        tree = stream_lex("(java.lang.Object[]) x")
        assert tree[0].kind == "CastParen"

    def test_plain_name_parens_not_cast(self):
        # (Foo) stays a ParenTree: only context distinguishes a cast
        # from a parenthesized expression.
        tree = stream_lex("(Foo) x")
        assert tree[0].kind == "ParenTree"

    def test_expression_parens_not_cast(self):
        tree = stream_lex("(a + b)")
        assert tree[0].kind == "ParenTree"

    def test_unmatched_open(self):
        with pytest.raises(LexError):
            stream_lex("( a")

    def test_unmatched_close(self):
        with pytest.raises(LexError):
            stream_lex("a )")

    def test_mismatched_delimiters(self):
        with pytest.raises(LexError):
            stream_lex("( a ]")

    def test_flatten_roundtrip(self):
        source = "f(a, b) { int[] x; x[0] = (int) 3.5; }"
        tree = stream_lex(source)
        flat = [t.text for t in flatten(tree)]
        assert flat == [t.text for t in scan(source)]

    def test_source_text(self):
        tree = stream_lex("{ a; }")
        assert tree[0].source_text() == "{a ;}"


class TestTokenEquality:
    def test_equal_tokens(self):
        assert scan("foo")[0] == scan("foo")[0]

    def test_unequal_tokens(self):
        assert scan("foo")[0] != scan("bar")[0]

    def test_tree_token_delimiters(self):
        tree = stream_lex("(x)")[0]
        assert tree.delimiters() == ("(", ")")
