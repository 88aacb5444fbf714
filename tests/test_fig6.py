"""Figure 6 of the paper: pattern parsing with nonterminal inputs, on
the paper's own toy grammar (experiment E6).

The grammar (figure 6a):

    A -> a | b | c
    D -> d
    F -> f
    S -> D e A | F A
"""

import pytest

from repro.grammar import Grammar, nonterminal
from repro.lalr import build_tables
from repro.lexer import scan
from repro.patterns.items import HoleItem, TokItem
from repro.patterns.pattern_parser import (
    PatternParseError,
    PatternParser,
    PTHole,
    PTNode,
)


def fig6_grammar():
    g = Grammar("fig6")
    A = nonterminal("Fig6A")
    D = nonterminal("Fig6D")
    F = nonterminal("Fig6F")
    S = nonterminal("Fig6S")
    ident = lambda ctx, v: tuple(v)
    for sym, rhs, tag in [
        (A, ["a"], "fig6_Aa"),
        (A, ["b"], "fig6_Ab"),
        (A, ["c"], "fig6_Ac"),
        (D, ["d"], "fig6_Dd"),
        (F, ["f"], "fig6_Ff"),
        (S, [D, "e", A], "fig6_SDeA"),
        (S, [F, A], "fig6_SFA"),
    ]:
        g.add_production(sym, rhs, tag=tag, action=ident, internal=True)
    g.declare_start(S, A, D, F)
    return g


def disagreeing_grammar():
    """A grammar where, after ``f``, the actions on FIRST(X) = {a, b}
    are two different reductions: F -> f on a, G -> f on b.

        S -> F A | G B    F -> f    G -> f    A -> a    B -> b
        X -> A | B
    """
    g = Grammar("fig6-disagree")
    S, F, G, A, B, X = (nonterminal(f"Disagree{name}")
                        for name in ("S", "F", "G", "A", "B", "X"))
    ident = lambda ctx, v: tuple(v)
    for sym, rhs, tag in [
        (S, [F, A], "dis_SFA"), (S, [G, B], "dis_SGB"),
        (F, ["f"], "dis_Ff"), (G, ["f"], "dis_Gf"),
        (A, ["a"], "dis_Aa"), (B, ["b"], "dis_Bb"),
        (X, [A], "dis_XA"), (X, [B], "dis_XB"),
    ]:
        g.add_production(sym, rhs, tag=tag, action=ident, internal=True)
    g.declare_start(S, X)
    return g


def items(*specs):
    """Build pattern items: lowercase strings are tokens, symbols are
    nonterminal holes."""
    out = []
    for spec in specs:
        if isinstance(spec, str):
            out.append(TokItem(scan(spec)[0]))
        else:
            out.append(HoleItem(spec, name="hole"))
    return out


@pytest.fixture
def parser():
    return PatternParser(build_tables(fig6_grammar()))


class TestFigure6:
    def test_case_b_goto_followed(self, parser):
        """Figure 6(b): input 'd e . A' — the state after 'd e' has a
        goto for A, so A is shifted directly."""
        A = nonterminal("Fig6A")
        tree, _ = parser.parse("Fig6S", items("d", "e", A))
        assert isinstance(tree, PTNode)
        assert tree.production.tag == "fig6_SDeA"
        assert isinstance(tree.children[2], PTHole)

    def test_case_c_first_serves_as_lookahead(self, parser):
        """Figure 6(c): input 'f . A' — state 67 has no goto for A, but
        all actions on FIRST(A) = {a, b, c} reduce F -> f; the stack is
        reduced, then the goto on A is followed."""
        A = nonterminal("Fig6A")
        tree, _ = parser.parse("Fig6S", items("f", A))
        assert tree.production.tag == "fig6_SFA"
        # The F child was built by the forced reduction.
        assert isinstance(tree.children[0], PTNode)
        assert tree.children[0].production.tag == "fig6_Ff"
        assert isinstance(tree.children[1], PTHole)

    def test_invalid_nonterminal_placement(self, parser):
        """Neither case applies: a D cannot appear after 'f'."""
        D = nonterminal("Fig6D")
        with pytest.raises(PatternParseError):
            parser.parse("Fig6S", items("f", D))

    def test_error_detected_after_reductions(self, parser):
        """The paper notes the error may surface only after the pattern
        parser has performed some reductions."""
        F = nonterminal("Fig6F")
        with pytest.raises(PatternParseError):
            parser.parse("Fig6S", items("f", F))

    def test_disagreeing_first_actions_reduce_nothing(self):
        """The second rule reduces only when every action on FIRST(X)
        is the same reduction.  After 'f', a reduces F -> f and b
        reduces G -> f, so an X there is invalid, and the error is
        found where both reductions are still open."""
        parser = PatternParser(build_tables(disagreeing_grammar()))
        X = nonterminal("DisagreeX")
        with pytest.raises(PatternParseError) as caught:
            parser.parse("DisagreeS", items("f", X))
        assert caught.value.expected == ["a", "b"]
        tree, _ = parser.parse("DisagreeS", items("f", "b"))
        assert tree.production.tag == "dis_SGB"

    def test_plain_terminal_parse(self, parser):
        tree, _ = parser.parse("Fig6S", items("d", "e", "a"))
        assert tree.production.tag == "fig6_SDeA"
        assert tree.children[2].production.tag == "fig6_Aa"

    def test_start_at_any_nonterminal(self, parser):
        tree, _ = parser.parse("Fig6A", items("b"))
        assert tree.production.tag == "fig6_Ab"

    def test_nonterminal_at_start_position(self, parser):
        D = nonterminal("Fig6D")
        A = nonterminal("Fig6A")
        tree, _ = parser.parse("Fig6S", items(D, "e", A))
        assert tree.production.tag == "fig6_SDeA"
        assert isinstance(tree.children[0], PTHole)
