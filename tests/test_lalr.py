"""Unit tests for the LALR(1) generator and parse driver (experiment E11:
unresolved conflicts are rejected, not defaulted away)."""

import hashlib
import pickle
import random
import sys

import pytest

from repro import MayaCompiler
from repro.core import CompileEnv
from repro.grammar import Assoc, Grammar, nonterminal
from repro.javalang import base_grammar
from repro.lalr import (ConflictError, ParseError, Parser, ParserContext,
                        ParseTables, build_tables)
from repro.lalr.automaton import Automaton
from repro.lalr.encoded import EncodedGrammar
from repro.lexer import Token, scan
from repro.macros.foreach import ForEach
from repro.multijava import install_multijava
from tests.lalr_reference import reference_tables


def expr_grammar(with_precedence: bool = True) -> Grammar:
    g = Grammar("expr")
    E = nonterminal("TestE")
    if with_precedence:
        g.precedence.declare(Assoc.LEFT, "+", "-")
        g.precedence.declare(Assoc.LEFT, "*")
        g.precedence.declare(Assoc.RIGHT, "^")
    g.add_production(E, ["IntLit"], tag="te_lit",
                     action=lambda ctx, v: v[0].value, internal=True)
    g.add_production(E, [E, "+", E], tag="te_add",
                     action=lambda ctx, v: v[0] + v[2], internal=True)
    g.add_production(E, [E, "-", E], tag="te_sub",
                     action=lambda ctx, v: v[0] - v[2], internal=True)
    g.add_production(E, [E, "*", E], tag="te_mul",
                     action=lambda ctx, v: v[0] * v[2], internal=True)
    g.add_production(E, [E, "^", E], tag="te_pow",
                     action=lambda ctx, v: v[0] ** v[2], internal=True)
    g.declare_start(E)
    return g


def parse_value(grammar, start, text, **kwargs):
    tables = build_tables(grammar)
    parser = Parser(tables, ParserContext())
    value, consumed = parser.parse(start, scan(text), **kwargs)
    return value


class TestPrecedence:
    def test_left_associativity(self):
        assert parse_value(expr_grammar(), "TestE", "10 - 3 - 2") == 5

    def test_right_associativity(self):
        assert parse_value(expr_grammar(), "TestE", "2 ^ 3 ^ 2") == 512

    def test_precedence_levels(self):
        assert parse_value(expr_grammar(), "TestE", "2 + 3 * 4") == 14

    def test_mixed(self):
        assert parse_value(expr_grammar(), "TestE", "2 * 3 + 4 * 5") == 26


class TestConflictRejection:
    def test_ambiguous_grammar_rejected(self):
        # Without precedence, E -> E + E is a shift/reduce conflict; the
        # generator must reject it (no YACC-style default resolution).
        with pytest.raises(ConflictError) as exc:
            build_tables(expr_grammar(with_precedence=False))
        assert "shift/reduce" in str(exc.value)

    def test_reduce_reduce_rejected(self):
        g = Grammar("rr")
        S = nonterminal("TestS_rr")
        A = nonterminal("TestA_rr")
        B = nonterminal("TestB_rr")
        g.add_production(S, [A], tag="rr_a", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(S, [B], tag="rr_b", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(A, ["Identifier"], tag="rr_ai", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(B, ["Identifier"], tag="rr_bi", internal=True,
                         action=lambda ctx, v: v[0])
        g.declare_start(S)
        with pytest.raises(ConflictError) as exc:
            build_tables(g)
        assert "reduce/reduce" in str(exc.value)

    def test_nonassoc_removes_action(self):
        g = Grammar("na")
        E = nonterminal("TestE_na")
        g.precedence.declare(Assoc.NONASSOC, "<")
        g.add_production(E, ["IntLit"], tag="na_lit", internal=True,
                         action=lambda ctx, v: v[0].value)
        g.add_production(E, [E, "<", E], tag="na_lt", internal=True,
                         action=lambda ctx, v: v[0] < v[2])
        g.declare_start(E)
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        assert parser.parse("TestE_na", scan("1 < 2"))[0] is True
        with pytest.raises(ParseError):
            parser.parse("TestE_na", scan("1 < 2 < 3"))


class TestDriver:
    def test_full_consumption_required(self):
        with pytest.raises(ParseError):
            parse_value(expr_grammar(), "TestE", "1 + 2 junk")

    def test_prefix_parse(self):
        g = expr_grammar()
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        value, consumed = parser.parse("TestE", scan("1 + 2 ; x"),
                                       allow_prefix=True)
        assert value == 3
        assert consumed == 3

    def test_prefix_parse_with_offset(self):
        g = expr_grammar()
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        tokens = scan("1 + 2 ; 4 * 5")
        _, consumed = parser.parse("TestE", tokens, allow_prefix=True)
        value, _ = parser.parse("TestE", tokens, allow_prefix=True,
                                offset=consumed + 1)
        assert value == 20

    def test_error_reports_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_value(expr_grammar(), "TestE", "1 +")
        assert "IntLit" in str(exc.value)

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as exc:
            parse_value(expr_grammar(), "TestE", "1 + +")
        assert exc.value.location.column == 5

    def test_unknown_start_symbol(self):
        tables = build_tables(expr_grammar())
        with pytest.raises(KeyError):
            Parser(tables, ParserContext()).parse("Nope", scan("1"))

    def test_empty_input_rejected_for_nonnullable(self):
        with pytest.raises(ParseError):
            parse_value(expr_grammar(), "TestE", "")


class TestMultiStart:
    def test_separate_eof_per_start(self):
        # Two starts whose follow sets would collide under a shared EOF.
        g = Grammar("ms")
        X = nonterminal("TestX_ms")
        Y = nonterminal("TestY_ms")
        g.add_production(X, ["Identifier"], tag="ms_x", internal=True,
                         action=lambda ctx, v: ("x", v[0].text))
        g.add_production(Y, [X], tag="ms_y", internal=True,
                         action=lambda ctx, v: ("y", v[0]))
        g.declare_start(X, Y)
        tables = build_tables(g)
        parser = Parser(tables, ParserContext())
        assert parser.parse("TestX_ms", scan("a"))[0] == ("x", "a")
        assert parser.parse("TestY_ms", scan("a"))[0] == ("y", ("x", "a"))


class TestTableCache:
    def test_tables_cached_by_fingerprint(self):
        from repro.lalr import tables_for

        g = expr_grammar()
        first = tables_for(g)
        second = tables_for(g)
        assert first is second

    def test_grammar_extension_invalidates(self):
        from repro.lalr import tables_for

        g = expr_grammar()
        first = tables_for(g)
        E = nonterminal("TestE")
        g.add_production(E, ["(", E, ")"], tag="te_paren", internal=True,
                         action=lambda ctx, v: v[1])
        second = tables_for(g)
        assert first is not second


def table_digest(tables) -> str:
    """SHA-256 of (state count, sorted ACTION rows, sorted GOTO rows)."""
    canonical = (
        len(tables.automaton.states),
        [sorted(row.items()) for row in tables.action],
        [sorted(row.items()) for row in tables.goto],
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def _foreach_grammar():
    env = CompileEnv()
    ForEach().run(env)
    return env.grammar


def _multijava_grammar():
    env = CompileEnv()
    install_multijava(MayaCompiler()).run(env)
    return env.grammar


PINNED = pytest.mark.parametrize(
    "make_grammar, productions, states, digest", [
        (base_grammar, 218, 390,
         "1667f56b422c9085dc417d1d19875b3d21c3e09b68ed4c826402d4605ee142f7"),
        (_foreach_grammar, 220, 394,
         "b75d3ecc69ed6f71084f7bb13252d0f0aeaa7715fdab17159d62272a2db0420c"),
        (_multijava_grammar, 222, 403,
         "2eb9809684a38639d2eb8eb5c8c818da4f0607759b982c6bd549014ab328db58"),
    ], ids=["base", "foreach", "multijava"])


class TestPinnedTables:
    """The tables of the shipped grammars, pinned by digest: any change
    to a state, an action, or a goto entry shows up here."""

    @PINNED
    def test_digest(self, make_grammar, productions, states, digest):
        grammar = make_grammar()
        tables = build_tables(grammar)
        assert len(grammar.productions) == productions
        assert len(tables.automaton.states) == states
        assert table_digest(tables) == digest

    @PINNED
    def test_restored_tables_keep_the_digest(self, make_grammar, productions,
                                             states, digest):
        """A table-store round trip (snapshot, pickle, restore) gives
        the same tables, and the FIRST/nullable sets the restore takes
        from the snapshot instead of recomputing them."""
        grammar = make_grammar()
        generated = build_tables(grammar)
        snapshot = pickle.loads(pickle.dumps(generated.snapshot()))
        restored = ParseTables.from_snapshot(grammar, snapshot)
        assert len(restored.automaton.states) == states
        assert table_digest(restored) == digest
        assert restored.encoded.first == generated.encoded.first
        assert restored.encoded.nullable == generated.encoded.nullable


class TestLongProductions:
    """Items pack the dot position below a per-grammar stride; a
    right-hand side at or past any fixed stride must not alias the next
    production's items."""

    @pytest.mark.parametrize("length", [63, 64, 65, 200])
    def test_long_rhs_builds_and_parses(self, length):
        g = Grammar(f"long{length}")
        S = nonterminal(f"TestLong{length}")
        g.add_production(S, ["IntLit"] * length, tag=f"long{length}",
                         internal=True, action=lambda ctx, v: len(v))
        g.declare_start(S)
        parser = Parser(build_tables(g), ParserContext())
        assert parser.parse(S.name, scan(" ".join(["1"] * length)))[0] == length
        for wrong in (length - 1, length + 1):
            with pytest.raises(ParseError):
                parser.parse(S.name, scan(" ".join(["1"] * wrong)))


class TestDeepRelations:
    CHAIN = 5000

    def test_long_includes_and_reads_chains(self):
        """A nullable right-recursive chain A_i -> a_i A_{i+1} | <empty>
        makes an ``includes`` chain CHAIN long, whose far end must look
        ahead at the start symbol's EOF; B -> N_0 ... N_{n-1} c over
        N_j -> <empty> makes a ``reads`` chain as long, whose near end
        must look ahead at c."""
        n = self.CHAIN
        g = Grammar("deep")
        chain = [nonterminal(f"TestDeepA{i}") for i in range(n + 1)]
        for i in range(n):
            g.add_production(chain[i], [f"deep_a{i}", chain[i + 1]],
                             tag=f"deep_step{i}", internal=True,
                             action=lambda ctx, v: 1 + v[1])
            g.add_production(chain[i], [], tag=f"deep_stop{i}",
                             internal=True, action=lambda ctx, v: 0)
        g.add_production(chain[n], [], tag="deep_end", internal=True,
                         action=lambda ctx, v: 0)
        B = nonterminal("TestDeepB")
        parts = [nonterminal(f"TestDeepN{j}") for j in range(n)]
        g.add_production(B, parts + ["deep_c"], tag="deep_reads",
                         internal=True, action=lambda ctx, v: len(v))
        for j, part in enumerate(parts):
            g.add_production(part, [], tag=f"deep_n{j}", internal=True,
                             action=lambda ctx, v: None)
        g.declare_start(chain[0], B)
        limit = sys.getrecursionlimit()
        tables = build_tables(g)
        assert sys.getrecursionlimit() == limit
        assert len(tables.automaton.states) > 2 * n

        parser = Parser(tables, ParserContext())

        def tokens(prefix, picks):
            return [Token(f"{prefix}{i}", f"{prefix}{i}") for i in picks]

        for count in (0, 3, n):
            assert parser.parse(chain[0].name, tokens("deep_a", range(count)))[0] == count
        assert parser.parse(B.name, [Token("deep_c", "c")])[0] == n + 1
        with pytest.raises(ParseError):
            parser.parse(B.name, [])


def random_grammar(rng: random.Random, name: str) -> Grammar:
    """A small random grammar: ε-productions and nullable chains,
    several start symbols, and precedence declarations (some with
    ``%prec`` overrides) over a few operator terminals."""
    g = Grammar(name)
    count = rng.randint(2, 5)
    nts = [nonterminal(f"{name}N{i}") for i in range(count)]
    operators = ["+", "*", "^", "<"]
    terminals = ["IntLit", "Identifier", ";"] + operators
    rng.shuffle(operators)
    for level in range(rng.randint(0, 3)):
        g.precedence.declare(rng.choice(list(Assoc)), operators[level])
    for i, lhs in enumerate(nts):
        for k in range(rng.randint(1, 3)):
            shape = rng.random()
            if shape < 0.2:
                rhs = []
            elif shape < 0.35:
                rhs = [rng.choice(nts)]  # unit rule: a nullable chain
            else:
                rhs = [rng.choice(nts) if rng.random() < 0.45
                       else rng.choice(terminals)
                       for _ in range(rng.randint(1, 4))]
            prec = rng.choice(operators) if rng.random() < 0.1 else None
            g.add_production(lhs, rhs, tag=f"{name}p{i}_{k}", prec=prec,
                             internal=True, action=lambda ctx, v: None)
    g.declare_start(*rng.sample(nts, rng.randint(1, min(3, count))))
    return g


def lr0_numbering(grammar):
    """Each LR(0) state's kernel, as (production, dot) pairs -> its number."""
    automaton = Automaton(EncodedGrammar(grammar))
    return {
        frozenset(divmod(item, automaton.stride) for item in kernel): state
        for state, kernel in enumerate(automaton.states)
    }


def outcome(build):
    try:
        count, action, goto = build()
    except ConflictError as exc:
        return "conflict", sorted(exc.conflicts)
    return "tables", count, action, goto


class TestAgainstCanonicalLR1:
    """Differential check: build_tables against LR(1) item sets merged
    by core (tests/lalr_reference.py), on seeded random grammars."""

    TRIALS = 1000

    def test_random_grammars(self):
        rng = random.Random(20020617)
        kinds = {"tables": 0, "conflict": 0}
        for trial in range(self.TRIALS):
            grammar = random_grammar(rng, f"Rg{trial}")

            def generated():
                tables = build_tables(grammar)
                return len(tables.automaton.states), tables.action, tables.goto

            expected = outcome(
                lambda: reference_tables(grammar, lr0_numbering(grammar)))
            assert outcome(generated) == expected, trial
            kinds[expected[0]] += 1
        # Both outcomes well represented, or the check proves little.
        assert min(kinds.values()) > self.TRIALS // 5, kinds
