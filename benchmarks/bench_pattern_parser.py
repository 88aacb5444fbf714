"""E5/E6: pattern parsing — figure 6's algorithm and figure 5's
parameter-structure inference, timed."""

from conftest import make_compiler, report

from repro.grammar import Grammar, nonterminal
from repro.lalr import build_tables
from repro.lalr.tables import tables_for
from repro.lexer import scan
from repro.patterns import compile_parameter_list, lex_pattern
from repro.patterns.items import HoleItem, TokItem
from repro.patterns.pattern_parser import PatternParser

EFOREACH_PATTERN = (
    "Expression:java.util.Enumeration enumExp \\. foreach "
    "(Formal var) lazy(BraceTree, BlockStmts) body"
)

VFOREACH_PATTERN = (
    "Expression:maya.util.Vector v \\. elements ( ) \\. foreach "
    "(Formal var) lazy(BraceTree, BlockStmts) body"
)


def _foreach_env():
    compiler = make_compiler(macros=True)
    env = compiler.env.child()
    compiler.env.find_metaprogram(["maya", "util", "ForEach"]).run(env)
    return env


def test_e5_parameter_list_inference(benchmark):
    """Figure 5/7: infer EForEach's and VForEach's structures."""
    env = _foreach_env()
    tables = tables_for(env.grammar)

    def compile_both():
        e = compile_parameter_list(tables, "Statement", EFOREACH_PATTERN)
        v = compile_parameter_list(tables, "Statement", VFOREACH_PATTERN)
        return e, v

    (e_prod, e_params, _), (v_prod, v_params, _) = benchmark(compile_both)
    assert e_prod is v_prod  # both Mayans implement one production
    report("E5: inferred parameter structures", [
        ["EForEach", " ".join(repr(p) for p in e_params)],
        ["VForEach", " ".join(repr(p) for p in v_params)],
    ])


def _fig6_tables():
    g = Grammar("fig6-bench")
    A = nonterminal("B6A")
    D = nonterminal("B6D")
    F = nonterminal("B6F")
    S = nonterminal("B6S")
    ident = lambda ctx, v: tuple(v)
    for sym, rhs, tag in [
        (A, ["a"], "b6_Aa"), (A, ["b"], "b6_Ab"), (A, ["c"], "b6_Ac"),
        (D, ["d"], "b6_Dd"), (F, ["f"], "b6_Ff"),
        (S, [D, "e", A], "b6_SDeA"), (S, [F, A], "b6_SFA"),
    ]:
        g.add_production(sym, rhs, tag=tag, action=ident, internal=True)
    g.declare_start(S, A, D, F)
    return build_tables(g)


def test_e6_fig6_cases(benchmark):
    """The paper's figure-6 inputs, parsed repeatedly."""
    tables = _fig6_tables()
    parser = PatternParser(tables)
    A = nonterminal("B6A")

    def items(*specs):
        return [TokItem(scan(s)[0]) if isinstance(s, str)
                else HoleItem(s, name="h") for s in specs]

    case_b = items("d", "e", A)   # goto followed directly
    case_c = items("f", A)        # FIRST(A) forces the F -> f reduction

    def run_cases():
        tree_b, _ = parser.parse("B6S", case_b)
        tree_c, _ = parser.parse("B6S", case_c)
        return tree_b, tree_c

    tree_b, tree_c = benchmark(run_cases)
    report("E6: figure-6 pattern parses", [
        ["(b) d e .A", tree_b.production.tag],
        ["(c) f .A", tree_c.production.tag],
    ])
    assert tree_b.production.tag == "b6_SDeA"
    assert tree_c.production.tag == "b6_SFA"


def test_e5_template_compilation_throughput(benchmark):
    """Static template checking cost (paid once per template)."""
    from repro.patterns import Template

    env = _foreach_env()

    def compile_template():
        template = Template(
            "Statement",
            """
            for (java.util.Enumeration e = $x; e.hasMoreElements(); ) {
                $decl
                $ref = ($t) e.nextElement();
                $body
            }
            """,
            x="Expression", decl="Statement", ref="Expression",
            t="TypeName", body="BlockStmts",
        )
        return template.compiled(env)

    compiled = benchmark(compile_template)
    assert compiled is not None
