"""E7: Mayan dispatch overhead.

Measures the per-reduction cost of the dispatcher as the number of
imported Mayans on a production grows, and the win/lose structure of
the specificity rules (VForEach > EForEach) on real input.
"""

from conftest import make_compiler, record_metric, report

from repro.ast import nodes as n
from repro.core import CompileContext, CompileEnv
from repro.dispatch import Mayan
from repro.lalr import Parser
from repro.lexer import stream_lex
from repro.obs.metrics import Deltas


def _literal_mayan(tag):
    class Tagged(Mayan):
        result = "Literal"
        pattern = "IntLit value"

        def expand(self, ctx, value):
            return ctx.next_rewrite()

    Tagged.__name__ = f"Tagged{tag}"
    return Tagged()


def _parse_many(env, count=50):
    ctx = CompileContext(env)
    parser = Parser(env.tables(), ctx)
    tokens = stream_lex("1 + 2 * 3 - 4 / 5")
    for _ in range(count):
        parser.parse("Expression", tokens)


def test_e7_dispatch_scaling(benchmark):
    """Reduction cost with 0 vs 8 chained Mayans on one production."""
    bare = CompileEnv()
    loaded = CompileEnv()
    for index in range(8):
        _literal_mayan(index).run(loaded)

    import time

    # Warm both environments (tables, dispatch plans, specializer
    # compilation) so the timed runs measure steady-state reductions.
    _parse_many(bare, count=5)
    _parse_many(loaded, count=5)

    start = time.perf_counter()
    _parse_many(bare)
    bare_time = time.perf_counter() - start
    start = time.perf_counter()
    _parse_many(loaded)
    loaded_time = time.perf_counter() - start

    # 44 reductions per "1 + 2 * 3 - 4 / 5" parse: 9 are dispatched (5
    # hit the Mayan chain on Literal, 4 build the binary operators) and
    # the parse driver takes the other 35, identity unit reductions, as
    # chains without dispatching.
    reductions = 50 * 44
    report("E7: dispatch overhead (50 expression parses)", [
        ["no user Mayans", f"{bare_time * 1e3:.2f} ms"],
        ["8 chained Mayans", f"{loaded_time * 1e3:.2f} ms"],
        ["ratio", f"{loaded_time / bare_time:.2f}x"],
    ])
    record_metric("parse_50_exprs_no_mayans_ms", round(bare_time * 1e3, 3), "ms")
    record_metric("parse_50_exprs_8_mayans_ms", round(loaded_time * 1e3, 3), "ms")
    record_metric("per_reduction_8_mayans_us",
                  round(loaded_time * 1e6 / reductions, 3), "us")
    record_metric("overhead_ratio_8_vs_0", round(loaded_time / bare_time, 2), "x")

    benchmark(lambda: _parse_many(loaded, count=10))


def test_e7_specificity_selection(benchmark):
    """VForEach selected over EForEach by structure+type specificity;
    measured on the same production with both imported."""
    source = """
        class Demo {
            static void main() {
                use maya.util.ForEach;
                maya.util.Vector v = new maya.util.Vector();
                v.addElement("x");
                v.elements().foreach(String s) { int n = s.length(); }
            }
        }
    """

    def compile_it():
        return make_compiler(macros=True).compile(source)

    program = benchmark(compile_it)
    expanded = program.source()
    assert "getElementData" in expanded
    report("E7: most-specific Mayan selected", [
        ["input", "v.elements().foreach(...) with v : maya.util.Vector"],
        ["selected", "VForEach (structure + static-type specializers)"],
        ["evidence", "expansion calls getElementData, no Enumeration"],
    ])


def test_e7_dispatched_reductions(benchmark):
    """Total dispatcher invocations for a small compile: the growth of
    ``maya_dispatch_reductions_total`` over it."""
    compiler = make_compiler(macros=True)
    reductions = Deltas("maya_dispatch_reductions_total")
    compiler.compile("""
        class Counted {
            static int f(int x) { return x * 2 + 1; }
        }
    """)
    reductions.freeze()
    count = reductions.total("maya_dispatch_reductions_total")
    report("E7: dispatcher reductions for a 3-line class", [
        ["reductions dispatched", count],
    ])
    assert count > 0

    benchmark(lambda: make_compiler().compile("class X { int f; }"))
