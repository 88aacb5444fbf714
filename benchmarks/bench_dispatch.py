"""E7: Mayan dispatch overhead.

Parses the same expressions with 0 and with 8 chained Mayans imported
on one production.  The Mayans add no dispatched reductions (tier-1
``tests/test_paper_claims.py`` counts them), so the time ratio is the
per-reduction cost of the chain.  Its bar is the recorded 5.78x plus
the 50% the former regression gate allowed.
"""

from conftest import paired, report

from repro.core import CompileContext, CompileEnv
from repro.dispatch import Mayan
from repro.lalr import Parser
from repro.lexer import stream_lex

MAX_OVERHEAD = 5.78 * 1.5


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


def test_e7_dispatch_scaling():
    """Reduction cost with 8 vs 0 chained Mayans on one production."""
    bare = CompileEnv()
    loaded = CompileEnv()
    for index in range(8):
        _literal_mayan(index).run(loaded)

    # Warm both environments (tables, dispatch plans, specializer
    # compilation) so the timed runs measure steady-state reductions.
    _parse_many(bare, count=5)
    _parse_many(loaded, count=5)

    measured = paired(lambda _: _parse_many(loaded),
                      lambda _: _parse_many(bare))
    report("E7: dispatch overhead (50 expression parses)", [
        ["8 chained Mayans", f"{measured.slow_ms:.2f} ms"],
        ["no user Mayans", f"{measured.fast_ms:.2f} ms"],
        ["ratio", f"{measured.ratio:.2f}x",
         f"bar: <= {MAX_OVERHEAD:.2f}x"],
    ])
    assert measured.ratio <= MAX_OVERHEAD
