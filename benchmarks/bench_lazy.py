"""E4: lazy parsing — the figure-4 pipeline's payoff.

The stream lexer finds member boundaries without parsing bodies, so
shaping a class (parse + member signatures, bodies left as thunks) is
cheaper than compiling it (bodies forced and checked).  Measured on a
generated 40-method class.
"""

from conftest import make_compiler, paired, report

from repro.ast import nodes as n
from repro.core import CompileContext, CompileEnv
from repro.lalr import Parser
from repro.lexer import stream_lex

METHODS = 40


def big_class(methods: int) -> str:
    body = "\n".join(
        f"""
        int method{i}(int a, int b) {{
            int total = 0;
            for (int j = 0; j < a; j++) {{
                total = total + j * b - (a / (b + 1));
                if (total > 1000) total = total - 999;
            }}
            return total;
        }}
        """
        for i in range(methods)
    )
    return f"class Big {{ {body} }}"


def shape_only(source: str) -> int:
    """Parse the class; bodies stay lazy (the shaper's view).  Returns
    the number of method bodies left as thunks."""
    ctx = CompileContext(CompileEnv())
    parser = Parser(ctx.env.tables(), ctx)
    decl, _ = parser.parse("TypeDeclaration", stream_lex(source))
    return sum(1 for m in decl.members
               if isinstance(m, n.MethodDecl)
               and isinstance(m.body, n.LazyNode))


def test_e4_shaping_cheaper_than_compiling():
    source = big_class(METHODS)
    measured = paired(lambda _: make_compiler().compile(source),
                      lambda _: shape_only(source))
    assert all(lazy == METHODS for _, lazy in measured.results)
    report(f"E4: lazy shaping vs full compilation ({METHODS} methods)", [
        ["full compile (bodies forced)", f"{measured.slow_ms:.1f} ms"],
        ["shape only (bodies lazy)", f"{measured.fast_ms:.1f} ms"],
        ["ratio", f"{measured.ratio:.1f}x", "bar: > 1x"],
    ])
    assert measured.ratio > 1.0
