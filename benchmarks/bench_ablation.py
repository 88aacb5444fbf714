"""A1: grammar versioning + table cache, an ablation DESIGN.md calls out.

Importing an extension forces a table regeneration, but the
fingerprint cache amortizes it across compilations: a compile whose
grammar's tables are cached must beat the same compile with every table
cache bypassed.
"""

from conftest import make_compiler, paired, report

from repro.lalr.tables import bypass_caches

SOURCE = """
    import java.util.*;
    class Demo {
        static void main() {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.elements().foreach(String s) { }
        }
    }
"""


def test_a1_table_cache_amortization():
    compiler = make_compiler(macros=True)
    compiler.compile(SOURCE.replace("Demo", "DemoWarm"))

    def cold(index):
        with bypass_caches():
            return compiler.compile(SOURCE.replace("Demo", f"DemoC{index}"))

    def warm(index):
        return compiler.compile(SOURCE.replace("Demo", f"DemoW{index}"))

    measured = paired(cold, warm)
    report("A1: extension table-regeneration amortization", [
        ["compile, table caches bypassed", f"{measured.slow_ms:.0f} ms"],
        ["compile, tables cached", f"{measured.fast_ms:.1f} ms"],
        ["speedup", f"{measured.ratio:.1f}x", "bar: > 1x"],
    ])
    assert measured.ratio > 1.0
