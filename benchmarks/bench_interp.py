"""E14/E15: the pycode backend vs the seed tree-walker.

Each workload is compiled once and then run under both backends
(``Interpreter(backend=...)``); walk and pycode must produce identical
results.  The recorded ``pycode_*_speedup`` ratios (walk ms / pycode
ms) are the paper-style payoff of compiling method bodies to generated
Python source with inline caches, guarded direct calls and native
operators.  The E9 workload reruns the MultiJava dispatcher benchmark
so the speedups are measured on expanded (generated) code, not just
hand-written loops.
"""

import time

from conftest import make_compiler, record_metric, report

from repro.interp import Interpreter
from repro.obs.metrics import REGISTRY

#: Tight arithmetic/branching loop: statement execution overhead.
LOOP_SOURCE = """
    class Demo {
        static int main() {
            int total = 0;
            for (int i = 0; i < 60000; i++) {
                if (i % 3 == 0) { total += i; } else { total -= 1; }
            }
            return total;
        }
    }
"""

#: Virtual-call-heavy: the inline caches' home turf.
CALL_SOURCE = """
    class Adder {
        int bump(int x) { return x + 1; }
    }
    class Doubler extends Adder {
        int bump(int x) { return x + 2; }
    }
    class Demo {
        static int main() {
            Adder a = new Adder();
            Adder b = new Doubler();
            int total = 0;
            for (int i = 0; i < 12000; i++) {
                total += a.bump(i) + b.bump(total % 7);
            }
            return total;
        }
    }
"""

#: Field read/write loop: the field inline caches and direct stores.
FIELD_SOURCE = """
    class Cell {
        int value;
        Cell next;
    }
    class Demo {
        static int main() {
            Cell head = new Cell();
            head.next = new Cell();
            head.next.next = head;
            Cell cursor = head;
            int total = 0;
            for (int i = 0; i < 20000; i++) {
                cursor.value = cursor.value + i;
                total += cursor.value % 97;
                cursor = cursor.next;
            }
            return total;
        }
    }
"""

#: E9's MultiJava dispatcher workload: generated instanceof-chain
#: dispatchers plus the impl bodies, i.e. expanded code end to end.
E9_SOURCE = """
    use multijava.MultiJava;
    class C { }
    class D extends C { }
    class E extends D { }
    class Host {
        int m(C c) { return 0; }
        int m(C@D c) { return 1; }
        int m(C@E c) { return 2; }
    }
    class Demo {
        static int main() {
            Host h = new Host();
            C c = new C();
            C d = new D();
            C e = new E();
            int total = 0;
            for (int i = 0; i < 4000; i++) {
                total += h.m(c) + h.m(d) + h.m(e);
            }
            return total;
        }
    }
"""

REPEATS = 5


def _time_backend(program, backend, repeats=REPEATS):
    """Best-of-N wall-clock ms for Demo.main() under one backend (the
    first pycode run generates plans; best-of excludes that warmup)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        interp = Interpreter(program, backend=backend)
        start = time.perf_counter()
        value = interp.run_static("Demo")
        best = min(best, time.perf_counter() - start)
    return best * 1e3, value


def _compare(name, source, multijava=False):
    program = make_compiler(multijava=multijava).compile(source)
    walk_ms, walk_value = _time_backend(program, "walk")
    pycode_ms, pycode_value = _time_backend(program, "pycode")
    assert walk_value == pycode_value, (
        f"{name}: pycode disagrees ({walk_value!r} vs {pycode_value!r})")
    pycode_speedup = walk_ms / pycode_ms if pycode_ms else 0.0
    record_metric(f"{name}_walk_ms", round(walk_ms, 3), "ms",
                  area="interp")
    record_metric(f"{name}_pycode_ms", round(pycode_ms, 3), "ms",
                  area="interp")
    record_metric(f"pycode_{name}_speedup", round(pycode_speedup, 3),
                  "x", area="interp")
    return {
        "walk_ms": walk_ms,
        "pycode_ms": pycode_ms,
        "pycode_speedup": pycode_speedup,
        "value": walk_value,
    }


def _rows(timings):
    return [
        ["result", timings["value"]],
        ["walk ms", round(timings["walk_ms"], 2)],
        ["pycode ms", round(timings["pycode_ms"], 2)],
        ["pycode vs walk", f"{timings['pycode_speedup']:.2f}x"],
    ]


def test_e14_loop_workload():
    timings = _compare("loop", LOOP_SOURCE)
    report("E14/E15: loop workload", _rows(timings), area="interp")
    assert timings["pycode_speedup"] > 1.0


def test_e14_call_workload():
    timings = _compare("call", CALL_SOURCE)
    report("E14/E15: virtual-call workload", _rows(timings),
           area="interp")
    # The headline: inline caches and guarded direct calls through
    # generated code must pay off on call-heavy code.  4x is a loose
    # floor for noisy runners; the committed baseline records far more.
    assert timings["pycode_speedup"] >= 4.0


def test_e14_field_workload():
    timings = _compare("field", FIELD_SOURCE)
    report("E14/E15: field-access workload", _rows(timings),
           area="interp")
    assert timings["pycode_speedup"] > 1.0


def test_e14_multijava_workload():
    timings = _compare("e9_dispatch", E9_SOURCE, multijava=True)
    report("E14/E15: E9 MultiJava dispatch workload", _rows(timings),
           area="interp")
    assert timings["value"] == 4000 * 3
    assert timings["pycode_speedup"] >= 1.2


def test_e14_inline_cache_health():
    """On the call workload, virtual calls should almost never resolve
    afresh: a pycode call site is a monomorphic inline cache (its
    patched class guard) backed by a per-site dict cache, so only a
    site's first receivers (misses) and megamorphic overflow pay a
    full lookup."""
    program = make_compiler().compile(CALL_SOURCE)
    family = REGISTRY.get("maya_interp_ic_events_total")

    def total(event):
        return sum(child.value for labels, child in family.samples()
                   if labels[0] == "call" and labels[1] == event)

    before = total("miss") + total("megamorphic")
    interp = Interpreter(program, backend="pycode")
    interp.run_static("Demo")
    lookups = total("miss") + total("megamorphic") - before
    calls = interp.counters.method_calls
    assert calls > 0
    hit_rate = 1.0 - lookups / calls
    record_metric("ic_call_hit_rate_pct", round(hit_rate * 100, 2), "%",
                  area="interp")
    report("E14: inline-cache health", [
        ["method calls", calls],
        ["call IC lookups (miss + megamorphic)", lookups],
        ["hit rate", f"{hit_rate:.1%}"],
    ], area="interp")
    assert hit_rate > 0.99
