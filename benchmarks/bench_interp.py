"""E14/E15: the pycode backend vs the seed tree-walker.

Each workload is compiled once and then run under both backends
(``Interpreter(backend=...)``) as interleaved pairs; walk and pycode
must produce identical results.  The speedup (walk ms / pycode ms) is
the payoff of compiling method bodies to generated Python source with
call sites that patch once into guarded direct calls, and native
operators.  The E9 workload reruns the MultiJava dispatcher benchmark
so the speedup is measured on expanded (generated) code, not just
hand-written loops.  That a call site looks up each receiver class's
target once is a count, checked in tier-1
(``tests/test_paper_claims.py``, E14).
"""

from conftest import make_compiler, paired, report

from repro.interp import Interpreter

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

#: Virtual-call-heavy: the patched call sites' home turf.
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

#: Field read/write loop: checked field reads and direct stores.
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


def _compare(title, source, multijava=False):
    program = make_compiler(multijava=multijava).compile(source)
    # The first pycode run generates the plans every later run reuses.
    Interpreter(program, backend="pycode").run_static("Demo")
    measured = paired(
        lambda _: Interpreter(program, backend="walk").run_static("Demo"),
        lambda _: Interpreter(program, backend="pycode").run_static("Demo"))
    values = {value for pair in measured.results for value in pair}
    assert len(values) == 1, f"{title}: pycode disagrees: {values}"
    report(f"E14/E15: {title}", [
        ["result", values.pop()],
        ["walk ms", round(measured.slow_ms, 2)],
        ["pycode ms", round(measured.fast_ms, 2)],
        ["pycode vs walk", f"{measured.ratio:.2f}x"],
    ])
    return measured


def test_e14_loop_workload():
    assert _compare("loop workload", LOOP_SOURCE).ratio > 1.0


def test_e14_call_workload():
    # The headline: patched call sites and guarded direct calls through
    # generated code must pay off on call-heavy code.
    assert _compare("virtual-call workload", CALL_SOURCE).ratio >= 4.0


def test_e14_field_workload():
    assert _compare("field-access workload", FIELD_SOURCE).ratio > 1.0


def test_e14_multijava_workload():
    measured = _compare("E9 MultiJava dispatch workload", E9_SOURCE,
                        multijava=True)
    assert measured.results[0][0] == 4000 * 3
    assert measured.ratio >= 1.2
