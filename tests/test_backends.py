"""Differential tests for the two execution backends.

The pycode backend (generated Python source with specialized call
sites, the default) must be observably identical to the seed
tree-walker: same stdout, same operation-counter snapshots (step
equivalence), and the same thrown ``JavaThrow`` classes.  Every shipped
example runs under both backends, plus targeted programs covering the
``_virtual_lookup`` shadowing edges, call sites that see more than one
receiver class (each class is resolved once per site, and the first
one's guarded direct call is all a monomorphic site pays) and the
pycode backend's fallback to the walker.
"""

import json
import pathlib
import warnings

import pytest

from repro.ast import nodes as n
from repro.core import CompileEnv, MayaError
from repro.interp import (Interpreter, JavaStackOverflow, JavaThrow,
                          StepLimitExceeded)
from repro.interp import pycodegen
from repro.mayac import main as mayac_main
from repro.obs.metrics import REGISTRY
from repro.types import INT, TypeError_

from tests.conftest import compile_source
from tests.test_examples import EXAMPLES_DIR, HELLO, SCRIPTS, run_example

BACKENDS = ("walk", "pycode")


def run_all(source, cls="Demo", macros=False, multijava=False, args=()):
    """Run ``cls.main()`` under every backend; return per-backend
    (return value, output lines, counter snapshot).

    The pycode run turns warnings into errors and must decline no
    method: a ``SyntaxWarning`` from ``compile()`` would otherwise
    surface on users' stderr (under ``-W error`` it becomes a
    ``SyntaxError``, which silently drops the method to the walker)."""
    program = compile_source(source, macros, multijava)
    results = {}
    for backend in BACKENDS:
        fallbacks = _codegen_counts().get("fallback", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            interp = Interpreter(program, backend=backend)
            value = interp.run_static(cls, args=args)
        assert _codegen_counts().get("fallback", 0) == fallbacks, \
            "pycode declined a method"
        results[backend] = (value, interp.output,
                            interp.counters.snapshot())
    return results


def assert_equivalent(source, cls="Demo", macros=False, multijava=False):
    results = run_all(source, cls, macros, multijava)
    walk = results["walk"]
    for backend in BACKENDS[1:]:
        other = results[backend]
        assert walk[0] == other[0], f"return values differ ({backend})"
        assert walk[1] == other[1], f"stdout differs ({backend})"
        assert walk[2] == other[2], \
            f"operation counters differ ({backend})"
    return walk


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    SRC = "class Demo { static int main() { return 41 + 1; } }"

    def test_default_is_pycode(self, monkeypatch):
        monkeypatch.delenv("MAYA_BACKEND", raising=False)
        program = compile_source(self.SRC)
        assert Interpreter(program).backend == "pycode"

    def test_env_var_selects_backend(self, monkeypatch):
        for backend in BACKENDS:
            monkeypatch.setenv("MAYA_BACKEND", backend)
            program = compile_source(self.SRC)
            interp = Interpreter(program)
            assert interp.backend == backend
            assert interp.run_static("Demo") == 42

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("MAYA_BACKEND", "pycode")
        program = compile_source(self.SRC)
        assert Interpreter(program, backend="walk").backend == "walk"

    def test_unknown_backend_rejected(self):
        program = compile_source(self.SRC)
        for backend in ("jit", "closure"):
            with pytest.raises(MayaError,
                               match="unknown interpreter backend"):
                Interpreter(program, backend=backend)

    def test_mayac_backend_flag(self, tmp_path, capsys):
        src = tmp_path / "demo.maya"
        src.write_text("class Demo { static void main() "
                       "{ System.out.println(\"hi \" + (6 * 7)); } }")
        outputs = {}
        for backend in BACKENDS:
            assert mayac_main([str(src), "--run", "Demo",
                               "--backend", backend]) == 0
            outputs[backend] = capsys.readouterr().out
        for backend in BACKENDS[1:]:
            assert outputs["walk"] == outputs[backend]
        assert "hi 42" in outputs["pycode"]
        with pytest.raises(SystemExit):
            mayac_main([str(src), "--run", "Demo", "--backend", "closure"])
        capsys.readouterr()

    def test_daemon_runs_share_the_default(self, monkeypatch):
        # mayad has no default of its own: a run request that names no
        # backend follows MAYA_BACKEND, else the interpreter default.
        from repro.server.daemon import MayaDaemon

        program = compile_source("class Demo { static int helper() "
                                 "{ return 1; } static void main() "
                                 "{ System.out.println(Demo.helper()); } }")
        for env, generated in (("walk", 0), ("", 2)):
            monkeypatch.setenv("MAYA_BACKEND", env)
            before = _codegen_counts().get("compiled", 0)
            result = MayaDaemon._run_program(program, {"run": "Demo"})
            assert result["output"] == ["1"]
            assert _codegen_counts().get("compiled", 0) - before \
                == generated


# ---------------------------------------------------------------------------
# Differential: language constructs
# ---------------------------------------------------------------------------


class TestDifferentialPrograms:
    def test_arithmetic_and_loops(self):
        assert_equivalent("""
            class Demo {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 20; i++) {
                        if (i % 3 == 0) continue;
                        if (i > 15) break;
                        total += i * 2 - 1;
                    }
                    int j = 0;
                    do { total++; j++; } while (j < 3);
                    while (j > 0) { j--; }
                    return total;
                }
            }
        """)

    def test_truncating_division(self):
        walk = assert_equivalent("""
            class Demo {
                static void main() {
                    System.out.println(-7 / 2);
                    System.out.println(-7 % 2);
                    System.out.println(7 / -2);
                    System.out.println(7.5 / 2);
                }
            }
        """)
        assert walk[1] == ["-3", "-1", "-3", "3.75"]

    def test_string_concat_and_chars(self):
        assert_equivalent("""
            class Demo {
                static void main() {
                    char c = 'A';
                    int n = c + 1;
                    String s = "got " + c + " and " + n + " and " + true;
                    System.out.println(s);
                    System.out.println("x" + null);
                }
            }
        """)

    def test_literal_receivers(self):
        # A literal receiver is never null, so pycode emits no null
        # guard for it (``'abc' is None`` draws a SyntaxWarning).
        walk = assert_equivalent("""
            class Demo {
                static void main() {
                    System.out.println("abc".charAt(1));
                    System.out.println("hello".length() + "xy".indexOf("y"));
                    System.out.println("a".equals("a"));
                    System.out.println("ab".concat("cd").toUpperCase());
                }
            }
        """)
        assert walk[1] == ["b", "6", "true", "ABCD"]

    def test_fields_arrays_and_objects(self):
        assert_equivalent("""
            class Point {
                int x; int y;
                Point(int x, int y) { this.x = x; this.y = y; }
                int dist2() { return x * x + y * y; }
            }
            class Demo {
                static int main() {
                    Point[] pts = new Point[3];
                    int total = 0;
                    for (int i = 0; i < pts.length; i++) {
                        pts[i] = new Point(i, i + 1);
                    }
                    for (int i = 0; i < pts.length; i++) {
                        pts[i].x = pts[i].x + 1;
                        total += pts[i].dist2();
                    }
                    int[] init = {10, 20, 30};
                    return total + init[1] + init.length;
                }
            }
        """)

    def test_virtual_dispatch_and_super(self):
        assert_equivalent("""
            class Animal {
                String speak() { return "..."; }
                String describe() { return "I say " + this.speak(); }
            }
            class Dog extends Animal {
                String speak() { return "woof"; }
                String describe() { return super.describe() + "!"; }
            }
            class Demo {
                static void main() {
                    Animal a = new Dog();
                    System.out.println(a.describe());
                    Animal plain = new Animal();
                    System.out.println(plain.describe());
                }
            }
        """)

    def test_static_fields_and_methods(self):
        assert_equivalent("""
            class Counter {
                static int count;
                static int bump(int by) { count += by; return count; }
            }
            class Demo {
                static int main() {
                    Counter.bump(3);
                    Counter.bump(4);
                    Counter.count = Counter.count * 2;
                    return Counter.count + Integer.MAX_VALUE % 7;
                }
            }
        """)

    def test_instanceof_casts_and_conditional(self):
        assert_equivalent("""
            class Base { int tag() { return 1; } }
            class Sub extends Base { int tag() { return 2; } }
            class Demo {
                static int main() {
                    Object[] xs = new Object[4];
                    xs[0] = new Base(); xs[1] = new Sub();
                    xs[2] = new Sub(); xs[3] = new Base();
                    int total = 0;
                    for (int i = 0; i < xs.length; i++) {
                        Object x = xs[i];
                        total += (x instanceof Sub)
                            ? ((Sub) x).tag() * 10 : ((Base) x).tag();
                    }
                    double d = (double) total;
                    int back = (int) (d / 2.0);
                    char c = (char) 66;
                    return total + back + c;
                }
            }
        """)

    def test_try_catch_finally(self):
        walk = assert_equivalent("""
            class Demo {
                static int divide(int a, int b) {
                    try {
                        return a / b;
                    } catch (ArithmeticException e) {
                        System.out.println("caught: " + e.getMessage());
                        return -1;
                    } finally {
                        System.out.println("finally");
                    }
                }
                static int main() {
                    int a = Demo.divide(10, 2);
                    int b = Demo.divide(1, 0);
                    try {
                        throw new RuntimeException("boom");
                    } catch (RuntimeException e) {
                        System.out.println("rt: " + e.getMessage());
                    }
                    return a * 100 + b;
                }
            }
        """)
        assert walk[0] == 499
        assert "caught: / by zero" in walk[1]

    def test_finally_overrides_return(self):
        walk = assert_equivalent("""
            class Demo {
                static int f() {
                    try { return 1; } finally { return 2; }
                }
                static int g() {
                    try { throw new RuntimeException("x"); }
                    finally { return 3; }
                }
                static int main() { return Demo.f() * 10 + Demo.g(); }
            }
        """)
        assert walk[0] == 23

    def test_shadowing_in_sibling_blocks(self):
        # Both backends use one flat frame per invocation, so a name
        # redeclared in a sibling block reuses the same storage.
        assert_equivalent("""
            class Demo {
                static int main() {
                    int total = 0;
                    { int x = 5; total += x; }
                    { int x = 7; total += x; }
                    for (int i = 0; i < 2; i++) { int y = i; total += y; }
                    for (int i = 0; i < 2; i++) { int y = 10; total += y; }
                    return total;
                }
            }
        """)

    def test_compound_assignment_and_incr(self):
        assert_equivalent("""
            class Demo {
                static int main() {
                    int[] a = new int[5];
                    int i = 0;
                    a[i++] += 7;
                    a[++i] -= 2;
                    int x = 10;
                    x *= 3; x /= 2; x %= 7; x <<= 2; x >>= 1;
                    return a[0] * 100 + a[2] * 10 + x + i;
                }
            }
        """)

    def test_bitwise_and_logical(self):
        assert_equivalent("""
            class Demo {
                static int main() {
                    int bits = (12 & 10) | (1 ^ 3);
                    boolean p = true & false;
                    boolean q = true | false;
                    boolean r = true ^ true;
                    boolean s = (bits > 0) && !r || q;
                    return bits + (p ? 1 : 0) + (s ? 100 : 0);
                }
            }
        """)

    def test_recursion(self):
        walk = assert_equivalent("""
            class Demo {
                static int fib(int n) {
                    if (n < 2) return n;
                    return Demo.fib(n - 1) + Demo.fib(n - 2);
                }
                static int main() { return Demo.fib(15); }
            }
        """)
        assert walk[0] == 610


# ---------------------------------------------------------------------------
# Differential: exceptions escape identically
# ---------------------------------------------------------------------------


THROWING = [
    ("java.lang.NullPointerException", """
        class Demo {
            static void main() { Object o = null; o.toString(); }
        }
    """),
    ("java.lang.ArithmeticException", """
        class Demo {
            static int main() { int z = 0; return 5 / z; }
        }
    """),
    ("java.lang.IndexOutOfBoundsException", """
        class Demo {
            static int main() { return "ab".charAt(5); }
        }
    """),
    ("java.lang.ArrayIndexOutOfBoundsException", """
        class Demo {
            static int main() { int[] a = new int[2]; return a[5]; }
        }
    """),
    ("java.lang.ClassCastException", """
        class A { } class B extends A { }
        class Demo {
            static void main() { A a = new A(); B b = (B) a; }
        }
    """),
    ("java.lang.RuntimeException", """
        class Demo {
            static void main() { throw new RuntimeException("sad"); }
        }
    """),
]


class TestThrowParity:
    @pytest.mark.parametrize("expected,source",
                             THROWING, ids=[t[0] for t in THROWING])
    def test_same_java_throw_class(self, expected, source):
        program = compile_source(source)
        thrown = {}
        for backend in BACKENDS:
            interp = Interpreter(program, backend=backend)
            with pytest.raises(JavaThrow) as exc:
                interp.run_static("Demo")
            thrown[backend] = (exc.value.value.class_type.name,
                               exc.value.value.fields.get("message"))
        for backend in BACKENDS[1:]:
            assert thrown["walk"] == thrown[backend]
        assert thrown["walk"][0] == expected

    def test_step_limit_parity(self):
        source = """
            class Demo {
                static void main() { while (true) { int x = 1; } }
            }
        """
        program = compile_source(source)
        for backend in BACKENDS:
            interp = Interpreter(program, backend=backend,
                                 max_steps=500)
            with pytest.raises(StepLimitExceeded, match="step budget"):
                interp.run_static("Demo")

    def test_stack_overflow_parity(self):
        source = """
            class Demo {
                static int loop(int n) { return Demo.loop(n + 1); }
                static int main() { return Demo.loop(0); }
            }
        """
        program = compile_source(source)
        messages = {}
        for backend in BACKENDS:
            interp = Interpreter(program, backend=backend,
                                 max_call_depth=50)
            with pytest.raises(Exception) as exc:
                interp.run_static("Demo")
            messages[backend] = str(exc.value)
        for backend in BACKENDS[1:]:
            assert messages["walk"] == messages[backend]
        assert "Java stack overflow" in messages["walk"]


# ---------------------------------------------------------------------------
# Exact counters: a plan counts into locals and adds them to the
# registry in one ``finally``; a budgeted interpreter runs the walker
# ---------------------------------------------------------------------------


def _snapshot_after(program, backend, error, **options):
    """The counter snapshot of a run that must end in ``error``."""
    interp = Interpreter(program, backend=backend, **options)
    with pytest.raises(error):
        interp.run_static("Demo")
    return interp.counters.snapshot()


class TestExactCounters:
    def test_callee_throw_caught_by_the_caller(self):
        # Each odd round's callee throws mid-block, after a statement,
        # a field read and a field write; the caller catches and goes
        # on counting.
        assert_equivalent("""
            class Cell { int v; Cell next; }
            class Demo {
                static int poke(Cell c, int n) {
                    int a = n + c.v;
                    c.next.v = a;
                    return a + 1;
                }
                int probe(Cell c) {
                    int[] xs = new int[2];
                    return c.next.v + xs[1];
                }
                static int main() {
                    Cell cell = new Cell();
                    Demo self = new Demo();
                    int total = 0;
                    for (int i = 0; i < 6; i++) {
                        if (i % 2 == 1) { cell.next = null; }
                        else { cell.next = new Cell(); }
                        try {
                            total += Demo.poke(cell, i);
                            total += self.probe(cell);
                        } catch (NullPointerException e) {
                            total += 100;
                        }
                    }
                    return total;
                }
            }
        """)

    def test_guard_throws_inside_a_straight_line_run(self):
        # Each guard of the try block's run of field accesses throws
        # in some round and the method catches it; the counts that run
        # leaves pending must reach the totals at every guard, as must
        # those before the array-bounds and division checks.
        assert_equivalent("""
            class Cell { int v; Cell next; }
            class Demo {
                static int main() {
                    Cell a = new Cell();
                    a.next = new Cell();
                    int[] xs = new int[3];
                    int total = 0;
                    for (int i = 0; i < 12; i++) {
                        Cell c = a;
                        if (i % 6 == 1) { c = null; }
                        if (i % 6 == 2) { a.next.next = null; }
                        else { a.next.next = new Cell(); }
                        try {
                            c.v = c.v + i;
                            total += c.next.v % 7;
                            c.next.next.v = total;
                            total += c.next.next.v;
                            xs[i % 6 - 2] = total;
                            total += 60 / (i % 6 - 4);
                            c.next.v = total % 5;
                        } catch (NullPointerException e) {
                            total += 1000;
                        } catch (ArrayIndexOutOfBoundsException e) {
                            total += 2000;
                        } catch (ArithmeticException e) {
                            total += 3000;
                        }
                    }
                    return total;
                }
            }
        """)

    def test_stack_overflow(self):
        program = compile_source("""
            class Node { int depth; }
            class Demo {
                static int down(Node n, int k) {
                    n.depth = k;
                    int next = k + 1;
                    return Demo.down(n, next);
                }
                static int main() { return Demo.down(new Node(), 0); }
            }
        """)
        walk, pycode = (_snapshot_after(program, backend, JavaStackOverflow,
                                        max_call_depth=40)
                        for backend in BACKENDS)
        assert walk == pycode
        assert walk["field_writes"] == 39

    SITES = """
        class Adder { int bump(int x) { int y = x + 1; return y + 2; } }
        class Doubler extends Adder { int bump(int x) { return x + 30; } }
        class Demo {
            static int twice(Adder a, int x) { return a.bump(a.bump(x)); }
            static int main() {
                Adder a = new Adder();
                Adder b = new Doubler();
                int total = 0;
                for (int i = 0; i < 20; i++) {
                    total += Demo.twice(a, i) + b.bump(total % 13);
                }
                return total;
            }
        }
    """

    @pytest.mark.parametrize("budget_first", [False, True])
    def test_budgeted_and_plain_interpreters_interleave(self, budget_first):
        # A budgeted interpreter runs every method on the walker and
        # builds no plan; a plain one runs the shared plans.  Neither
        # disturbs the other's totals.
        program = compile_source(self.SITES)
        methods = [m for compiled in program.classes.values()
                   for overloads in compiled.type.methods.values()
                   for m in overloads]
        walk = Interpreter(program, backend="walk")
        value = walk.run_static("Demo")
        full = walk.counters.snapshot()
        budgets = (3, 41, full["statements"] // 2)
        trips = {budget: _snapshot_after(program, "walk",
                                         StepLimitExceeded, max_steps=budget)
                 for budget in budgets}
        if budget_first:
            budgeted = Interpreter(program, backend="pycode",
                                   max_steps=10 ** 9)
            assert budgeted.run_static("Demo") == value
            assert not any(getattr(m, "_pycode_plan", None)
                           for m in methods)
        for budget in budgets:
            kinds = [None, budget, 10 ** 9]
            if budget_first:
                kinds.reverse()
            for max_steps in kinds:
                if max_steps == budget:
                    assert _snapshot_after(
                        program, "pycode", StepLimitExceeded,
                        max_steps=budget) == trips[budget], budget
                    continue
                interp = Interpreter(program, backend="pycode",
                                     max_steps=max_steps)
                assert interp.run_static("Demo") == value
                assert interp.counters.snapshot() == full, max_steps
                plan = pycodegen.plan_for(methods[0], interp)
                assert (plan is pycodegen.FALLBACK) == \
                    (max_steps is not None), max_steps


# ---------------------------------------------------------------------------
# Virtual-lookup shadowing edges the inline caches must preserve
# ---------------------------------------------------------------------------


class TestVirtualLookupShadowing:
    def test_stringbuffer_tostring_beats_object(self):
        # toString is declared on Object; the receiver's runtime chain
        # must win so StringBuffer.toString returns the buffer content,
        # not "Object@...".  Loop so the inline cache's hit path is
        # exercised, not just the miss.
        walk = assert_equivalent("""
            class Demo {
                static void main() {
                    StringBuffer sb = new StringBuffer();
                    sb.append("a").append("b");
                    for (int i = 0; i < 3; i++) {
                        Object o = sb;
                        System.out.println(o.toString());
                    }
                }
            }
        """)
        assert walk[1] == ["ab", "ab", "ab"]

    def test_user_override_beats_builtin(self):
        walk = assert_equivalent("""
            class Named {
                String toString() { return "named!"; }
            }
            class Demo {
                static void main() {
                    Object o = new Named();
                    for (int i = 0; i < 3; i++) {
                        System.out.println(o.toString());
                    }
                }
            }
        """)
        assert walk[1][0] == "named!"

    def test_string_receiver_resolves_string_methods(self):
        walk = assert_equivalent("""
            class Demo {
                static void main() {
                    String s = "Hello";
                    for (int i = 0; i < 3; i++) {
                        System.out.println(s.toUpperCase() + s.length());
                    }
                }
            }
        """)
        assert walk[1][0] == "HELLO5"

    def test_mixed_receivers_at_one_site(self):
        # One call site sees builtin peers (StringBuffer), user objects
        # with overrides, and plain Objects — each class must cache its
        # own target.
        assert_equivalent("""
            class Loud { String toString() { return "LOUD"; } }
            class Demo {
                static void main() {
                    Object[] xs = new Object[3];
                    StringBuffer sb = new StringBuffer();
                    sb.append("buf");
                    xs[0] = sb; xs[1] = new Loud(); xs[2] = "str";
                    for (int round = 0; round < 2; round++) {
                        for (int i = 0; i < xs.length; i++) {
                            System.out.println(xs[i].toString());
                        }
                    }
                }
            }
        """)


# ---------------------------------------------------------------------------
# Plan reuse and metrics
# ---------------------------------------------------------------------------


class TestInlineCaches:
    def test_plan_reused_across_interpreters(self):
        source = """
            class Demo {
                static int main() {
                    int t = 0;
                    for (int i = 0; i < 5; i++) { t += i; }
                    return t;
                }
            }
        """
        program = compile_source(source)
        method = program.class_named("Demo").type.methods["main"][0]
        first = Interpreter(program, backend="pycode")
        assert first.run_static("Demo") == 10
        plan = method._pycode_plan
        second = Interpreter(program, backend="pycode")
        assert second.run_static("Demo") == 10
        assert method._pycode_plan is plan  # one plan, shared

    def test_metrics_out_exports_interp_families(self, tmp_path, capsys):
        src = tmp_path / "demo.maya"
        src.write_text("""
            class Demo {
                static void main() {
                    StringBuffer sb = new StringBuffer();
                    for (int i = 0; i < 5; i++) { sb.append("x"); }
                    System.out.println(sb.toString());
                }
            }
        """)
        out = tmp_path / "metrics.json"
        assert mayac_main([str(src), "--run", "Demo",
                           "--backend", "pycode",
                           "--metrics-out", str(out),
                           "--metrics-format", "json"]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        names = {family["name"] for family in payload["families"]}
        assert "maya_interp_ops_total" in names
        assert "maya_interp_codegen_total" in names

    def test_prometheus_export_includes_ic(self, tmp_path, capsys):
        src = tmp_path / "demo.maya"
        src.write_text("class Demo { static void main() "
                       "{ System.out.println(\"m\"); } }")
        out = tmp_path / "metrics.prom"
        assert mayac_main([str(src), "--run", "Demo",
                           "--backend", "pycode",
                           "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "maya_interp_ops_total" in text


# ---------------------------------------------------------------------------
# Counters view (the obs.metrics port)
# ---------------------------------------------------------------------------


class TestCountersView:
    SRC = """
        class Demo {
            int f;
            int poke() { f = f + 1; return f; }
            static int main() {
                Demo d = new Demo();
                d.poke(); d.poke();
                return d.poke();
            }
        }
    """

    def test_snapshot_shape(self):
        program = compile_source(self.SRC)
        interp = Interpreter(program)
        interp.run_static("Demo")
        snapshot = interp.counters.snapshot()
        assert sorted(snapshot) == sorted(
            ["allocations", "method_calls", "field_reads", "field_writes",
             "array_reads", "array_writes", "statements"])
        assert all(isinstance(v, int) for v in snapshot.values())
        assert snapshot["allocations"] == 1
        assert snapshot["method_calls"] == 4  # main + 3x poke

    def test_reset_rebaselines(self):
        program = compile_source(self.SRC)
        interp = Interpreter(program)
        interp.run_static("Demo")
        assert interp.counters.method_calls > 0
        interp.counters.reset()
        assert interp.counters.method_calls == 0
        assert interp.counters.snapshot()["statements"] == 0

    def test_views_are_per_interpreter(self):
        program = compile_source(self.SRC)
        first = Interpreter(program)
        first.run_static("Demo")
        second = Interpreter(program)
        assert second.counters.method_calls == 0
        second.run_static("Demo")
        assert second.counters.method_calls == 4

    def test_registry_family_accumulates(self):
        program = compile_source(self.SRC)
        family = REGISTRY.get("maya_interp_ops_total")
        before = {labels: child.value for labels, child in family.samples()}
        interp = Interpreter(program)
        interp.run_static("Demo")
        after = {labels: child.value for labels, child in family.samples()}
        assert after[("method_calls",)] - \
            before.get(("method_calls",), 0) == 4


# ---------------------------------------------------------------------------
# AST bookkeeping the code generator relies on
# ---------------------------------------------------------------------------


class TestNodeKinds:
    def test_node_kind_tags(self):
        from repro.ast import nodes as n

        assert n.MethodInvocation.node_kind == "method_invocation"
        assert n.IfStmt.node_kind == "if_stmt"
        assert n.Literal.node_kind == "literal"
        assert n.BlockStmts.node_kind == "block_stmts"
        assert n.LazyNode.node_kind == "lazy_node"


# ---------------------------------------------------------------------------
# Every shipped example under every backend
# ---------------------------------------------------------------------------


class TestExamplesUnderAllBackends:
    @pytest.mark.parametrize("name", SCRIPTS)
    def test_example_script_identical_stdout(self, name, capsys,
                                             monkeypatch):
        from repro.hygiene import reset_fresh_names

        outputs = {}
        for backend in BACKENDS:
            # Gensym counters are process-wide; reset so the expanded
            # source some examples print is identical across the runs.
            reset_fresh_names()
            monkeypatch.setenv("MAYA_BACKEND", backend)
            run_example(name)
            outputs[backend] = capsys.readouterr().out
        for backend in BACKENDS[1:]:
            assert outputs["walk"] == outputs[backend]
        assert outputs["pycode"].strip()

    def test_hello_maya_identical_stdout(self, capsys):
        outputs = {}
        for backend in BACKENDS:
            assert mayac_main([HELLO, "--run", "Hello",
                               "--backend", backend]) == 0
            outputs[backend] = capsys.readouterr().out
        for backend in BACKENDS[1:]:
            assert outputs["walk"] == outputs[backend]
        assert "hello, maya" in outputs["pycode"]


# ---------------------------------------------------------------------------
# Macro and MultiJava expansions under the pycode backend
# ---------------------------------------------------------------------------


class TestExpandedCodeUnderClosure:
    """Expanded code (the class keeps the name of the retired closure
    tier it first covered) runs identically under pycode."""

    def test_foreach_expansion(self):
        assert_equivalent("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.ForEach;
                    Vector v = new Vector();
                    v.addElement("alpha");
                    v.addElement("beta");
                    v.elements().foreach(String s) {
                        System.out.println(s);
                    }
                }
            }
        """, macros=True)

    def test_multijava_dispatchers_compile_once(self):
        source = """
            use multijava.MultiJava;
            class Shape { }
            class Circle extends Shape { }
            class Square extends Shape { }
            class Namer {
                String name(Shape s) { return "shape"; }
                String name(Shape@Circle c) { return "circle"; }
                String name(Shape@Square sq) { return "square"; }
            }
            class Demo {
                static void main() {
                    Namer n = new Namer();
                    Shape[] xs = new Shape[3];
                    xs[0] = new Shape(); xs[1] = new Circle();
                    xs[2] = new Square();
                    for (int round = 0; round < 2; round++) {
                        for (int i = 0; i < xs.length; i++) {
                            System.out.println(n.name(xs[i]));
                        }
                    }
                }
            }
        """
        results = run_all(source, multijava=True)
        walk = results["walk"]
        for backend in BACKENDS[1:]:
            assert walk[1] == results[backend][1]
            assert walk[2] == results[backend][2]
        assert walk[1][:3] == ["shape", "circle", "square"]


# ---------------------------------------------------------------------------
# Fallback: unsupported shapes run on the walker, transparently
# ---------------------------------------------------------------------------


class TestWalkFallback:
    def test_walk_sentinel_is_cached(self):
        program = compile_source("""
            class Demo {
                static int main() { return 7; }
            }
        """)
        interp = Interpreter(program, backend="pycode")
        method = program.class_named("Demo").type.methods["main"][0]
        plan = pycodegen.plan_for(method, interp)
        assert plan is not pycodegen.FALLBACK
        assert method._pycode_plan is plan
        assert pycodegen.plan_for(method, interp) is plan

    SRC = """
        class Demo {
            static int risky(int[] a, int i) {
                System.out.println("risky " + i);
                return a[i] * 2;
            }
            static int main() {
                int[] a = new int[3];
                a[1] = 21;
                int total = Demo.risky(a, 1);
                System.out.println("total " + total);
                return Demo.risky(a, 5);
            }
        }
    """

    def test_declined_method_runs_on_walker(self, monkeypatch):
        # Force codegen to decline one method: the walker must run it
        # with the same stdout, counters and JavaThrow as a whole walk
        # run, and the decline is counted as a fallback.
        program = compile_source(self.SRC)
        real_gen = pycodegen._MethodGen

        def declining_gen(method):
            if method.name == "risky":
                raise pycodegen.CodegenError("forced decline")
            return real_gen(method)

        monkeypatch.setattr(pycodegen, "_MethodGen", declining_gen)
        runs = {}
        for backend in BACKENDS:
            before = _codegen_counts().get("fallback", 0)
            interp = Interpreter(program, backend=backend)
            with pytest.raises(JavaThrow) as exc:
                interp.run_static("Demo")
            runs[backend] = (interp.output, interp.counters.snapshot(),
                             exc.value.value.class_type.name,
                             _codegen_counts().get("fallback", 0) - before)
        method = program.class_named("Demo").type.methods["risky"][0]
        assert method._pycode_plan is pycodegen.FALLBACK
        assert runs["walk"][:3] == runs["pycode"][:3]
        assert runs["walk"][0] == ["risky 1", "total 42", "risky 5"]
        assert runs["walk"][2] == "java.lang.ArrayIndexOutOfBoundsException"
        assert runs["pycode"][3] == 1  # risky declined once, then cached
        assert runs["walk"][3] == 0


# ---------------------------------------------------------------------------
# Pycode backend: codegen metrics, polymorphic sites, walker fallback
# ---------------------------------------------------------------------------


def _codegen_counts():
    family = REGISTRY.get("maya_interp_codegen_total")
    return {labels[0]: child.value for labels, child in family.samples()}


POLY_SOURCE = """
    class Base { int tag() { return 1; } }
    class Sub extends Base { int tag() { return 2; } }
    class Demo {
        static int poke(Base b) { return b.tag(); }
        static int main() {
            Base[] xs = new Base[6];
            for (int i = 0; i < 6; i++) {
                if (i % 2 == 0) { xs[i] = new Base(); }
                else { xs[i] = new Sub(); }
            }
            int total = 0;
            for (int i = 0; i < 6; i++) { total += Demo.poke(xs[i]); }
            return total;
        }
    }
"""

#: One call site that sees ten receiver classes, in three rounds.
TEN_CLASSES_SOURCE = """
    class Base {{ int tag() {{ return -1; }} }}
    {decls}
    class Demo {{
        static int main() {{
            Base[] xs = new Base[10];
            {news}
            int total = 0;
            for (int round = 0; round < 3; round++) {{
                for (int i = 0; i < xs.length; i++) {{
                    total += xs[i].tag();
                }}
            }}
            return total;
        }}
    }}
""".format(
    decls="\n".join(f"class C{i} extends Base {{ int tag() {{ return {i}; }} }}"
                    for i in range(10)),
    news="\n".join(f"xs[{i}] = new C{i}();" for i in range(10)))


def _field_accesses(node, found):
    """Every ``FieldAccess`` under ``node``, forcing lazy nodes."""
    if isinstance(node, n.LazyNode):
        node = node.force()
    if isinstance(node, n.FieldAccess):
        found.append(node)
    if isinstance(node, list):
        for child in node:
            _field_accesses(child, found)
    elif isinstance(node, n.Node):
        for child in node.children():
            _field_accesses(child, found)
    return found


class TestPycodeBackend:
    def test_pycode_actually_compiles(self):
        # Guard against silent wholesale fallback: a plain program must
        # produce at least one compiled plan and zero walker fallbacks.
        program = compile_source("""
            class Demo {
                static int helper(int n) { return n * 2; }
                static int main() { return Demo.helper(21); }
            }
        """)
        before = _codegen_counts()
        interp = Interpreter(program, backend="pycode")
        assert interp.run_static("Demo") == 42
        after = _codegen_counts()
        compiled = after.get("compiled", 0) - before.get("compiled", 0)
        fallback = after.get("fallback", 0) - before.get("fallback", 0)
        assert compiled >= 2  # main + helper
        assert fallback == 0

    def test_second_receiver_class_keeps_the_walkers_semantics(self):
        # poke's site patches to Base.tag and then sees Sub.
        walk = assert_equivalent(POLY_SOURCE)
        assert walk[0] == 9  # 3 * Base.tag() + 3 * Sub.tag()

    def test_ten_receiver_classes_at_one_site(self, monkeypatch):
        walk = assert_equivalent(TEN_CLASSES_SOURCE)
        assert walk[0] == 3 * sum(range(10))
        lookups = []
        original = Interpreter._virtual_lookup

        def counted(self, klass, method):
            lookups.append(klass.name)
            return original(self, klass, method)

        monkeypatch.setattr(Interpreter, "_virtual_lookup", counted)
        program = compile_source(TEN_CLASSES_SOURCE)
        interp = Interpreter(program, backend="pycode")
        assert interp.run_static("Demo") == 3 * sum(range(10))
        # C0 patches the site; C1..C9 are each resolved once, in the
        # first round, and never again.
        assert sorted(lookups) == [f"C{i}" for i in range(10)]

    def test_unchecked_field_access_runs_on_the_walker(self):
        source = """
            class Cell {
                int value;
                int get() { return this.value; }
            }
            class Demo {
                static int main() {
                    Cell c = new Cell();
                    c.value = 5;
                    int total = 0;
                    for (int i = 0; i < 4; i++) { total += c.get(); }
                    System.out.println(total);
                    return total;
                }
            }
        """
        program = compile_source(source)
        method = program.class_named("Cell").type.methods["get"][0]
        (access,) = _field_accesses(method.decl.body, [])
        del access.field  # as if the checker had not stamped it
        runs = {}
        for backend in BACKENDS:
            before = _codegen_counts().get("fallback", 0)
            interp = Interpreter(program, backend=backend)
            runs[backend] = (interp.run_static("Demo"), interp.output,
                             interp.counters.snapshot(),
                             _codegen_counts().get("fallback", 0) - before)
        assert method._pycode_plan is pycodegen.FALLBACK
        assert runs["walk"][:3] == runs["pycode"][:3]
        assert runs["walk"][:2] == (20, ["20"])
        assert runs["pycode"][3] == 1 and runs["walk"][3] == 0

    def test_pycode_plan_reused_across_interpreters(self):
        program = compile_source("""
            class Demo {
                static int main() {
                    int t = 0;
                    for (int i = 0; i < 5; i++) { t += i; }
                    return t;
                }
            }
        """)
        first = Interpreter(program, backend="pycode")
        assert first.run_static("Demo") == 10
        baseline = _codegen_counts().get("compiled", 0)
        second = Interpreter(program, backend="pycode")
        assert second.run_static("Demo") == 10
        assert _codegen_counts().get("compiled", 0) == baseline

    def test_dump_source_is_compilable_python(self):
        program = compile_source(POLY_SOURCE)
        interp = Interpreter(program, backend="pycode")
        interp.run_static("Demo")
        klass = program.class_named("Demo").type
        method = next(m for m in klass.methods["main"])
        plan = pycodegen.plan_for(method, interp)
        assert plan is not pycodegen.FALLBACK
        assert "def _m(interp, v_this" in plan.source
        compile(plan.source, "<roundtrip>", "exec")


# ---------------------------------------------------------------------------
# Multi-module programs: the same parity bar, across import edges
# ---------------------------------------------------------------------------


MODULE_PROGRAM = {
    "lib.Shape": """
        class Shape { int area() { return 0; } }
    """,
    "lib.Square": """
        import lib.Shape;
        class Square extends Shape {
            int side;
            Square(int side) { this.side = side; }
            int area() { return side * side; }
        }
    """,
    "lib.Loops": """
        use maya.util.ForEach;
        import lib.Shape;
        class Loops {
            static int total(Shape[] shapes) {
                int sum = 0;
                StringBuffer seen = new StringBuffer();
                shapes.foreach(Shape s) {
                    sum += s.area();
                    seen.append("#");
                }
                System.out.println("visited " + seen.toString());
                return sum;
            }
        }
    """,
    "app.Main": """
        import lib.Shape;
        import lib.Square;
        import lib.Loops;
        class Main {
            static int main() {
                Shape[] shapes = new Shape[3];
                shapes[0] = new Square(2);
                shapes[1] = new Shape();
                shapes[2] = new Square(5);
                int total = Loops.total(shapes);
                System.out.println("total " + total);
                return total;
            }
        }
    """,
}

MODULE_THROWING = {
    "lib.Depth": """
        class Depth {
            static int probe(int[] values, int index) {
                return values[index];
            }
        }
    """,
    "app.Main": """
        import lib.Depth;
        class Main {
            static int main() {
                int[] values = new int[2];
                return Depth.probe(values, 7);
            }
        }
    """,
}


def compile_modules(sources, roots=("app.Main",)):
    from repro.modules import MemorySources, ModuleBuilder

    builder = ModuleBuilder(MemorySources(sources))
    return builder.build(list(roots), need_bodies=True).program


class TestMultiModuleDifferential:
    """Programs spanning several modules — including a Mayan exported
    over an import edge — meet the same cross-backend parity bar as
    single files: identical stdout, counters, and thrown classes."""

    def test_stdout_and_counters_identical(self):
        program = compile_modules(MODULE_PROGRAM)
        results = {}
        for backend in BACKENDS:
            interp = Interpreter(program, backend=backend)
            value = interp.run_static("Main")
            results[backend] = (value, interp.output,
                                interp.counters.snapshot())
        walk = results["walk"]
        for backend in BACKENDS[1:]:
            assert walk == results[backend], f"{backend} diverged"
        assert walk[0] == 29
        assert walk[1] == ["visited ###", "total 29"]

    def test_incremental_program_matches_clean_program(self, tmp_path):
        # The program materialized from a warm cache must behave
        # identically to a cleanly compiled one, on every backend.
        from repro.modules import MemorySources, ModuleBuilder

        def build(cache_dir):
            builder = ModuleBuilder(MemorySources(MODULE_PROGRAM),
                                    cache_dir=cache_dir)
            return builder.build(["app.Main"], need_bodies=True).program

        build(str(tmp_path))  # populate
        warm = build(str(tmp_path))  # all-reused, rematerialized
        clean = compile_modules(MODULE_PROGRAM)
        for backend in BACKENDS:
            runs = []
            for program in (warm, clean):
                interp = Interpreter(program, backend=backend)
                value = interp.run_static("Main")
                runs.append((value, interp.output,
                             interp.counters.snapshot()))
            assert runs[0] == runs[1], f"{backend}: warm != clean"

    def test_same_java_throw_across_modules(self):
        program = compile_modules(MODULE_THROWING)
        thrown = {}
        for backend in BACKENDS:
            interp = Interpreter(program, backend=backend)
            with pytest.raises(JavaThrow) as exc:
                interp.run_static("Main")
            thrown[backend] = exc.value.value.class_type.name
        for backend in BACKENDS[1:]:
            assert thrown["walk"] == thrown[backend]
        assert thrown["walk"] == "java.lang.ArrayIndexOutOfBoundsException"


# ---------------------------------------------------------------------------
# Sealed programs: members are final once a program runs
# ---------------------------------------------------------------------------


class TestSealedPrograms:
    SRC = """
        class Demo {
            static int helper(int n) { return n + 1; }
            static int main() { return Demo.helper(41); }
        }
    """

    def test_a_fresh_session_compiles_no_new_plan(self):
        program = compile_source(self.SRC)
        assert Interpreter(program, backend="pycode").run_static("Demo") == 42
        compiled = _codegen_counts().get("compiled", 0)
        CompileEnv.fresh_session()  # declares every builtin's members
        assert Interpreter(program, backend="pycode").run_static("Demo") == 42
        assert _codegen_counts().get("compiled", 0) == compiled

    def test_mutators_raise_on_a_sealed_class(self):
        program = compile_source(self.SRC)
        Interpreter(program).run_static("Demo")
        klass = program.class_named("Demo").type
        [helper] = klass.methods["helper"]
        builtin = program.env.registry.require("java.lang.String")
        for sealed in (klass, builtin):
            with pytest.raises(TypeError_, match="members are final"):
                sealed.declare_method("extra", (), INT)
            with pytest.raises(TypeError_, match="members are final"):
                sealed.declare_field("extra", INT)
        with pytest.raises(TypeError_, match="members are final"):
            klass.remove_method(helper)
        assert klass.methods["helper"] == [helper]
        assert "extra" not in klass.fields
        # The same class in a session that has not run stays open.
        other = compile_source(self.SRC).class_named("Demo").type
        added = other.declare_method("extra", (), INT)
        other.declare_field("extra", INT)
        other.remove_method(added)
        assert not other.sealed and klass.sealed
