"""The shape of the pycode backend's generated source on typed programs.

Loop, virtual-call, field and MultiJava-dispatch programs where every
operand has a static type must compile to inline operations: no generic
operator (``_bop(``), no interpreter call for an instance field store
(``interp._write_field(``), and no runtime-type lookup
(``interp._runtime_type(``), neither in the source nor, for the
dispatch program's type tests, at run time.  A step-limit trip anywhere
inside their loops must leave the same counter snapshot on both tiers.
"""

import re

import pytest

from repro.interp import Interpreter, JavaThrow, StepLimitExceeded
from repro.interp import interp as interp_module
from repro.interp import pycodegen
from tests.conftest import compile_source, cyclic_garbage

LOOP = """
class Demo {
    static int main() {
        int total = 0;
        for (int i = 0; i < 300; i++) {
            if (i % 3 == 0) { total += i * 7; }
            else { total -= 11; }
            total ^= i & 5;
            total |= i << 2;
            total %= 100003;
        }
        return total;
    }
}
"""

CALL = """
class Adder {
    int bump(int x) { return x + 3; }
}
class Doubler extends Adder {
    int bump(int x) { return x + 30; }
}
class Demo {
    static int main() {
        Adder a = new Adder();
        Adder b = new Doubler();
        int total = 0;
        for (int i = 0; i < 200; i++) {
            total += a.bump(i) + b.bump(total % 13);
        }
        return total;
    }
}
"""

FIELD = """
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
        for (int i = 0; i < 300; i++) {
            cursor.value = cursor.value + i * 5;
            cursor.next.value += 1;
            total += cursor.value % 97;
            cursor = cursor.next;
        }
        return total;
    }
}
"""

DISPATCH = """
use multijava.MultiJava;
class C { }
class D extends C { }
class E extends D { }
class Host {
    int m(C c) { return 1; }
    int m(C@D c) { return 2; }
    int m(C@E c) { return 4; }
}
class Demo {
    static int main() {
        Host h = new Host();
        C c = new C();
        C d = new D();
        C e = new E();
        int total = 0;
        for (int i = 0; i < 100; i++) {
            total += h.m(c) + h.m(d) + h.m(e);
        }
        return total;
    }
}
"""

PROGRAMS = {"loop": (LOOP, False), "call": (CALL, False),
            "field": (FIELD, False), "dispatch": (DISPATCH, True)}

#: Generic fallbacks that must not appear in typed generated code.
GENERIC = ("_bop(", "interp._write_field(", "interp._runtime_type(")


def generated_sources(program):
    interp = Interpreter(program, backend="pycode")
    interp.run_static("Demo")
    sources = {}
    for compiled in program.classes.values():
        for overloads in compiled.type.methods.values():
            for method in overloads:
                plan = pycodegen.plan_for(method, interp)
                assert plan is not pycodegen.FALLBACK, \
                    pycodegen.method_label(method)
                sources[pycodegen.method_label(method)] = plan.source
    return sources


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_typed_programs_use_no_generic_helpers(name):
    source, multijava = PROGRAMS[name]
    sources = generated_sources(compile_source(source,
                                               multijava=multijava))
    assert "Demo.main()" in sources
    for label, text in sources.items():
        for helper in GENERIC:
            assert helper not in text, f"{label} calls {helper}"


def test_field_stores_are_inline():
    sources = generated_sources(compile_source(FIELD))
    main = sources["Demo.main()"]
    assert main.count(".fields['value'] = ") >= 2
    assert main.count(".fields['next'] = ") >= 2


def test_constant_divisors_skip_the_zero_check():
    main = generated_sources(compile_source(LOOP))["Demo.main()"]
    # t = a % m, then the sign fix: Java's remainder takes the
    # dividend's sign.  A local dividend is read in place, not copied.
    for m, local in ((3, "i"), (100003, "total")):
        assert re.search(rf"(_t\d+) = (v\d+_{local}) % {m}\n +"
                         rf"if \1 and \2 < 0: \1 -= {m}\n", main), m
    assert "ArithmeticException" not in main
    assert "abs(" not in main


def test_if_else_branches_carry_the_counts_so_far():
    # The loop body's block and if statements are counted in each
    # branch, together with the branch's own two: one ``_st += 4`` per
    # branch and no add before the test.
    main = generated_sources(compile_source(LOOP))["Demo.main()"]
    branches = re.search(r"\n( +)if \(_t\d+ == 0\):\n((?:\1 .*\n)+)"
                         r"\1else:\n((?:\1 .*\n)+)", main)
    assert branches, main
    for branch in branches.group(2, 3):
        assert re.findall(r"^ +_st \+= (\d+)$", branch, re.M) == ["4"]
    before = main[:branches.start()].splitlines()[-1]
    assert "_st +=" not in before, before


def test_field_loop_counts_once_per_iteration():
    # The loop body's statements, field reads and field writes cannot
    # raise except at their null guards: each counter is added once
    # per iteration, and each guard adds what is counted so far.
    main = generated_sources(compile_source(FIELD))["Demo.main()"]
    head = re.search(r"^( +)while True:\n", main, re.M)
    body = re.match(rf"(?:{head.group(1)} .*\n)+", main[head.end():])
    loop = body.group(0)
    for local in ("_st", "_fr", "_fw"):
        assert re.findall(rf"^ +{local} \+= (\d+)$", loop, re.M) == \
            [{"_st": "5", "_fr": "6", "_fw": "2"}[local]], local
    guards = re.findall(r"^ +if \w+ is None: (.*)raise ", loop, re.M)
    assert len(guards) == 8
    assert guards[0] == "_st += 2; _fr += 1; "
    assert guards[-1] == "_st += 5; _fr += 6; _fw += 2; "
    # A discarded i++ updates the local in place.
    assert re.search(r"^ +v\d+_i \+= 1$", loop, re.M)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_plans_count_in_locals_and_budgets_run_on_the_walker(name):
    source, multijava = PROGRAMS[name]
    program = compile_source(source, multijava=multijava)
    for label, text in generated_sources(program).items():
        # No per-statement registry bump and no budget test.
        assert "_ms" not in text and "_ST.value += 1" not in text, label
        # One flush per counter the method counts into its local.
        for counter in pycodegen._COUNTERS:
            local = counter.lower()
            counts = re.search(rf"^ +{local} \+= ", text, re.M)
            flush = f"{counter}.value += {local}"
            assert text.count(f"{counter}.value") == \
                text.count(flush) == (1 if counts else 0), (label, counter)
    budgeted = Interpreter(program, backend="pycode", max_steps=10 ** 9)
    for compiled in program.classes.values():
        for overloads in compiled.type.methods.values():
            for method in overloads:
                assert pycodegen.plan_for(method, budgeted) is \
                    pycodegen.FALLBACK


#: Objects only the cyclic collector frees after compiling a program
#: and running it on one interpreter per ``max_steps`` value, in
#: order: the counts from before plans counted into locals (most are
#: the session's builtin registry; the dispatch program's rest are its
#: self-guarded call sites).  A run may not add to them.
CYCLIC_GARBAGE = {
    "plain": {"call": 100, "dispatch": 208, "field": 113, "loop": 100},
    "budgeted": {"call": 100, "dispatch": 208, "field": 113, "loop": 100},
    "plain-then-budgeted":
        {"call": 100, "dispatch": 208, "field": 117, "loop": 100},
}
RUNS = {"plain": (None,), "budgeted": (10 ** 9,),
        "plain-then-budgeted": (None, 10 ** 9)}


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_runs_add_no_cyclic_garbage(name, runs):
    source, multijava = PROGRAMS[name]

    def compile_and_run():
        program = compile_source(source, multijava=multijava)
        for max_steps in RUNS[runs]:
            Interpreter(program, backend="pycode",
                        max_steps=max_steps).run_static("Demo")
        return program

    compile_and_run()  # fill the process-wide caches
    assert 0 < cyclic_garbage(compile_and_run) <= \
        CYCLIC_GARBAGE[runs][name]


def test_inline_field_store_keeps_the_null_check():
    source = """
    class Cell { int value; Cell next; }
    class Demo {
        static int main() {
            Cell head = new Cell();
            head.value = 4;
            head.next.value = 5;
            return head.value;
        }
    }
    """
    program = compile_source(source)
    thrown = {}
    for backend in ("walk", "pycode"):
        interp = Interpreter(program, backend=backend)
        with pytest.raises(JavaThrow) as exc:
            interp.run_static("Demo")
        thrown[backend] = (exc.value.value.class_type.name,
                           exc.value.value.fields.get("message"),
                           interp.counters.snapshot())
    assert thrown["walk"] == thrown["pycode"]
    assert thrown["walk"][:2] == ("java.lang.NullPointerException", "value")


def test_type_tests_skip_the_runtime_type_lookup(monkeypatch):
    calls = []
    original = interp_module.Interpreter._runtime_type

    def counted(self, value):
        calls.append(value)
        return original(self, value)

    monkeypatch.setattr(interp_module.Interpreter, "_runtime_type", counted)
    program = compile_source(DISPATCH, multijava=True)
    assert Interpreter(program, backend="pycode").run_static("Demo") == 700
    assert calls == []
    assert Interpreter(program, backend="walk").run_static("Demo") == 700
    assert calls, "the walker still goes through _runtime_type"


def _trip(program, backend, max_steps):
    interp = Interpreter(program, backend=backend, max_steps=max_steps)
    with pytest.raises(StepLimitExceeded):
        interp.run_static("Demo")
    return interp.counters.snapshot()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_step_limit_trips_match_the_walker(name):
    source, multijava = PROGRAMS[name]
    program = compile_source(source, multijava=multijava)
    walk = Interpreter(program, backend="walk")
    walk.run_static("Demo")
    total = walk.counters.statements
    for max_steps in (1, 2, 5, 17, total // 3, total // 2 + 1, total - 2):
        assert _trip(program, "walk", max_steps) == \
            _trip(program, "pycode", max_steps), max_steps
