"""The shape of the pycode backend's generated source on typed programs.

Loop, virtual-call, field and MultiJava-dispatch programs where every
operand has a static type must compile to inline operations: no generic
operator (``_bop(``), no interpreter call for an instance field store
(``interp._write_field(``), and no runtime-type lookup
(``interp._runtime_type(``), neither in the source nor, for the
dispatch program's type tests, at run time.  A step-limit trip anywhere
inside their loops must leave the same counter snapshot on both tiers.
"""

import pytest

from repro.interp import Interpreter, JavaThrow, StepLimitExceeded
from repro.interp import interp as interp_module
from repro.interp import pycodegen
from tests.conftest import compile_source

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
    assert "// 3" in main and "// 100003" in main
    assert "ArithmeticException" not in main
    assert "abs(3)" not in main


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
