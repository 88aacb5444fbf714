"""Differential test of the operators: pycode against the walker.

The pycode backend emits typed Python for the operators whenever the
checker's static types allow it, and falls back to the walker's generic
``_binary_op`` otherwise.  This suite runs every compound assignment
operator over every pair of static types that JLS 15.26.2 allows among
``byte short int long float double char String``, with boundary
operands (0, +-1, MIN, MAX) and seeded ones.  Each case is one static
method::

    static T1 cN() { T1 x = A; T2 y = B; System.out.println(x OP y);
                     System.out.println(x OP B); x OP= y; return x; }

so the binary operator, with a variable and with a literal operand (a
constant divisor), shares the case with its compound form.  Both
tiers run each method on a fresh interpreter and must agree on the
return value, stdout, the operation-counter snapshot and the thrown
``JavaThrow`` (class and message).

The case count defaults to a tier-1 sized run of a few seconds; set
``OPERATOR_DIFF_CASES`` to run more (CI runs ten times as many).

Also here: fixed literal-divisor cases (pycode's constant ``/`` and
``%`` shapes) checked on both tiers against Java's truncating division,
and the floating division-by-zero regression (JLS 15.17.2-3), checked
on both tiers against the output Java prints.
"""

import os
import random
import re
import warnings

from repro.interp import Interpreter, JavaThrow
from repro.interp import pycodegen
from tests.conftest import compile_source

CASES = int(os.environ.get("OPERATOR_DIFF_CASES", "1612"))
SEED = 20020617

#: Methods per compiled program (one compile serves many cases).
BATCH = 64

NUMERIC = ("byte", "short", "int", "long", "float", "double", "char")
INTEGRAL = ("byte", "short", "int", "long", "char")

#: Per type: (MIN, -1, 0, 1, MAX) where the type has them, and a
#: generator of seeded in-range values.
BOUNDARY = {
    "byte": (-128, -1, 0, 1, 127),
    "short": (-32768, -1, 0, 1, 32767),
    "int": (-2**31, -1, 0, 1, 2**31 - 1),
    "long": (-2**63, -1, 0, 1, 2**63 - 1),
    "float": (-3.4028235e38, -1.0, 0.0, 1.0, 3.4028235e38),
    "double": (-1.7976931348623157e308, -1.0, 0.0, 1.0,
               1.7976931348623157e308),
    "char": (0, 1, 65535),
    "String": (None, "", "a", "ab"),
}
RANDOM = {
    "byte": lambda rng: rng.randint(-128, 127),
    "short": lambda rng: rng.randint(-32768, 32767),
    "int": lambda rng: rng.randint(-2**31, 2**31 - 1),
    "long": lambda rng: rng.randint(-2**63, 2**63 - 1),
    "float": lambda rng: round(rng.uniform(-1e6, 1e6), 3),
    "double": lambda rng: rng.uniform(-1e12, 1e12),
    "char": lambda rng: rng.randint(32, 126),
    "String": lambda rng: "".join(rng.choice("xyz") for _ in range(3)),
}
#: Shift counts stay small: the tiers do not mask counts yet (JLS
#: 15.19), and an unmasked count near MAX would build a huge integer.
SHIFT_COUNTS = (0, 1, 31, 32, 63)


def _pairs():
    """Every (operator, lhs type, rhs type) triple JLS 15.26.2 allows."""
    triples = []
    for lhs in NUMERIC:
        for rhs in NUMERIC:
            for op in ("+", "-", "*", "/", "%"):
                triples.append((op, lhs, rhs))
    for rhs in NUMERIC + ("String",):
        triples.append(("+", "String", rhs))
    for lhs in INTEGRAL:
        for rhs in INTEGRAL:
            for op in ("&", "|", "^", "<<", ">>", ">>>"):
                triples.append((op, lhs, rhs))
    return triples


TRIPLES = _pairs()


def literal(type_name: str, value) -> str:
    """Java source for ``value`` with static type ``type_name``."""
    if type_name == "String":
        return "null" if value is None else f'"{value}"'
    if type_name == "char":
        return f"(char) {value}"
    if type_name == "int":
        return "(-2147483647 - 1)" if value == -2**31 else str(value)
    if type_name == "long":
        return "(-9223372036854775807L - 1L)" if value == -2**63 \
            else f"{value}L"
    if type_name == "double":
        return repr(float(value))
    return f"({type_name}) ({value!r})"


def cases(count: int, seed: int):
    """``count`` seeded cases, cycling through every triple; each
    triple's first case has a zero rhs (the zero divisor)."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        op, lhs, rhs = TRIPLES[index % len(TRIPLES)]
        first = index < len(TRIPLES)
        if op in ("<<", ">>", ">>>"):
            count_value = 0 if first else rng.choice(SHIFT_COUNTS)
            y = count_value
        elif first and rhs != "String":
            y = 0
        else:
            pool = BOUNDARY[rhs] + (RANDOM[rhs](rng),)
            y = rng.choice(pool)
        x = rng.choice(BOUNDARY[lhs] + (RANDOM[lhs](rng),))
        out.append((op, lhs, rhs, literal(lhs, x), literal(rhs, y)))
    return out


def program_source(batch) -> str:
    methods = []
    for number, (op, lhs, rhs, x, y) in enumerate(batch):
        methods.append(
            f"    static {lhs} c{number}() {{\n"
            f"        {lhs} x = {x};\n"
            f"        {rhs} y = {y};\n"
            f"        System.out.println(x {op} y);\n"
            f"        System.out.println(x {op} {y});\n"
            f"        x {op}= y;\n"
            f"        return x;\n"
            f"    }}")
    return "class Demo {\n" + "\n".join(methods) + "\n}\n"


def outcome(program, backend: str, method: str):
    interp = Interpreter(program, backend=backend)
    try:
        result = ("value", repr(interp.run_static("Demo", method)))
    except JavaThrow as exc:
        thrown = exc.value
        result = ("throw", thrown.class_type.name,
                  thrown.fields.get("message"))
    return result, list(interp.output), interp.counters.snapshot()


def run_batch(batch):
    """Differences between the tiers over one batch (empty when none)."""
    program = compile_source(program_source(batch))
    fallbacks = pycodegen._CG_FALLBACK.value
    diffs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for number, case in enumerate(batch):
            name = f"c{number}"
            walk = outcome(program, "walk", name)
            pycode = outcome(program, "pycode", name)
            if walk != pycode:
                diffs.append((case, walk, pycode))
    assert pycodegen._CG_FALLBACK.value == fallbacks, \
        "pycode declined a method"
    return diffs


def test_every_triple_is_covered():
    covered = {case[:3] for case in cases(len(TRIPLES), SEED)}
    assert covered == set(TRIPLES)
    assert CASES >= len(TRIPLES)


def test_compound_and_binary_operators_match_the_walker():
    all_cases = cases(CASES, SEED)
    diffs = []
    for start in range(0, len(all_cases), BATCH):
        diffs.extend(run_batch(all_cases[start:start + BATCH]))
    assert not diffs, f"{len(diffs)} of {len(all_cases)} cases differ; " \
        f"first: {diffs[0]}"


#: Dividends and nonzero literal divisors for ``/`` and ``%``.  A
#: negative divisor is a unary minus on a literal in the AST, which the
#: codegen folds into the same constant shape.
LITERAL_DIVIDENDS = {"int": (-2**31, -7, -1, 0, 1, 7, 2**31 - 1),
                     "long": (-2**63, -7, -1, 0, 1, 7, 2**63 - 1)}
LITERAL_DIVISORS = (1, 3, 7, 147, 100003, -3, -100003)


def java_divide(op: str, x: int, d: int) -> int:
    """Java's ``x / d`` (truncating) or ``x % d`` (the dividend's
    sign), for the in-range cases above."""
    quotient = abs(x) // abs(d)
    if (x < 0) != (d < 0):
        quotient = -quotient
    return quotient if op == "/" else x - quotient * d


def test_literal_divisors_match_java():
    all_cases = [(op, t, t, literal(t, x), literal(t, d),
                  java_divide(op, x, d))
                 for t in ("int", "long") for op in ("/", "%")
                 for x in LITERAL_DIVIDENDS[t] for d in LITERAL_DIVISORS]
    for start in range(0, len(all_cases), BATCH):
        batch = all_cases[start:start + BATCH]
        program = compile_source(program_source([c[:5] for c in batch]))
        klass = program.classes["Demo"].type
        for number, (op, _, _, x, d, expected) in enumerate(batch):
            name = f"c{number}"
            walk = outcome(program, "walk", name)
            pycode = outcome(program, "pycode", name)
            assert walk == pycode, (op, x, d)
            assert pycode[:2] == (("value", repr(expected)),
                                  [str(expected)] * 2), (op, x, d)
            plan = pycodegen.plan_for(klass.methods[name][0],
                                      Interpreter(program))
            m = d.lstrip("-").rstrip("L")
            # The dividend is the local x, read in place.
            shape = rf"if (_t\d+) and v\d+_x < 0: \1 -= {m}\n" \
                if op == "%" else rf"abs\(v\d+_x\) // {m}\n"
            assert re.search(shape, plan.source), (op, x, d)


def test_typed_compound_assignment_leaves_the_generic_operator():
    # The typed cases compile to inline operators, and the cases the
    # static types leave open (char, floating / and %) stay generic.
    source = program_source([
        ("+", "int", "int", "1", "2"),
        ("<<", "long", "int", "1L", "3"),
        ("%", "int", "int", "7", "2"),
        ("+", "String", "int", '"s"', "1"),
        ("+", "int", "char", "1", "(char) 97"),
        ("/", "double", "double", "1.0", "0.0"),
    ])
    program = compile_source(source)
    interp = Interpreter(program, backend="pycode")
    klass = program.classes["Demo"].type
    generic = {}
    for number in range(6):
        method = klass.methods[f"c{number}"][0]
        plan = pycodegen.plan_for(method, interp)
        generic[number] = "_bop(" in plan.source
    assert generic == {0: False, 1: False, 2: False, 3: False,
                       4: True, 5: True}


FLOAT_DIVISION = """
class Demo {
    static void main() {
        double d = 1.0, z = 0.0;
        int i = 7;
        System.out.println(d / z);
        System.out.println(d % z);
        System.out.println(-d / z);
        System.out.println(z / z);
        System.out.println(d / -z);
        System.out.println(i / z);
        System.out.println(i % z);
        System.out.println("q=" + (d / z));
        double e = d / z;
        System.out.println(e % 2.0);
        System.out.println(5.5 % e);
        System.out.println(e - e);
        d /= z;
        System.out.println(d);
        d = -1.0;
        d %= z;
        System.out.println(d);
    }
}
"""

#: What Java prints for FLOAT_DIVISION.
FLOAT_DIVISION_JAVA = [
    "Infinity", "NaN", "-Infinity", "NaN", "-Infinity", "Infinity",
    "NaN", "q=Infinity", "NaN", "5.5", "NaN", "Infinity", "NaN",
]


def test_floating_division_by_zero_matches_java():
    program = compile_source(FLOAT_DIVISION)
    for backend in ("walk", "pycode"):
        interp = Interpreter(program, backend=backend)
        interp.run_static("Demo")
        assert interp.output == FLOAT_DIVISION_JAVA, backend


def test_integer_division_by_zero_still_throws():
    source = """
    class Demo {
        static int main() { int a = 1; int b = 0; a %= b; return a; }
    }
    """
    program = compile_source(source)
    for backend in ("walk", "pycode"):
        try:
            Interpreter(program, backend=backend).run_static("Demo")
        except JavaThrow as exc:
            assert exc.value.class_type.name == \
                "java.lang.ArithmeticException"
            assert exc.value.fields.get("message") == "% by zero"
        else:
            raise AssertionError(f"{backend}: no ArithmeticException")
