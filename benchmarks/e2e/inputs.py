"""Seeded inputs for the workloads, and the Python oracles that check
the compiler's answers without using the compiler.

Every generator takes a ``random.Random`` seeded from ``--seed``.  The
seed picks constants, orders and edit targets; apart from the depth of
a few ``modules_edit`` edits (see :class:`EditPlan`) it never changes
how much work an input is, so runs on different seeds measure the same
load.  Each oracle recomputes a program's result in Python with Java's
32-bit ``int`` arithmetic.
"""

from __future__ import annotations

import random


def i32(value: int) -> int:
    """Java ``int`` wrap-around."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def jrem(a: int, b: int) -> int:
    """Java ``%``: the remainder takes the sign of the dividend."""
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


# -- run_hot: the four E14 programs --------------------------------------

#: Iteration counts sizing each program to about 120 ms on the ``walk``
#: backend on a 2-CPU x86-64 host.  Constants keep every intermediate
#: value inside the ``int`` range: the interpreter does not wrap on
#: overflow yet, and a workload must not fail on a known defect.
LOOP_N, CALL_N, FIELD_N, DISPATCH_N = 11000, 4000, 8000, 1600


#: How often the loop program takes its costlier branch; fixed, so the
#: seed changes its constants but not its work.
LOOP_STEP = 3


def _loop(rng):
    scale, drop = rng.randint(1, 9), rng.randint(1, 50)
    source = f"""
class Demo {{
    static int main() {{
        int total = 0;
        for (int i = 0; i < {LOOP_N}; i++) {{
            if (i % {LOOP_STEP} == 0) {{ total += i * {scale}; }}
            else {{ total -= {drop}; }}
        }}
        return total;
    }}
}}
"""
    total = 0
    for i in range(LOOP_N):
        total = i32(total + i32(i * scale)) if i % LOOP_STEP == 0 \
            else i32(total - drop)
    return source, total


def _call(rng):
    small, large, modulus = rng.randint(1, 9), rng.randint(10, 99), \
        rng.randint(3, 17)
    source = f"""
class Adder {{
    int bump(int x) {{ return x + {small}; }}
}}
class Doubler extends Adder {{
    int bump(int x) {{ return x + {large}; }}
}}
class Demo {{
    static int main() {{
        Adder a = new Adder();
        Adder b = new Doubler();
        int total = 0;
        for (int i = 0; i < {CALL_N}; i++) {{
            total += a.bump(i) + b.bump(total % {modulus});
        }}
        return total;
    }}
}}
"""
    total = 0
    for i in range(CALL_N):
        total = i32(total + i32(i32(i + small)
                                + i32(jrem(total, modulus) + large)))
    return source, total


def _field(rng):
    scale, modulus = rng.randint(1, 9), rng.randint(50, 150)
    source = f"""
class Cell {{
    int value;
    Cell next;
}}
class Demo {{
    static int main() {{
        Cell head = new Cell();
        head.next = new Cell();
        head.next.next = head;
        Cell cursor = head;
        int total = 0;
        for (int i = 0; i < {FIELD_N}; i++) {{
            cursor.value = cursor.value + i * {scale};
            total += cursor.value % {modulus};
            cursor = cursor.next;
        }}
        return total;
    }}
}}
"""
    cells, total = [0, 0], 0
    for i in range(FIELD_N):
        cell = i % 2
        cells[cell] = i32(cells[cell] + i32(i * scale))
        total = i32(total + jrem(cells[cell], modulus))
    return source, total


def _dispatch(rng):
    base, mid, leaf = (rng.randint(0, 9) for _ in range(3))
    source = f"""
use multijava.MultiJava;
class C {{ }}
class D extends C {{ }}
class E extends D {{ }}
class Host {{
    int m(C c) {{ return {base}; }}
    int m(C@D c) {{ return {mid}; }}
    int m(C@E c) {{ return {leaf}; }}
}}
class Demo {{
    static int main() {{
        Host h = new Host();
        C c = new C();
        C d = new D();
        C e = new E();
        int total = 0;
        for (int i = 0; i < {DISPATCH_N}; i++) {{
            total += h.m(c) + h.m(d) + h.m(e);
        }}
        return total;
    }}
}}
"""
    return source, i32(DISPATCH_N * (base + mid + leaf))


def run_programs(rng: random.Random):
    """``[(name, source, multijava, expected main() value)]``."""
    programs = []
    for name, make in (("loop", _loop), ("call", _call),
                       ("field", _field), ("dispatch", _dispatch)):
        source, value = make(rng)
        programs.append((name, source, name == "dispatch", value))
    return programs


# -- daemon_mix: single-file compile requests ----------------------------

class RequestStream:
    """The daemon traffic: 80% unique compiles (alternately with a
    ForEach ``use`` inside ``main`` and plain; 1-8 helper methods each)
    and 20% exact repeats of a recent unique request.

    The mix is stratified so that every run sees the same shares
    whatever the seed: one repeat in each block of five requests, and
    helper counts dealt from a shuffled deck of 1..8.  Repeats are drawn
    from the last :attr:`WINDOW` unique requests, at least :attr:`GAP`
    back, so they stay within the daemon's artifact cache and their
    first answer has usually arrived.
    """

    WINDOW = 64
    GAP = 4

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._uniques = []
        self._slots = []
        self._helpers = []

    def next(self):
        """``(key, filename, source, class name, is_repeat)``."""
        rng = self._rng
        if not self._slots:
            self._slots = [True] + [False] * 4
            rng.shuffle(self._slots)
        if self._slots.pop() and len(self._uniques) > self.GAP:
            recent = self._uniques[-self.WINDOW:-self.GAP]
            return rng.choice(recent) + (True,)
        if not self._helpers:
            self._helpers = list(range(1, 9))
            rng.shuffle(self._helpers)
        uid = len(self._uniques)
        request = (uid, f"Gen{uid}.maya",
                   *daemon_source(uid, self._helpers.pop(), uid % 2 == 0,
                                  rng))
        self._uniques.append(request)
        return request + (False,)


def daemon_source(uid: int, helpers: int, foreach: bool,
                  rng: random.Random):
    """``(source, class name)`` of one unique compile request."""
    name = f"Gen{uid}"
    methods = "\n".join(
        f"    static int h{k}(int n) {{\n"
        f"        int total = {rng.randint(0, 99)};\n"
        f"        for (int i = 0; i < n; i++) {{\n"
        f"            if (i % {rng.randint(2, 9)} == 0) {{ total += i; }}\n"
        f"            else {{ total -= {k}; }}\n"
        f"        }}\n"
        f"        return total;\n"
        f"    }}" for k in range(helpers))
    body = (f"        use maya.util.ForEach;\n"
            f"        Vector items = new Vector();\n"
            f"        items.addElement(\"item {uid}\");\n"
            f"        items.addElement(\"done\");\n"
            f"        items.elements().foreach(String line) {{\n"
            f"            System.out.println(line);\n"
            f"        }}\n") if foreach else ""
    source = (f"import java.util.*;\n\nclass {name} {{\n{methods}\n"
              f"    static void main() {{\n{body}"
              f"        System.out.println({name}.h0(5));\n"
              f"    }}\n}}\n")
    return source, name


# -- modules_edit: the 22-module layered project ---------------------------

LAYERS, WIDTH = 7, 3
MAIN = "app.Main"
#: Helper methods per library module: compile work, never called.
HELPERS = 12


def lib(layer: int, slot: int) -> str:
    return f"lib.L{layer}x{slot}"


def module_names():
    return [lib(layer, slot) for layer in range(LAYERS)
            for slot in range(WIDTH)] + [MAIN]


def _layer_of(name: str) -> int:
    return LAYERS if name == MAIN else int(name[5:name.index("x")])


def deps_of(name: str):
    layer = _layer_of(name)
    return [lib(layer - 1, slot) for slot in range(WIDTH)] if layer else []


def rebuilt_by_edit(name: str) -> set:
    """The edited module and everything that imports it transitively:
    every layer above imports every module of the layer below."""
    layer = _layer_of(name)
    return {name} | {m for m in module_names() if _layer_of(m) > layer}


def module_source(name: str, constant: int) -> str:
    """One module of the project: each library module imports every
    module of the layer below and adds their ``value()``s to its own
    constant; ``app.Main`` prints the top layer's sum plus its own."""
    imports = "".join(f"import {dep};\n" for dep in deps_of(name))
    terms = " + ".join([str(constant)] + [f"{dep[4:]}.value()"
                                           for dep in deps_of(name)])
    if name == MAIN:
        return (f"{imports}class Main {{ static void main() "
                f"{{ System.out.println({terms}); }} }}\n")
    simple = name[4:]
    helpers = "\n".join(
        f"    static int h{k}(int n) {{\n"
        f"        int total = 0;\n"
        f"        for (int i = 0; i < n; i++) {{\n"
        f"            if (i % {k + 2} == 0) {{ total += i; }}\n"
        f"            else {{ total -= {k}; }}\n"
        f"        }}\n"
        f"        return total;\n"
        f"    }}" for k in range(HELPERS))
    return (f"{imports}class {simple} {{\n{helpers}\n"
            f"    static int value() {{ return {terms}; }}\n}}\n")


def project_output(constants: dict) -> list:
    """The lines ``app.Main`` prints."""
    values = {}
    for name in module_names():
        values[name] = i32(constants[name]
                           + sum(values[dep] for dep in deps_of(name)))
    return [str(values[MAIN])]


class EditPlan:
    """Edits in blocks of ten: six to ``app.Main``, three to a
    top-layer module and one to any module, shuffled within a block.
    An edit gives the module a new constant.

    The cost of an edit grows with the number of modules above it, so
    the "any module" edit takes its layer from a shuffled deck: one
    layer of each pair 0-1, 2-3 and 4-5, and the top library layer.
    Every four blocks then make the same number of edits of each kind,
    and two seeds' deep cones differ by at most one layer each.
    """

    BLOCK = 10

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._block = []
        self._layers = []
        self.constants = {name: rng.randint(1, 99)
                          for name in module_names()}

    def sources(self) -> dict:
        return {name: module_source(name, constant)
                for name, constant in self.constants.items()}

    def next(self) -> str:
        """Apply the next edit; returns the edited module's name."""
        rng = self._rng
        if not self._block:
            if not self._layers:
                self._layers = [rng.choice((layer, layer + 1))
                                for layer in range(0, LAYERS - 1, 2)]
                self._layers.append(LAYERS - 1)
                rng.shuffle(self._layers)
            anywhere = lib(self._layers.pop(), rng.randrange(WIDTH))
            self._block = [MAIN] * 6 \
                + [lib(LAYERS - 1, rng.randrange(WIDTH)) for _ in range(3)] \
                + [anywhere]
            rng.shuffle(self._block)
        return self.edit(self._block.pop())

    def edit(self, name: str) -> str:
        """Give module ``name`` a new constant; returns ``name``."""
        old = self.constants[name]
        while self.constants[name] == old:
            self.constants[name] = self._rng.randint(1, 99)
        return name
