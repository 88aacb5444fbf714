"""Session lifetime and isolation: nothing a compile session builds
outlives it, and no session disturbs another's running program.

Process-wide in-memory caches are content-keyed and bounded, and memos
keyed by a session's objects live on that session's registry; a
program's compiled plans live on its own methods.  So a long-running
process (mayad compiles every request in a fresh session) keeps a flat
live heap however many requests it serves.  Tier-1 runs 100 compiles
after the warm-up; set ``LEAK_COMPILES`` to run more.

A running program's classes are sealed, so building other sessions
meanwhile never recompiles its plans.  Tier-1 runs that check for 1 s;
set ``ISOLATION_SECONDS`` to run longer.
"""

import gc
import os
import threading
import time

from repro import MayaCompiler
from repro.core.env import CompileEnv
from repro.interp import Interpreter
from repro.interp import pycodegen  # noqa: F401 (registers its counters)
from repro.obs.metrics import REGISTRY

COMPILES = int(os.environ.get("LEAK_COMPILES", "100"))
ISOLATION_SECONDS = float(os.environ.get("ISOLATION_SECONDS", "1"))
#: Compiles that fill the bounded caches before the count starts.
WARMUP = 20
#: Live objects one compile may leave behind, on average.
GROWTH_BOUND = 5

#: The daemon's ``use maya.util.ForEach`` request shape: a template
#: instantiation, a grammar extension and an array type per compile.
SOURCE = """
    import java.util.*;
    class Leak%d {
        static void main(String[] args) {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.addElement("leak");
            v.elements().foreach(String s) { System.out.println(s); }
        }
    }
"""

#: A call-heavy program: 20,000 calls of a static helper per run.
CALLS = """
    class Calls {
        static int helper(int n) { return n + 1; }
        static int main() {
            int total = 0;
            for (int i = 0; i < 20000; i++) { total = Calls.helper(total); }
            return total;
        }
    }
"""


def _compile(index: int):
    env = CompileEnv.fresh_session()
    return MayaCompiler(env).configure({}).compile(SOURCE % index,
                                                   f"Leak{index}.maya")


def _compile_and_run(index: int) -> None:
    program = _compile(index)
    Interpreter(program, backend="pycode").run_static(f"Leak{index}",
                                                      args=[None])


def _growth_per_step(step) -> float:
    for index in range(WARMUP):
        step(index)
    gc.collect()
    before = len(gc.get_objects())
    for index in range(WARMUP, WARMUP + COMPILES):
        step(index)
    gc.collect()
    return (len(gc.get_objects()) - before) / COMPILES


def test_fresh_sessions_leave_the_heap_flat():
    growth = _growth_per_step(_compile)
    assert growth < GROWTH_BOUND, f"{growth:.1f} live objects per compile"


def test_fresh_sessions_that_run_leave_the_heap_flat():
    growth = _growth_per_step(_compile_and_run)
    assert growth < GROWTH_BOUND, \
        f"{growth:.1f} live objects per compile and run"


def _compiled_plans() -> int:
    family = REGISTRY.get("maya_interp_codegen_total")
    return sum(child.value for labels, child in family.samples()
               if labels == ("compiled",))


def test_building_sessions_never_recompiles_a_running_program():
    program = MayaCompiler(CompileEnv.fresh_session()).compile(
        CALLS, "Calls.maya")
    stop = threading.Event()

    def build_sessions():
        while not stop.is_set():
            CompileEnv.fresh_session()

    before = _compiled_plans()
    builder = threading.Thread(target=build_sessions)
    builder.start()
    try:
        runs = 0
        deadline = time.monotonic() + ISOLATION_SECONDS
        while runs < 2 or time.monotonic() < deadline:
            interp = Interpreter(program, backend="pycode")
            assert interp.run_static("Calls") == 20000
            runs += 1
    finally:
        stop.set()
        builder.join()
    # main and helper, each compiled once for every run.
    assert _compiled_plans() - before == 2, f"over {runs} runs"
