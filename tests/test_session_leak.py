"""Session lifetime: nothing a compile session builds outlives it.

Process-wide in-memory caches are content-keyed and bounded, and memos
keyed by a session's objects live on that session's registry.  So a
long-running process (mayad compiles every request in a fresh session)
keeps a flat live heap however many requests it serves.  Tier-1 runs
100 compiles after the warm-up; set ``LEAK_COMPILES`` to run more.
"""

import gc
import os

from repro import MayaCompiler
from repro.core.env import CompileEnv

COMPILES = int(os.environ.get("LEAK_COMPILES", "100"))
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


def _compile(index: int) -> None:
    env = CompileEnv.fresh_session()
    MayaCompiler(env).configure({}).compile(SOURCE % index,
                                            f"Leak{index}.maya")


def test_fresh_sessions_leave_the_heap_flat():
    for index in range(WARMUP):
        _compile(index)
    gc.collect()
    before = len(gc.get_objects())
    for index in range(WARMUP, WARMUP + COMPILES):
        _compile(index)
    gc.collect()
    growth = (len(gc.get_objects()) - before) / COMPILES
    assert growth < GROWTH_BOUND, f"{growth:.1f} live objects per compile"
