"""Fresh-name generation.

Generated names contain ``$`` — unwritable in ordinary source (our
scanner accepts them only because templates and the compiler itself
mint them), so they are "guaranteed to be unique within a compilation
unit" by construction.

The counter is thread-local: ``MayaCompiler.compile_unit`` resets it
at the start of every unit (so a unit's expanded output is a pure
function of its source, on any thread and after any earlier compile),
and daemon workers compile concurrently — a process-global counter
would let one thread's reset tear another thread's unit mid-compile.
"""

from __future__ import annotations

import itertools
import threading

from repro.ast.nodes import Ident


class _Local(threading.local):
    def __init__(self):
        self.counter = itertools.count(1)


_local = _Local()


def make_id(base: str = "tmp") -> Ident:
    """A fresh identifier that cannot collide with source names."""
    return Ident(f"{base}${next(_local.counter)}")


def fresh_name(base: str) -> str:
    return f"{base}${next(_local.counter)}"


def reset_fresh_names() -> None:
    """Restart this thread's counter — the start-of-unit determinism
    point (``MayaCompiler.compile_unit`` and tests)."""
    _local.counter = itertools.count(1)


class Environment:
    """Paper-style facade: ``Environment.make_id()``."""

    make_id = staticmethod(make_id)
    makeId = staticmethod(make_id)
