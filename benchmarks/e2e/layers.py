"""Per-layer self times, measured from outside the compiler.

A :class:`LayerClock` replaces each layer's public entry point with a
timing wrapper.  Every thread keeps a stack of open frames: when a
wrapped call returns, its inclusive time is charged to the enclosing
frame as child time, and its layer is charged the inclusive time minus
the time of its wrapped children -- the layer's *self* time.  Self
times never overlap, so an op's wall clock minus their sum is the
unattributed remainder.

Only entry points that run a bounded number of times per compile or
per run are wrapped.  ``Dispatcher.dispatch`` runs on every parser
reduction (about 230 per millisecond of compile) and pycode's
``plan_for`` on every Java call; a wrapper there would cost more than
the work it measures.  Their activity is read from the metrics
registry as counts, and their time stays in the enclosing layer.

A wrap target that no longer exists is reported as absent; its time
then lands in the enclosing layer or in the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time


def _tables_layer(args, kwargs) -> str:
    """``ParseTables(grammar)`` generates; ``from_snapshot`` restores
    through the same constructor with a snapshot argument."""
    snapshot = kwargs.get("_snapshot", args[2] if len(args) > 2 else None)
    return "lalr.tables.restore" if snapshot is not None \
        else "lalr.tables.generate"


#: (module, attribute path, layer) for every process that compiles or
#: runs Maya code.  A layer may be a function of the call's arguments.
TARGETS = (
    ("repro.lalr.tables", "ParseTables.__init__", _tables_layer),
    ("repro.core.compiler", "stream_lex", "lexer"),
    ("repro.lalr.parser", "Parser.parse", "lalr.parser"),
    ("repro.dispatch.mayan", "Mayan.invoke", "dispatch.mayan"),
    ("repro.patterns.templates", "Template.instantiate",
     "patterns.templates"),
    ("repro.core.compiler", "check_block", "typecheck"),
    ("repro.typecheck", "check_statement", "typecheck"),
    ("repro.core.compiler", "MayaCompiler.compile_unit", "core.compiler"),
    ("repro.core.compiler", "MayaCompiler.compile_checked_unit",
     "core.compiler"),
    ("repro.macros", "install_macro_library", "macros.install"),
    ("repro.multijava", "install_multijava", "macros.install"),
    ("repro.modules.graph", "ModuleGraph.discover", "modules.graph"),
    ("repro.modules.cache", "ModuleCache.load", "modules.cache.load"),
    ("repro.modules.cache", "ModuleCache.store", "modules.cache.store"),
    ("repro.modules.build", "load_unit", "modules.snapshot.load"),
    ("repro.modules.build", "snapshot_unit", "modules.snapshot.dump"),
    ("repro.modules.build", "ModuleBuilder.build", "modules.build"),
    ("repro.interp.interp", "Interpreter.run_static", "interp.run"),
)

#: ``repro.mayac`` binds the installers at import time.
MAYAC_TARGETS = (
    ("repro.mayac", "install_macro_library", "macros.install"),
    ("repro.mayac", "install_multijava", "macros.install"),
)

#: Every layer a clock can charge, in report order.
LAYERS = (
    "process.main", "macros.install", "lalr.tables.generate",
    "lalr.tables.restore", "lexer", "lalr.parser", "dispatch.mayan",
    "patterns.templates", "typecheck", "core.compiler", "modules.graph",
    "modules.cache.load", "modules.cache.store", "modules.snapshot.load",
    "modules.snapshot.dump", "modules.build", "interp.run",
)

#: Registry counter families read as per-op counts (label sums).
REGISTRY_FAMILIES = {
    "dispatch.reductions": "maya_dispatch_reductions_total",
    "interp.ops": "maya_interp_ops_total",
    "interp.codegen": "maya_interp_codegen_total",
    "modules.compiled": "maya_modules_compiled_total",
    "modules.reused": "maya_modules_reused_total",
}


def registry_counts() -> dict:
    """Current totals of :data:`REGISTRY_FAMILIES` in this process."""
    from repro.obs.metrics import REGISTRY

    counts = {}
    for key, name in REGISTRY_FAMILIES.items():
        family = REGISTRY.get(name)
        counts[key] = sum(child.value for _, child in family.samples()) \
            if family is not None else 0
    return counts


class LayerClock:
    """Self time and call count per layer, summed over all threads."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()
        self._patches = []
        #: Wrap targets that could not be found, as ``module:attr``.
        self.absent = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            # Every key exists up front, so a reader merging tables
            # from another thread never sees a dict change size.
            local.table = {name: [0.0, 0]
                           for name in LAYERS + ("lexer.tokens",)}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def timed(self, fn, layer):
        """``fn`` wrapped to charge its self time to ``layer``."""
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            stack, table = state()
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = table[name]
                entry[0] += elapsed - frame[1]
                entry[1] += 1

        return wrapper

    def _token_counter(self, scan):
        """``scan`` wrapped to count the tokens the lexer layer reads
        (module-graph discovery scans too, but is not the lexer)."""
        state = self._state

        @functools.wraps(scan)
        def wrapper(*args, **kwargs):
            tokens = scan(*args, **kwargs)
            stack, table = state()
            if stack and stack[-1][0] == "lexer":
                table["lexer.tokens"][1] += len(tokens)
            return tokens

        return wrapper

    def _patch(self, module: str, path: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module}:{path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def install(self, targets=TARGETS) -> None:
        for module, path, layer in targets:
            self._patch(module, path,
                        lambda fn, layer=layer: self.timed(fn, layer))
        self._patch("repro.lexer.stream", "scan", self._token_counter)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def totals(self) -> dict:
        """``{layer: [self seconds, calls]}`` over every thread."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (seconds, calls) in list(table.items()):
                entry = merged.setdefault(name, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
        return merged
