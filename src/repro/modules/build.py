"""The incremental module builder.

``ModuleBuilder.build(roots)`` walks the dependency graph and, per
module, either **recompiles** (cache miss: the module or something
upstream changed) or **reuses** (cache hit: restore the cached class
skeletons into the shared registry and take the cached expanded
artifact verbatim).  With ``jobs > 1``, ``os.fork`` available and two
or more cache misses, the misses first compile on forked worker
processes (:mod:`repro.modules.procpool`), one per miss at most, which
one thread drives over the import DAG so modules whose dependencies
have all completed compile concurrently; otherwise ``jobs`` has no
effect.  Either way, the program is assembled by the same serial walk.

Three invariants make incremental and parallel output
indistinguishable from a clean serial build — the property the test
layer hammers:

* **Keys are transitive.**  A module's cache key covers its own source,
  the build options, and its direct deps' keys (which recursively cover
  theirs), so an edit invalidates exactly the edited module and its
  transitive importers — never siblings, never upstream.
* **Per-module expansion is deterministic.**  Each recompile is one
  ``compile_unit`` (which restarts the fresh-name count) in a fresh
  grammar copy built by replaying the same export list in the same
  order, so the same module source always expands to the same bytes —
  in any process.
* **Integration is serial.**  Artifact order is a pure function of the
  graph, and everything that accumulates module outputs — the
  ``--expand`` concatenation, the report, the program's unit/class
  tables — is assembled by one walk in topological order, after any
  forked workers have finished, so the combined output never depends
  on completion order.  A fork-compiled module integrates exactly like
  a cache hit.

Grammar deltas cross module edges by *export replay*: a module exports
the metaprogram names it ``use``s at top level (plus its deps' exports,
transitively), and a recompiling importer replays those names onto its
own grammar copy before parsing — the versioned-grammar machinery then
fingerprints each module's effective grammar for the LALR table cache.
A replay that breaks the grammar (two imports exporting conflicting
Mayans) is reported *at the import site*, like every module-graph
failure mode.

**Warm hits are deep and lazy.**  A cache entry carries a pickled
stripped copy of the module's checked AST next to the expanded text
(:mod:`repro.modules.snapshot`), with each method body in a blob of
its own; materializing a hit for ``--run`` restores the skeleton,
shapes it and checks fields and constructors, skipping lexing and
parsing outright.  A method body is decoded and checked only when the
program first calls it.  A skeleton that does not restore — no blob,
an unpickle failure, a check error against restored deps — gets its
entry quarantined, and the module recompiles from its source in the
same build.  A body that fails at its first call ends the run with a
located diagnostic naming the module and the method, and its entry is
quarantined too, so the next build recompiles the module.

**Failure semantics under parallelism.**  The first module a worker
fails on halts dispatch.  That module (and anything the workers never
reached) has no cache entry, so the integration walk recompiles it in
the parent on the real diagnostic engine — the error a ``--jobs 1``
build renders, minus any sibling noise.  The one observable difference
from serial: modules *independent* of the failed one may already have
compiled (and cached) before the halt, like any ``make -j``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence

from repro import trace
from repro.ast import nodes as n
from repro.ast import to_source
from repro.core.compiler import CompiledClass, MayaCompiler
from repro.core.env import CompileEnv, MayaError
from repro.diag import DeadlineExceededError, DiagnosticError
from repro.lalr import ConflictError
from repro.lexer import Location
from repro.obs import log as obs_log
from repro.obs.metrics import REGISTRY
from repro.modules import procpool
from repro.modules.cache import (ModuleCache, ModuleEntry, import_records,
                                 module_key, options_signature,
                                 source_digest)
from repro.modules.graph import ModuleGraph, ModuleInfo, ModuleSources
from repro.modules.snapshot import load_unit, snapshot_unit
from repro.types import skeleton

_COMPILED_TOTAL = REGISTRY.counter(
    "maya_modules_compiled_total",
    "Modules fully (re)compiled by the module builder.")
_REUSED_TOTAL = REGISTRY.counter(
    "maya_modules_reused_total",
    "Modules reused from the incremental cache without recompiling.")
_DEEP_RESTORED_TOTAL = REGISTRY.counter(
    "maya_modules_deep_restored_total",
    "Warm module materializations served from the deep (checked-AST) "
    "artifact — no lexing, no parsing.")


def format_module_report(order: Sequence[str],
                         recompiled: Sequence[str]) -> str:
    """The ``--module-report`` text — one formatting function shared
    by the CLI, the daemon client, and :meth:`BuildResult.report`, so
    the jobs=1-vs-jobs=N property test pins the exact bytes users see.
    """
    recompiled_set = set(recompiled)
    lines = [f"mayac: modules: {len(order)} total, "
             f"{len(recompiled_set)} recompiled, "
             f"{len(order) - len(recompiled_set)} reused"]
    for name in order:
        word = "recompiled" if name in recompiled_set else "reused"
        lines.append(f"  {word:10} {name}")
    return "\n".join(lines)


def _restored_body_failed(cache: ModuleCache, name: str,
                          error: DiagnosticError) -> None:
    """A restored method body failed when first called: its blob does
    not decode, or it no longer checks.  The running program gets the
    located diagnostic; the entry is quarantined, so the next build of
    the same sources recompiles the module.  It holds the cache, not
    the builder, which would lead back to the program."""
    cache.discard(name)
    error.diagnostic.with_note(
        f"restored from module {name}'s cache entry, which is now "
        f"discarded: the next build recompiles {name}")


class ModuleBuild:
    """One module's outcome within a build."""

    __slots__ = ("name", "key", "expanded", "reused", "exports", "classes",
                 "entry")

    def __init__(self, name: str, key: str, expanded: str, reused: bool,
                 exports: List[str], classes: List[CompiledClass],
                 entry: Optional[ModuleEntry] = None):
        self.name = name
        self.key = key
        self.expanded = expanded
        self.reused = reused
        self.exports = exports
        self.classes = classes
        #: The cache entry this build produced or replayed (builder
        #: internal: the fork pool ships these between processes).
        self.entry = entry


class BuildResult:
    """Everything one ``build()`` produced."""

    def __init__(self, env: CompileEnv, graph: ModuleGraph,
                 builds: Dict[str, ModuleBuild], program):
        self.env = env
        self.graph = graph
        self.builds = builds
        self.program = program
        self.order = graph.order()
        self.recompiled = [m for m in self.order if not builds[m].reused]
        self.reused = [m for m in self.order if builds[m].reused]

    def expanded(self) -> str:
        """The program's combined expanded source, modules in
        topological order — byte-identical across clean, incremental,
        and parallel builds of the same sources."""
        chunks = []
        for name in self.order:
            build = self.builds[name]
            chunks.append(f"// module {name}\n{build.expanded}")
        return "\n\n".join(chunks)

    def report(self) -> str:
        """The ``--module-report`` text — a deterministic function of
        the graph and the recompiled set, so ``--jobs N`` output is
        byte-identical to serial."""
        return format_module_report(self.order, self.recompiled)


class ModuleBuilder:
    """Builds multi-module programs with incremental recompilation.

    The builder configures its own compiler from ``options``
    (:meth:`MayaCompiler.configure`) and keys its cache on the same
    mapping; ``env``, if given, carries only budgets."""

    def __init__(self, sources: ModuleSources,
                 cache_dir: Optional[str] = None,
                 options: Optional[dict] = None,
                 env: Optional[CompileEnv] = None,
                 jobs: Optional[int] = None):
        options = options or {}
        self.sources = sources
        self.cache = ModuleCache(cache_dir)
        self.env = env if env is not None else CompileEnv()
        self.compiler = MayaCompiler(self.env).configure(options)
        self.provenance = bool(options.get("provenance"))
        self._options_sig = options_signature(options)
        #: Forked workers for cache misses (1 = none).  Forking needs
        #: a single-threaded process at build start, so the
        #: multithreaded daemon always builds with 1.
        self.jobs = procpool.resolve_jobs(jobs) if jobs is not None else 1

    # -- the build loop ----------------------------------------------------

    def build(self, roots: Sequence[str],
              need_bodies: bool = False) -> BuildResult:
        """Build ``roots`` and everything they import.

        ``need_bodies`` materializes cache-hit modules (deep-restoring
        their checked ASTs) so the program is runnable;
        compile-only/``--expand`` builds skip that and
        load just the class skeletons — the cheap path the incremental
        speedup comes from.
        """
        # The build pauses the automatic collector: its program owns
        # its parts one way (every edge back is weak), so it makes no
        # cyclic garbage for a collection to find.
        with trace.collector_paused():
            graph = ModuleGraph.discover(roots, self.sources,
                                         registry=self.env.registry,
                                         diag=self.env.diag,
                                         cache=self.cache)
            order = graph.order()
            for name in order:
                info = graph.modules[name]
                dep_keys = [(dep, graph.modules[dep].key)
                            for dep in info.deps]
                info.key = module_key(name, info.source,
                                      self._options_sig, dep_keys)
            jobs = min(self.jobs, len(order))
            builds = self._build_modules(graph, order, need_bodies, jobs)
            result = BuildResult(self.env, graph, builds,
                                 self.compiler.program)
            obs_log.emit("modules.build.done",
                         modules=len(result.order),
                         recompiled=len(result.recompiled),
                         reused=len(result.reused),
                         jobs=jobs)
            return result

    def _build_modules(self, graph: ModuleGraph, order: Sequence[str],
                       need_bodies: bool,
                       jobs: int) -> Dict[str, ModuleBuild]:
        """The integration walk: every module in topological order,
        on the real diagnostic engine.

        A module with a cache entry — from the disk cache, or compiled
        just now by a forked worker — integrates through the warm-hit
        path; a fork-compiled one reports and counts as a recompile,
        since work happened this build.  A module without one (a
        miss in a serial build, or a module a worker failed on or
        never reached) recompiles here, so a failure raises the same
        error a ``--jobs 1`` build would.

        Workers are forked only for two or more misses, at most one
        per miss: a lone compile overlaps nothing, so the walk builds
        it with no fork at all.
        """
        entries: Dict[str, ModuleEntry] = {}
        for name in order:
            info = graph.modules[name]
            entry = self.cache.reuse(name, info.key, info.entry)
            info.entry = None  # judged: a stale entry is freed now
            if entry is not None:
                entries[name] = entry
        misses = [name for name in order if name not in entries]
        if jobs > 1 and len(misses) > 1 and procpool.fork_available():
            with trace.phase("module-schedule"):
                procpool.run_dag(
                    misses, {name: graph.modules[name].deps
                             for name in misses}, entries,
                    functools.partial(self._compile_forked, graph, {}),
                    jobs)
        builds: Dict[str, ModuleBuild] = {}
        for name in order:
            info = graph.modules[name]
            entry = entries.get(name)
            if entry is not None:
                builds[name] = self._reuse(info, entry, builds, need_bodies,
                                           recompiled=name in misses)
            else:
                builds[name] = self._recompile(info, builds)
        return builds

    def _compile_forked(self, graph: ModuleGraph,
                        held: Dict[str, ModuleBuild], name: str,
                        dep_entries: Dict[str, ModuleEntry]) -> ModuleEntry:
        """One job of :func:`procpool.run_dag`, run in a forked worker.

        ``held`` records the modules whose surfaces this worker's
        registry holds: ones it compiled, and deps it restored from
        their entries.  It is empty at fork, and each worker fills its
        own copy.  Restore the deps it lacks, then compile exactly as
        the serial walk would."""
        for dep, entry in dep_entries.items():
            if dep not in held:
                skeleton.install(self.env.registry, entry.iface)
                held[dep] = ModuleBuild(dep, "", "", True,
                                        list(entry.exports), [])
        build = self._recompile(graph.modules[name], held)
        held[name] = build
        return build.entry

    # -- cache hit ---------------------------------------------------------

    def _reuse(self, info: ModuleInfo, entry: ModuleEntry,
               builds: Dict[str, ModuleBuild],
               need_bodies: bool,
               recompiled: bool = False) -> ModuleBuild:
        classes: List[CompiledClass] = []
        if need_bodies:
            classes = self._materialize(info, entry)
            if classes is None:
                return self._recompile(info, builds)
        else:
            skeleton.install(self.env.registry, entry.iface)
        if recompiled:
            _COMPILED_TOTAL.inc()
        else:
            _REUSED_TOTAL.inc()
        obs_log.emit("modules.module.reused", level="debug",
                     module=info.name, materialized=need_bodies)
        return ModuleBuild(info.name, info.key, entry.expanded,
                           not recompiled, list(entry.exports), classes,
                           entry=entry)

    def _materialize(self, info: ModuleInfo, entry: ModuleEntry
                     ) -> Optional[List[CompiledClass]]:
        """Restore a warm hit's checked AST and re-run shape + check
        only, bodies left for their first call.  A skeleton that does
        not restore (no blob, an unpickle or check failure) gets the
        entry quarantined and None back: the caller recompiles."""
        if entry.deep is not None:
            try:
                compiled = self.compiler.compile_checked_unit(
                    load_unit(entry.deep), f"{info.filename}#expanded",
                    self._module_env(info), source=entry.expanded,
                    on_body_error=functools.partial(
                        _restored_body_failed, self.cache, info.name))
                _DEEP_RESTORED_TOTAL.inc()
                return compiled
            except DeadlineExceededError:
                raise  # the request's budget, not the entry's fault
            except DiagnosticError:
                pass  # quarantined below
        self.cache.discard(info.name)
        return None

    # -- cache miss --------------------------------------------------------

    def _recompile(self, info: ModuleInfo,
                   builds: Dict[str, ModuleBuild]) -> ModuleBuild:
        obs_log.emit("modules.module.recompiled", level="debug",
                     module=info.name, deps=len(info.deps))
        module_env = self._module_env(info)
        self._replay_exports(info, builds, module_env)
        sink: List = []
        self.compiler.compile_unit(info.source, info.filename,
                                   module_env, unit_sink=sink)
        unit = sink[-1]
        expanded = to_source(unit, provenance=self.provenance)
        classes = self._classes_of(unit, module_env)

        exports: List[str] = []
        for dep in info.deps:
            for export in builds[dep].exports:
                if export not in exports:
                    exports.append(export)
        for decl in unit.types:
            if isinstance(decl, n.UseDecl):
                use_name = ".".join(decl.parts)
                if use_name not in exports:
                    exports.append(use_name)

        entry = ModuleEntry(
            info.name, info.key, expanded,
            skeleton.export([c.type for c in classes]),
            exports, deep=snapshot_unit(unit, self.provenance),
            imports=import_records(info.imports),
            source=source_digest(info.source))
        _COMPILED_TOTAL.inc()
        self.cache.store(entry)
        return ModuleBuild(info.name, info.key, expanded, False,
                           exports, classes, entry=entry)

    def _classes_of(self, unit, module_env: CompileEnv
                    ) -> List[CompiledClass]:
        """This unit's compiled classes, by declaration — never by
        diffing the shared program table."""
        package = module_env.package
        classes: List[CompiledClass] = []
        for decl in unit.types:
            if not isinstance(decl, (n.ClassDecl, n.InterfaceDecl)):
                continue
            qualified = decl.name.name if not package \
                else f"{package}.{decl.name.name}"
            compiled = self.compiler.program.classes.get(qualified)
            if compiled is not None:
                classes.append(compiled)
        return classes

    # -- per-module environments -------------------------------------------

    def _module_env(self, info: ModuleInfo) -> CompileEnv:
        """A child env with its own grammar copy and import list.

        Grammar deltas a module's ``use``s (or replayed dep exports)
        apply must not leak into sibling modules; ``Grammar.copy``
        shares interned Production objects, so identity-keyed dispatch
        plans still hit across modules.
        """
        module_env = self.env.child()
        module_env.grammar = self.env.grammar.copy(f"module:{info.name}")
        module_env.imports = []
        module_env.package = info.name.rsplit(".", 1)[0] \
            if "." in info.name else ""
        return module_env

    def _replay_exports(self, info: ModuleInfo,
                        builds: Dict[str, ModuleBuild],
                        module_env: CompileEnv) -> None:
        """Apply each dependency's exported grammar delta, blaming the
        import site when a replay breaks the grammar."""
        replayed: set = set()
        for dep in info.deps:
            exports = [e for e in builds[dep].exports if e not in replayed]
            if not exports:
                continue
            try:
                for export in exports:
                    module_env.find_metaprogram(export.split(".")) \
                        .run(module_env)
                    replayed.add(export)
                # Build tables eagerly: a conflicting delta surfaces
                # here, at this import, not at first use downstream.
                module_env.tables()
            except (ConflictError, DiagnosticError) as error:
                raise MayaError(
                    f"importing module {dep!r} breaks the grammar: "
                    f"its exported syntax extensions conflict "
                    f"({error})",
                    location=self._import_location(info, dep))

    @staticmethod
    def _import_location(info: ModuleInfo, dep: str) -> Location:
        for imp in info.imports:
            if imp.name == dep:
                return imp.location
        return Location.UNKNOWN
