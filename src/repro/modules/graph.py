"""The module dependency graph.

A *module* is one ``.maya`` file named by its dotted path relative to a
module-path root: ``<root>/geometry/Shapes.maya`` is the module
``geometry.Shapes``.  A module depends on another when a top-level
single-type ``import`` names it — ``import geometry.Shapes;`` both
brings the module's classes into scope (the ordinary Java meaning the
registry already implements) and, in module mode, makes its exported
Mayans/`syntax` extensions visible to the importing file.

Dependencies are read from the lexed token stream, not a parse.  The
stream lexer collapses every ``{...}`` body into a single BraceTree
token, so scanning the *top level* for ``import <dotted name> ;``
sequences is exact — an ``import`` inside a class body cannot be
confused for a declaration.  Deciding *what* to recompile therefore
never parses anything.  With a module cache, it does not lex an
unchanged module either: each module's cache entry records its imports
(:class:`repro.modules.cache.ModuleEntry`), and discovery reads it and
leaves it on the :class:`ModuleInfo` for the builder.  Lexing a module
of ~2,500 characters costs about 1.7 ms, and lexing all 22 modules of
the benchmark project cost 44 ms of discovery per build before imports
were recorded (2-CPU x86-64 host, Python 3.11; EXPERIMENTS E18, E30).
Without a cache, discovery lexes every module.

Failure modes are located diagnostics, all pointing at the ``import``
site (the paper's diagnostics discipline): a module that imports itself
through a chain is an **import cycle**; a single-type import that
matches neither a module file nor a known builtin class is a **missing
module**.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.env import MayaError
from repro.lexer import Location, stream_lex

#: Java-ish namespaces that are never module lookups: imports under
#: these resolve against the builtin registry (or fail there), so a
#: missing file is not a missing *module*.
BUILTIN_NAMESPACES = ("java", "javax")

MODULE_SUFFIX = ".maya"


class ModuleImport:
    """One top-level import scanned from a module's token stream."""

    __slots__ = ("parts", "on_demand", "location")

    def __init__(self, parts: Tuple[str, ...], on_demand: bool,
                 location: Location):
        self.parts = parts
        self.on_demand = on_demand
        self.location = location

    @property
    def name(self) -> str:
        return ".".join(self.parts)

    def __repr__(self) -> str:
        suffix = ".*" if self.on_demand else ""
        return f"<import {self.name}{suffix}>"


def scan_imports(source: str, filename: str = "<module>") -> List[ModuleImport]:
    """Top-level ``import`` declarations, from the lexed stream only."""
    imports: List[ModuleImport] = []
    tokens = stream_lex(source, filename)
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token.kind != "import":
            index += 1
            continue
        location = token.location
        parts: List[str] = []
        on_demand = False
        index += 1
        while index < len(tokens):
            inner = tokens[index]
            if inner.kind == ";":
                break
            if inner.kind == "Identifier":
                parts.append(inner.text)
            elif inner.kind == "*":
                on_demand = True
            elif inner.kind != ".":
                break  # malformed; leave it for the parser to report
            index += 1
        if parts:
            imports.append(ModuleImport(tuple(parts), on_demand, location))
        index += 1
    return imports


class ModuleSources:
    """Where module source text comes from.

    Two providers share this interface: the filesystem module path
    (``mayac --module-path``) and an in-memory mapping (the daemon's
    multi-file compile requests ship every source in the payload).
    """

    def resolve(self, parts: Sequence[str]) -> Optional[str]:
        """Module name for ``parts`` if such a module exists."""
        raise NotImplementedError

    def load(self, name: str) -> Tuple[str, str]:
        """``(source, display_filename)`` for a known module."""
        raise NotImplementedError


class FileSystemSources(ModuleSources):
    """Modules found under one or more module-path directories."""

    def __init__(self, module_path: Sequence[str]):
        self.module_path = [os.path.abspath(p) for p in module_path]

    def _file_for(self, parts: Sequence[str]) -> Optional[Tuple[str, str]]:
        relative = os.path.join(*parts) + MODULE_SUFFIX
        for root in self.module_path:
            candidate = os.path.join(root, relative)
            if os.path.isfile(candidate):
                return candidate, relative
        return None

    def resolve(self, parts: Sequence[str]) -> Optional[str]:
        return ".".join(parts) if self._file_for(parts) else None

    def load(self, name: str) -> Tuple[str, str]:
        found = self._file_for(name.split("."))
        if found is None:
            raise MayaError(f"module {name!r} not found on the module path "
                            f"({os.pathsep.join(self.module_path) or '-'})")
        path, relative = found
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read(), relative.replace(os.sep, "/")

    def module_name_for(self, path: str) -> str:
        """Dotted module name of a root file, adding its directory to
        the module path when it lives outside every configured root (so
        ``mayac --module-path lib app/Main.maya`` just works)."""
        path = os.path.abspath(path)
        for root in self.module_path:
            if path.startswith(root + os.sep):
                relative = os.path.relpath(path, root)
                if relative.endswith(MODULE_SUFFIX):
                    return relative[:-len(MODULE_SUFFIX)] \
                        .replace(os.sep, ".")
        parent = os.path.dirname(path)
        if parent not in self.module_path:
            self.module_path.append(parent)
        base = os.path.basename(path)
        if base.endswith(MODULE_SUFFIX):
            base = base[:-len(MODULE_SUFFIX)]
        return base


class MemorySources(ModuleSources):
    """Modules from an in-memory ``{name: source}`` mapping."""

    def __init__(self, sources: Dict[str, str]):
        self.sources = dict(sources)

    def resolve(self, parts: Sequence[str]) -> Optional[str]:
        name = ".".join(parts)
        return name if name in self.sources else None

    def load(self, name: str) -> Tuple[str, str]:
        if name not in self.sources:
            raise MayaError(f"module {name!r} not in the request's sources")
        display = name.replace(".", "/") + MODULE_SUFFIX
        return self.sources[name], display


class ModuleInfo:
    """One discovered module: source, imports, and resolved deps."""

    __slots__ = ("name", "filename", "source", "imports", "deps", "key",
                 "entry")

    def __init__(self, name: str, filename: str, source: str,
                 imports: List[ModuleImport], deps: List[str],
                 entry=None):
        self.name = name
        self.filename = filename
        self.source = source
        self.imports = imports
        #: Direct dependencies, in import order (deduplicated).
        self.deps = deps
        #: Transitive cache key; stamped by the builder (needs every
        #: dep's key, so it is computed in topological order).
        self.key: Optional[str] = None
        #: The module's last cache entry, whatever its key, or None.
        self.entry = entry


class ModuleGraph:
    """The dependency DAG of one build, discovered from its roots."""

    def __init__(self, sources: ModuleSources):
        self.sources = sources
        self.modules: Dict[str, ModuleInfo] = {}
        self.roots: List[str] = []
        self._order: Optional[List[str]] = None

    # -- discovery ---------------------------------------------------------

    @classmethod
    def discover(cls, roots: Sequence[str], sources: ModuleSources,
                 registry=None, diag=None, cache=None) -> "ModuleGraph":
        """BFS the import graph from the root modules.

        ``registry`` (a TypeRegistry) distinguishes a *missing module*
        from an ordinary builtin import: ``import java.util.Vector;``
        resolves against the registry and is no module edge, while
        ``import geometry.Shapes;`` with no ``geometry/Shapes.maya``
        and no registered class is a located error.  ``diag`` (a
        DiagnosticEngine) gets every loaded source registered under its
        display filename, so the located errors render with carets.
        ``cache`` (a ModuleCache) serves the imports of each module
        whose source its entry was scanned from; the others are lexed.
        """
        graph = cls(sources)
        pending = list(roots)
        graph.roots = list(roots)
        while pending:
            name = pending.pop(0)
            if name in graph.modules:
                continue
            info = graph._scan_module(name, registry, diag, cache)
            graph.modules[name] = info
            for dep in info.deps:
                if dep not in graph.modules:
                    pending.append(dep)
        graph.order()  # rejects an import cycle
        return graph

    def _scan_module(self, name: str, registry, diag=None,
                     cache=None) -> ModuleInfo:
        source, filename = self.sources.load(name)
        if diag is not None:
            diag.add_source(filename, source)
        entry = cache.load(name) if cache else None
        imports = entry and entry.scanned_imports(source, filename)
        if imports is None:
            imports = scan_imports(source, filename)
        deps: List[str] = []
        for imp in imports:
            if imp.on_demand:
                continue  # on-demand imports are never module edges
            dep = self.sources.resolve(imp.parts)
            if dep is not None:
                if dep == name:
                    raise MayaError(
                        f"module {name!r} imports itself",
                        location=imp.location)
                if dep not in deps:
                    deps.append(dep)
                continue
            if imp.parts[0] in BUILTIN_NAMESPACES:
                continue
            if registry is not None \
                    and registry.resolve(imp.parts) is not None:
                continue  # a builtin class (e.g. maya.util.Vector)
            raise MayaError(
                f"cannot find module {imp.name!r}: no module file and no "
                f"builtin class by that name", location=imp.location)
        return ModuleInfo(name, filename, source, imports, deps, entry)

    # -- ordering ----------------------------------------------------------

    def order(self) -> List[str]:
        """Deterministic topological order (dependencies first).

        DFS postorder from the roots, deps visited in import order —
        a pure function of the graph, so a clean build and an
        incremental rebuild emit per-module artifacts identically
        ordered (byte-identical combined ``--expand`` output).  The
        same walk rejects cyclic imports, with a diagnostic at the
        closing edge; :meth:`discover` takes the order first, so a
        discovered graph is acyclic.
        """
        if self._order is None:
            order: List[str] = []
            done: set = set()
            stack: List[str] = []
            for root in self.roots:
                self._visit(root, done, stack, order)
            self._order = order
        return self._order

    def _visit(self, name: str, done: set, stack: List[str],
               order: List[str]) -> None:
        # A method, not a closure: a recursive closure refers to itself
        # through its cell, a cycle only the cyclic collector frees.
        if name in done:
            return
        if name in stack:
            cycle = stack[stack.index(name):] + [name]
            importer = self.modules[stack[-1]]
            location = Location.UNKNOWN
            for imp in importer.imports:
                if ".".join(imp.parts) == name:
                    location = imp.location
                    break
            raise MayaError(
                "import cycle: " + " -> ".join(cycle),
                location=location)
        stack.append(name)
        for dep in self.modules[name].deps:
            self._visit(dep, done, stack, order)
        stack.pop()
        done.add(name)
        order.append(name)

    def dependents_of(self, name: str) -> List[str]:
        """Every module downstream of ``name`` (transitive importers)."""
        downstream: set = {name}
        changed = True
        while changed:
            changed = False
            for info in self.modules.values():
                if info.name in downstream:
                    continue
                if any(dep in downstream for dep in info.deps):
                    downstream.add(info.name)
                    changed = True
        downstream.discard(name)
        return sorted(downstream)
