"""The per-module incremental build cache.

One JSON file per module name holds that module's last good build:

* ``expanded`` — its fully expanded source, the byte-exact artifact;
* ``iface`` — its classes' skeletons (:mod:`repro.types.skeleton`):
  names, supertypes and member signatures, in the record format the
  builtin library is declared in.  A compile-only hit, and a forked
  worker's dependency, installs just these into the shared registry;
* ``exports`` — its exported metaprogram names, the grammar delta
  importers replay;
* ``deep`` — the pickled stripped copy of its *checked* AST
  (:mod:`repro.modules.snapshot`).  A ``need_bodies`` hit restores it
  and re-runs only shaping, checking each method body when it is first
  called, so lexing and parsing are skipped outright.

**What keys an entry.**  ``module_key`` is a SHA-256 over the cache and
snapshot format numbers, the module's own source text, the compile
configuration the build options select, and — recursively — the keys
of its direct dependencies in import order.  A key therefore
fingerprints the whole *transitive* input cone: editing any upstream
module changes every downstream key, so exactly the downstream modules
miss (and recompile) while everything else replays from disk.  The key
covers no compiler code: a changed expander or shaper serves the old
entries until ``CACHE_FORMAT`` is bumped.

**Hygiene ladder.**  Entries live in a :class:`repro.store.Store`,
which owns the policy for crash-safe files: a SHA-256 checksum over
the whole entry, atomic writes, and quarantine of corrupt entries
(counted as ``maya_cache_events_total{cache="modules.disk",
event="corrupt"}``).  In this cache's terms:

* absent entry, or an injected I/O fault at ``cache.module.load`` or
  ``cache.module.iface`` — a plain miss; recompile, store;
* *stale* entry (another format, key mismatch after an edit) — a plain
  miss too: well-formed, just not ours; it is overwritten on store.
  A snapshot format bump is a key mismatch, so an entry whose deep
  blob the running code cannot load is rebuilt once, quietly;
* *corrupt* entry (any changed byte, truncated JSON, wrong shape, or
  skeletons that fail :func:`repro.types.skeleton.validate`, which is
  where an injected ``cache.module.iface`` corruption lands) —
  quarantined and regenerated.  A bad cache file must never take a
  build down;
* a deep artifact that fails to restore — no blob, a skeleton that
  does not unpickle or check, a body blob bad at its first call —
  quarantined the same way (:meth:`ModuleCache.discard`), after the
  module recompiles in the same build or the run stops with a located
  diagnostic.

**Import records.**  A second store under ``<cache_dir>/imports/``
keeps each module's top-level import list, so discovery lexes only the
modules whose source changed (:meth:`ModuleGraph.discover
<repro.modules.graph.ModuleGraph.discover>`).  A record holds the
SHA-256 of the source it was scanned from and each import's name
parts, on-demand flag, line and column; the display filename is
supplied again on load.  Its name carries a digest of the scanner's
own source (:func:`repro.store.code_token`), so a changed lexer never
serves stale imports.  The ladder is the same one under its own cache
label (``modules.imports``) and fault site (``cache.module.imports``):
a record of other source text is a plain miss and is overwritten after
the rescan; a corrupt one is quarantined, counted and rescanned.
Storing a record deletes the records of the same module that another
scanner wrote (counted as ``event="pruned"``), so a lexer change
leaves no dead files behind.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

from repro import faults
from repro.core.compiler import configuration
from repro.lexer import Location
from repro.modules.graph import ModuleImport
from repro.modules.snapshot import SNAPSHOT_FORMAT
from repro.store import Store, code_token
from repro.types import skeleton

#: Format 2: deep artifact (pickled checked AST).  Format 3: no
#: ``deps`` or ``grammar`` fields (nothing read them).  Format 4:
#: ``iface`` holds :mod:`repro.types.skeleton` records, the builtin
#: library's format, instead of nested dicts.
CACHE_FORMAT = 4

#: The import records' payload format.
IMPORTS_FORMAT = 1


#: Part of every import record's name, so a changed lexer never
#: serves the imports the old one found.
_scanner_token = code_token("repro.modules.graph", "repro.lexer.scanner",
                            "repro.lexer.stream", "repro.lexer.tokens")


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def options_signature(options: Dict[str, object]) -> str:
    """Canonical form of the compile configuration ``options`` select."""
    return json.dumps(configuration(options), sort_keys=True)


def module_key(name: str, source: str, options_sig: str,
               dep_keys: Sequence[Sequence[str]]) -> str:
    """The transitive content fingerprint of one module build.

    ``dep_keys`` is ``[(dep_name, dep_key), ...]`` for the *direct*
    dependencies in import order; each dep key already covers its own
    cone, so recursion bottoms out at leaf modules.
    """
    digest = hashlib.sha256()
    digest.update(f"maya-module/{CACHE_FORMAT}/{SNAPSHOT_FORMAT}\x00"
                  .encode("utf-8"))
    digest.update(options_sig.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    for dep_name, dep_key in dep_keys:
        digest.update(b"\x00")
        digest.update(dep_name.encode("utf-8"))
        digest.update(b"=")
        digest.update(dep_key.encode("utf-8"))
    return digest.hexdigest()


class ModuleEntry:
    """One cached module build."""

    __slots__ = ("name", "key", "expanded", "iface", "exports", "deep")

    def __init__(self, name: str, key: str, expanded: str,
                 iface: List[list], exports: List[str],
                 deep: Optional[bytes] = None):
        self.name = name
        self.key = key
        #: The byte-exact artifact: the module's expanded plain-Java
        #: source, exactly what a clean build would have produced.
        self.expanded = expanded
        #: Class skeletons (see :mod:`repro.types.skeleton`).
        self.iface = iface
        #: Exported metaprogram names: the module's own top-level
        #: ``use`` names plus its deps' exports (the grammar delta an
        #: importer replays).
        self.exports = exports
        #: Deep artifact: pickled stripped checked AST (or None when
        #: the snapshot layer declined; a runnable hit then discards
        #: the entry and recompiles).
        self.deep = deep

    def payload(self) -> dict:
        payload = {
            "format": CACHE_FORMAT,
            "name": self.name,
            "key": self.key,
            "expanded": self.expanded,
            "iface": self.iface,
            "exports": self.exports,
        }
        if self.deep is not None:
            payload["deep"] = base64.b64encode(self.deep).decode("ascii")
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ModuleEntry":
        deep = None
        if payload.get("deep") is not None:
            deep = base64.b64decode(payload["deep"])
        entry = cls(
            name=payload["name"],
            key=payload["key"],
            expanded=payload["expanded"],
            iface=payload["iface"],
            exports=list(payload["exports"]),
            deep=deep,
        )
        if not isinstance(entry.expanded, str):
            raise ValueError("malformed module cache entry")
        return entry


class ModuleCache:
    """The on-disk store: one entry file per module name, and one
    import record per module name in the ``imports`` subdirectory."""

    def __init__(self, directory: Optional[str]):
        self._store = Store(directory, "modules.disk",
                            faults.SITE_MODULE_CACHE_LOAD)
        records = None if directory is None \
            else os.path.join(directory, "imports")
        self._imports = Store(records, "modules.imports",
                              faults.SITE_MODULE_IMPORTS)

    def __bool__(self) -> bool:
        return bool(self._store)

    @staticmethod
    def _stem(name: str) -> str:
        safe = name.replace(os.sep, ".")
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
        return f"{safe}-{digest}"

    @classmethod
    def _name(cls, name: str) -> str:
        return f"module-{cls._stem(name)}.json"

    def load(self, name: str, key: str) -> Optional[ModuleEntry]:
        """The entry for ``name`` if present and keyed ``key``."""
        def decode(data: bytes) -> Optional[ModuleEntry]:
            payload = json.loads(data.decode("utf-8"))
            if payload["format"] != CACHE_FORMAT or payload["key"] != key:
                return None  # stale (edited module, old format)
            entry = ModuleEntry.from_payload(payload)
            faults.check(faults.SITE_MODULE_IFACE)
            if faults.corrupting(faults.SITE_MODULE_IFACE):
                entry.iface = [{"truncated": True}]  # injected
            skeleton.validate(entry.iface)
            return entry

        return self._store.load(self._name(name), decode)

    def discard(self, name: str) -> None:
        """Quarantine ``name``'s entry, so its next build recompiles."""
        self._store.discard(self._name(name))

    def store(self, entry: ModuleEntry) -> None:
        if not self._store:
            return
        # sort_keys: identical builds write byte-identical entry files,
        # whatever thread or process produced them — the jobs=1 vs
        # jobs=N property test diffs the cache directories directly.
        self._store.store(self._name(entry.name), json.dumps(
            entry.payload(), sort_keys=True).encode("utf-8"))

    # -- import records ------------------------------------------------
    #
    # Not routed through :meth:`load` / :meth:`store`: a record is
    # discovery's work, and profilers that wrap those two charge their
    # time to the module entries.

    @classmethod
    def _imports_prefix(cls, name: str) -> str:
        return f"imports-{cls._stem(name)}-"

    @classmethod
    def _imports_name(cls, name: str) -> str:
        return f"{cls._imports_prefix(name)}{_scanner_token()}.json"

    def load_imports(self, name: str, source: str, filename: str
                     ) -> Optional[List[ModuleImport]]:
        """``name``'s recorded imports if the record was scanned from
        ``source``, located in ``filename``; None on a miss."""
        def decode(data: bytes) -> Optional[List[ModuleImport]]:
            payload = json.loads(data.decode("utf-8"))
            if payload["format"] != IMPORTS_FORMAT \
                    or payload["source"] != _source_digest(source):
                return None  # scanned from other text: stale
            imports = []
            for parts, on_demand, line, column in payload["imports"]:
                if not (isinstance(parts, list) and parts
                        and all(isinstance(p, str) for p in parts)
                        and isinstance(on_demand, bool)
                        and isinstance(line, int)
                        and isinstance(column, int)):
                    raise ValueError("malformed import record")
                imports.append(ModuleImport(
                    tuple(parts), on_demand,
                    Location(filename, line, column)))
            return imports

        return self._imports.load(self._imports_name(name), decode)

    def store_imports(self, name: str, source: str,
                      imports: Sequence[ModuleImport]) -> None:
        """Record ``imports`` as what ``source`` scans to, and delete
        ``name``'s records that another scanner wrote."""
        if not self._imports:
            return
        record = self._imports_name(name)
        self._imports.store(record, json.dumps({
            "format": IMPORTS_FORMAT,
            "source": _source_digest(source),
            "imports": [[list(imp.parts), imp.on_demand,
                         imp.location.line, imp.location.column]
                        for imp in imports],
        }, sort_keys=True).encode("utf-8"))
        self._imports.prune(self._imports_prefix(name), keep=record)
