"""The per-module incremental build cache.

One entry per module name holds that module's last good build, a
plain dict pickled by the store's codec (:func:`repro.store.encode`):

* ``expanded`` — its fully expanded source, the byte-exact artifact;
* ``iface`` — its classes' skeletons (:mod:`repro.types.skeleton`):
  names, supertypes and member signatures, in the record format the
  builtin library is declared in.  A compile-only hit, and a forked
  worker's dependency, installs just these into the shared registry;
* ``exports`` — its exported metaprogram names, the grammar delta
  importers replay;
* ``deep`` — the pickled stripped copy of its *checked* AST
  (:mod:`repro.modules.snapshot`), raw bytes, or None where the
  snapshot declined.  A ``need_bodies`` hit restores it
  and re-runs only shaping, checking each method body when it is first
  called, so lexing and parsing are skipped outright;
* ``imports`` — its top-level imports as ``[parts, on_demand, line,
  column]`` records, scanned from the text whose SHA-256 is ``source``
  by the scanner whose code digest is ``scanner``.  While both match,
  discovery reuses them instead of lexing.

**What keys an entry.**  ``module_key`` is a SHA-256 over the cache and
snapshot format numbers, the scanner token, the module's own source
text, the compile configuration the build options select, and —
recursively — the keys of its direct dependencies in import order.  A
key therefore fingerprints the whole *transitive* input cone: editing
any upstream module changes every downstream key, so exactly the
downstream modules miss (and recompile) while everything else replays
from disk.  Of the compiler's code the key covers only the scanner: a
changed expander or shaper serves the old entries until
``CACHE_FORMAT`` is bumped.

**One read per module.**  Discovery reads each entry by name and
leaves it on the module's ``ModuleInfo``; the builder reuses it only if
its key matches (:meth:`ModuleCache.reuse`), and only then validates
the skeletons.

**Hygiene ladder.**  Entries live in a :class:`repro.store.Store`,
which owns the policy for crash-safe files: a SHA-256 checksum over
the whole entry, atomic writes, and quarantine of corrupt entries
(counted as ``maya_cache_events_total{cache="modules.disk",
event="corrupt"}``).  A build counts one hit (an entry reused) or miss
per module.  In this cache's terms:

* absent entry, or an injected I/O fault at ``cache.module.load`` or
  ``cache.module.iface`` — a plain miss; rescan, recompile, store;
* *stale* entry (another format, source or key) — a plain miss too:
  well-formed, just not ours; it is overwritten on store.  A snapshot
  format bump is a key mismatch, so an entry whose deep blob the
  running code cannot load is rebuilt once, quietly;
* *corrupt* entry (any changed byte, a truncated pickle, a global the
  codec does not allow, wrong shape, or
  skeletons that fail :func:`repro.types.skeleton.validate`, which is
  where an injected ``cache.module.iface`` corruption lands) —
  quarantined and regenerated.  A bad cache file must never take a
  build down;
* a deep artifact that fails to restore — no blob, a skeleton that
  does not unpickle or check, a body blob bad at its first call —
  quarantined the same way (:meth:`ModuleCache.discard`), after the
  module recompiles in the same build or the run stops with a located
  diagnostic.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

from repro import faults
from repro.core.compiler import configuration
from repro.lexer import Location
from repro.modules.graph import ModuleImport
from repro.modules.snapshot import SNAPSHOT_FORMAT
from repro.store import Store, code_token, decode, encode
from repro.types import skeleton

#: Format 2: deep artifact (pickled checked AST).  Format 3: no
#: ``deps`` or ``grammar`` fields (nothing read them).  Format 4:
#: ``iface`` holds :mod:`repro.types.skeleton` records, the builtin
#: library's format, instead of nested dicts.  Format 5: the entry
#: records the module's imports, source digest and scanner token.
#: Format 6: a pickled dict (``repro.store``'s codec), not JSON.
CACHE_FORMAT = 6


#: In every entry and every key: a changed lexer serves nothing the
#: old one made.
_scanner_token = code_token("repro.modules.graph", "repro.lexer.scanner",
                            "repro.lexer.stream", "repro.lexer.tokens")


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def import_records(imports: Sequence[ModuleImport]) -> List[list]:
    """``imports`` as an entry records them."""
    return [[list(imp.parts), imp.on_demand,
             imp.location.line, imp.location.column] for imp in imports]


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
    digest.update(f"maya-module/{CACHE_FORMAT}/{SNAPSHOT_FORMAT}/"
                  f"{_scanner_token()}\x00".encode("utf-8"))
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


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _import_record(record) -> bool:
    return (isinstance(record, list) and len(record) == 4
            and _strings(record[0]) and bool(record[0])
            and isinstance(record[1], bool)
            and all(isinstance(n, int) for n in record[2:]))


class ModuleEntry:
    """One cached module build."""

    __slots__ = ("name", "key", "expanded", "iface", "exports", "deep",
                 "imports", "source", "scanner")

    def __init__(self, name: str, key: str, expanded: str,
                 iface: List[list], exports: List[str],
                 deep: Optional[bytes] = None,
                 imports: Sequence[list] = (), source: str = "",
                 scanner: Optional[str] = None):
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
        #: Deep artifact: pickled stripped checked AST, or None when
        #: the snapshot layer declined (a runnable hit then recompiles).
        self.deep = deep
        #: Top-level imports (:func:`import_records`), scanned from the
        #: source whose SHA-256 is ``source`` by scanner ``scanner``.
        self.imports = list(imports)
        self.source = source
        self.scanner = _scanner_token() if scanner is None else scanner

    def scanned_imports(self, source: str, filename: str
                        ) -> Optional[List[ModuleImport]]:
        """The recorded imports, located in ``filename``, if this
        scanner scanned them from ``source``; None otherwise."""
        if self.scanner != _scanner_token() \
                or self.source != source_digest(source):
            return None
        return [ModuleImport(tuple(parts), on_demand,
                             Location(filename, line, column))
                for parts, on_demand, line, column in self.imports]

    def payload(self) -> dict:
        return {"format": CACHE_FORMAT,
                **{field: getattr(self, field) for field in self.__slots__}}

    @classmethod
    def from_payload(cls, payload: dict) -> "ModuleEntry":
        """The entry ``payload`` holds; ``ValueError`` unless it has
        this format's shape (skeletons are checked on reuse, the blob
        when it is restored)."""
        entry = cls(**{field: payload[field] for field in cls.__slots__})
        if not (_strings([entry.name, entry.key, entry.expanded,
                          entry.source, entry.scanner])
                and isinstance(entry.deep, (bytes, type(None)))
                and _strings(payload["exports"])
                and isinstance(payload["imports"], list)
                and all(map(_import_record, entry.imports))):
            raise ValueError("malformed module cache entry")
        return entry


class ModuleCache:
    """The on-disk store: one entry file per module name."""

    def __init__(self, directory: Optional[str]):
        self._store = Store(directory, "modules.disk",
                            faults.SITE_MODULE_CACHE_LOAD)

    def __bool__(self) -> bool:
        return bool(self._store)

    @staticmethod
    def _name(name: str) -> str:
        safe = name.replace(os.sep, ".")
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
        return f"module-{safe}-{digest}.pickle"

    def load(self, name: str) -> Optional[ModuleEntry]:
        """``name``'s last stored entry, whatever its key, or None (a
        miss, counted here; an entry is counted by :meth:`reuse`)."""
        def entry(data: bytes) -> Optional[ModuleEntry]:
            payload = decode(data)
            if payload["format"] != CACHE_FORMAT:
                return None  # stale: another format's entry
            return ModuleEntry.from_payload(payload)

        return self._store.load(self._name(name), entry)

    def reuse(self, name: str, key: str,
              entry: Optional[ModuleEntry]) -> Optional[ModuleEntry]:
        """``entry``, as :meth:`load` gave it for ``name``, if it is
        keyed ``key`` and its skeletons validate, counting the verdict;
        bad skeletons are quarantined."""
        if entry is None:
            return None  # counted when loaded
        hit = False
        try:
            if entry.key == key:  # else stale: an edit here or upstream
                faults.check(faults.SITE_MODULE_IFACE)
                if faults.corrupting(faults.SITE_MODULE_IFACE):
                    entry.iface = [{"truncated": True}]  # injected
                skeleton.validate(entry.iface)
                hit = True
        except faults.InjectedFault:
            pass  # a plain miss
        except Exception:
            self.discard(name)
        self._store.count(hit)
        return entry if hit else None

    def discard(self, name: str) -> None:
        """Quarantine ``name``'s entry, so its next build recompiles."""
        self._store.discard(self._name(name))

    def store(self, entry: ModuleEntry) -> None:
        if not self._store:
            return
        # Identical builds write byte-identical entry files, whatever
        # process made them: the jobs=1 vs jobs=N property test diffs
        # the cache directories directly.
        self._store.store(self._name(entry.name), encode(entry.payload()))
