"""The per-module incremental build cache.

One JSON file per module name holds that module's last good build:
its fully expanded source (the byte-exact artifact), its exported
interface (class skeletons downstream modules shape against), its
exported metaprogram names (the grammar delta importers replay), and —
since format 2 — the **deep artifact**: a pickled stripped copy of the
module's *checked* AST (see :mod:`repro.modules.snapshot`) plus the
fingerprint token of the effective grammar the module was parsed under
(base grammar + its replayed export delta).  A warm ``need_bodies`` hit
restores the deep artifact and re-runs only shaping + checking —
skipping lexing and parsing outright — instead of recompiling the
expanded source from text.

**What keys an entry.**  ``module_key`` is a SHA-256 over the cache and
snapshot format numbers, the module's own source text, the
output-affecting build options, and — recursively — the keys of its
direct dependencies in import order.  A key therefore
fingerprints the whole *transitive* input cone: editing any upstream
module changes every downstream key, so exactly the downstream modules
miss (and recompile) while everything else replays from disk.  This is
the same content-addressing discipline as the LALR table cache's
``GrammarFingerprint`` keys and the pycode backend's source cache.

**Hygiene ladder** (shared with the LALR and codegen caches):

* absent entry, or an injected I/O fault at ``cache.module.load`` —
  a plain miss; recompile, store;
* *stale* entry (old format, key mismatch after an edit) — a plain
  miss too: well-formed, just not ours; it is overwritten on store.
  A snapshot format bump is a key mismatch, so an entry whose deep
  blob the running code cannot load is rebuilt once, not restored
  through the expanded-source fallback on every warm hit;
* *corrupt* entry (truncated JSON, wrong shape) — quarantined to
  ``*.quarantine``, counted in ``maya_module_cache_corrupt_total``,
  and regenerated.  A bad cache file must never take a build down;
* *corrupt skeleton/deep payload* (``cache.module.iface`` fault site:
  the entry JSON parses but the interface list is malformed or the
  deep blob fails its checksum) — same quarantine + regenerate arm,
  counted separately in ``maya_module_cache_iface_corrupt_total``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

from repro import faults, perf
from repro.modules.iface import validate_interface
from repro.modules.snapshot import SNAPSHOT_FORMAT, blob_digest
from repro.obs.metrics import REGISTRY

#: Format 2: deep artifact (pickled checked AST) + grammar token.
CACHE_FORMAT = 2

_CORRUPT_TOTAL = REGISTRY.counter(
    "maya_module_cache_corrupt_total",
    "On-disk module cache entries found corrupt, quarantined, and "
    "regenerated.")
_IFACE_CORRUPT_TOTAL = REGISTRY.counter(
    "maya_module_cache_iface_corrupt_total",
    "Module cache entries whose skeleton/deep payload was corrupt "
    "(checksum or shape); quarantined and regenerated.")


def options_signature(options: Dict[str, object]) -> str:
    """Canonical form of the output-affecting build options."""
    relevant = {
        key: options.get(key)
        for key in ("macros", "multijava", "use", "no_macros", "provenance")
        if options.get(key)
    }
    return json.dumps(relevant, sort_keys=True)


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


def grammar_token(grammar) -> str:
    """A short stable token for a module's effective grammar.

    Hashes the versioned-grammar fingerprint key (base productions
    plus the module's replayed export delta) — the same identity the
    LALR table cache keys on — so two modules parsed under identical
    grammars record identical tokens, across threads and processes.
    """
    fingerprint = grammar.fingerprint()
    return hashlib.sha256(
        repr(fingerprint.key).encode("utf-8")).hexdigest()[:16]


class ModuleEntry:
    """One cached module build."""

    __slots__ = ("name", "key", "expanded", "iface", "exports", "deps",
                 "deep", "grammar")

    def __init__(self, name: str, key: str, expanded: str,
                 iface: List[dict], exports: List[str],
                 deps: List[str], deep: Optional[bytes] = None,
                 grammar: str = ""):
        self.name = name
        self.key = key
        #: The byte-exact artifact: the module's expanded plain-Java
        #: source, exactly what a clean build would have produced.
        self.expanded = expanded
        #: Class skeletons (see :mod:`repro.modules.iface`).
        self.iface = iface
        #: Exported metaprogram names: the module's own top-level
        #: ``use`` names plus its deps' exports (the grammar delta an
        #: importer replays).
        self.exports = exports
        self.deps = deps
        #: Deep artifact: pickled stripped checked AST (or None when
        #: the snapshot layer declined; warm hits then use the
        #: expanded-source path).
        self.deep = deep
        #: Token of the effective grammar fingerprint this module was
        #: parsed under — the identity of its replayed LALR delta; a
        #: consistency record for diagnostics and the fault drills.
        self.grammar = grammar

    def payload(self) -> dict:
        payload = {
            "format": CACHE_FORMAT,
            "name": self.name,
            "key": self.key,
            "expanded": self.expanded,
            "iface": self.iface,
            "exports": self.exports,
            "deps": self.deps,
            "grammar": self.grammar,
        }
        if self.deep is not None:
            payload["deep"] = base64.b64encode(self.deep).decode("ascii")
            payload["deep_sha"] = blob_digest(self.deep)
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
            deps=list(payload["deps"]),
            deep=deep,
            grammar=str(payload.get("grammar") or ""),
        )
        if not isinstance(entry.expanded, str) \
                or not isinstance(entry.iface, list):
            raise ValueError("malformed module cache entry")
        return entry

    def check_payloads(self, payload: dict) -> None:
        """The skeleton/deep integrity gate (``cache.module.iface``).

        The entry JSON parsed, but the parts a warm hit will *trust
        without re-deriving* — the interface skeletons and the deep
        blob — get their own validation: structural for the skeletons,
        a checksum for the blob.  Raises ``ValueError`` on any
        mismatch so the load ladder quarantines and regenerates."""
        validate_interface(self.iface)
        if self.deep is not None:
            recorded = payload.get("deep_sha")
            if recorded != blob_digest(self.deep):
                raise ValueError("deep artifact fails its checksum")


class ModuleCache:
    """The on-disk store: one entry file per module name."""

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        self.stats = perf.cache_stats("modules.disk")

    def __bool__(self) -> bool:
        return self.directory is not None

    def _path(self, name: str) -> str:
        safe = name.replace(os.sep, ".")
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
        return os.path.join(self.directory, f"module-{safe}-{digest}.json")

    def load(self, name: str, key: str) -> Optional[ModuleEntry]:
        """The entry for ``name`` if present and keyed ``key``."""
        if self.directory is None:
            return None
        path = self._path(name)
        try:
            faults.check(faults.SITE_MODULE_CACHE_LOAD)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if faults.corrupting(faults.SITE_MODULE_CACHE_LOAD):
                text = text[: len(text) // 2]  # injected truncation
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("module cache payload is not an object")
            if (payload.get("format") != CACHE_FORMAT
                    or payload.get("key") != key):
                # Stale (edited module, old format): a plain miss.
                self.stats.miss()
                return None
            entry = ModuleEntry.from_payload(payload)
        except (FileNotFoundError, faults.InjectedFault):
            self.stats.miss()
            return None
        except Exception:
            # Truncated/garbage entry: quarantine, count, regenerate.
            self._quarantine(path)
            _CORRUPT_TOTAL.inc()
            self.stats.miss()
            return None
        try:
            faults.check(faults.SITE_MODULE_IFACE)
            if faults.corrupting(faults.SITE_MODULE_IFACE):
                # Injected skeleton/deep corruption: clobber exactly
                # the payloads the integrity gate vouches for.
                if entry.deep is not None:
                    entry.deep = entry.deep[: len(entry.deep) // 2]
                entry.iface = [{"truncated": True}]
            entry.check_payloads(payload)
        except faults.InjectedFault:
            self.stats.miss()
            return None
        except Exception:
            # The entry parsed but its skeleton/deep payload cannot be
            # trusted: same quarantine-and-regenerate arm, its own
            # counter.  Never a crash.
            self._quarantine(path)
            _IFACE_CORRUPT_TOTAL.inc()
            self.stats.miss()
            return None
        self.stats.hit()
        return entry

    def store(self, entry: ModuleEntry) -> None:
        if self.directory is None:
            return
        path = self._path(entry.name)
        try:
            os.makedirs(self.directory, exist_ok=True)
            scratch = f"{path}.{os.getpid()}.{_store_tag()}.tmp"
            with open(scratch, "w", encoding="utf-8") as handle:
                # sort_keys: identical builds write byte-identical
                # entry files, whatever thread or process produced
                # them — the jobs=1 vs jobs=N property test diffs the
                # cache directories directly.
                json.dump(entry.payload(), handle, sort_keys=True)
            os.replace(scratch, path)  # atomic: no partial entries
        except OSError:
            pass

    @staticmethod
    def _quarantine(path: str) -> None:
        try:
            os.replace(path, path + ".quarantine")
        except OSError:
            pass


def _store_tag() -> str:
    """Disambiguates scratch files across the scheduler's threads (the
    pid alone stopped being unique once builds went parallel)."""
    import threading

    return str(threading.get_ident())
