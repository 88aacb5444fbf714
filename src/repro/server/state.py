"""Shared read-only state: epoch/snapshot handoff for a worker pool.

The daemon's whole value is sharing expensive derived state — LALR
tables, grammar fingerprints, compiled-artifact payloads — across
requests, but shared *mutable* state is exactly what a robust service
cannot afford: a reader observing a half-updated cache is a poisoned
request.  The rule here is the classic read-copy-update discipline:

* readers pin **one immutable snapshot** per request
  (:meth:`ArtifactCache.snapshot`) and never see later writes;
* writers build a *new* mapping off to the side and publish it with a
  single reference swap, bumping the epoch counter — publication is
  atomic, so there is no observable intermediate state;
* entries are immutable by convention (publish-once): a key is never
  overwritten with different data, only added or evicted.

The artifact cache is content-addressed: a SHA-256 over the source,
the filename and every request option that can change a response.  A
hit is right only as far as that key covers every input; what it
leaves out (the daemon's metaprograms and ``MAYA_BACKEND``) is fixed
for the daemon's lifetime.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from types import MappingProxyType
from typing import Mapping, Optional

from repro.obs.metrics import CACHE_EVENTS

#: Responses the artifact cache keeps; the oldest is evicted first.
ARTIFACT_CACHE_SIZE = 256


#: Request options that cannot change a response; ``artifact_key``
#: covers every other one, including any option added later.
NON_OUTPUT_OPTIONS = frozenset(("deadline_ms", "cache", "trace_id"))


def artifact_key(source: str, filename: str, options: dict) -> str:
    """Content address of one compile: source text, filename, and every
    option outside :data:`NON_OUTPUT_OPTIONS`."""
    relevant = {key: value for key, value in options.items()
                if key not in NON_OUTPUT_OPTIONS}
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(filename.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(json.dumps(relevant, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


class ArtifactCache:
    """The content-addressed response cache: a shared mapping published
    as immutable epoch-stamped snapshots.  Lookups and FIFO evictions
    count into ``maya_cache_events_total{cache="server.artifacts"}``."""

    def __init__(self, max_entries: int = ARTIFACT_CACHE_SIZE):
        self.max_entries = max_entries
        self._lock = threading.Lock()       # writers only
        self._epoch = 0
        self._snapshot: Mapping = MappingProxyType({})
        self._hits, self._misses, self._evictions = (
            CACHE_EVENTS.labels("server.artifacts", event)
            for event in ("hit", "miss", "eviction"))

    @property
    def epoch(self) -> int:
        return self._epoch

    def snapshot(self) -> Mapping:
        """The current immutable snapshot (pin once per request)."""
        return self._snapshot

    def __len__(self) -> int:
        return len(self._snapshot)

    def lookup(self, key: str) -> Optional[dict]:
        cached = self._snapshot.get(key)
        if cached is None:
            self._misses.inc()
            return None
        self._hits.inc()
        # Serve a copy: responses are annotated per-request (timings,
        # request ids) and must not mutate the shared entry.
        response = dict(cached)
        response["cached"] = True
        return response

    def store(self, key: str, response: dict) -> None:
        """Publish ``response`` under ``key`` via copy-on-write swap;
        the oldest entries are evicted FIFO past ``max_entries``.
        Publish-once: a key that is already present keeps its original
        entry (first writer wins, so two workers racing on the same key
        cannot flap the cache)."""
        # Per-request annotations never enter the shared entry: stats
        # are re-stamped per hit, and the ids must be the *hitting*
        # request's, not the one that happened to populate the cache.
        entry = {k: v for k, v in response.items()
                 if k not in ("cached", "stats", "request_id", "trace_id")}
        with self._lock:
            current = self._snapshot
            if key in current:
                return
            fresh = dict(current)
            fresh[key] = entry
            while len(fresh) > self.max_entries:
                fresh.pop(next(iter(fresh)))
                self._evictions.inc()
            self._epoch += 1
            # The swap is the handoff: readers hold either the old or
            # the new mapping, never a mixture.
            self._snapshot = MappingProxyType(fresh)


#: What prewarm compiles: grammar extension is *content*-fingerprinted,
#: so exercising each ``use`` scope here populates the table cache for
#: every later request that imports the same metaprograms — whatever
#: its source text.
_PREWARM_SOURCE = """
    import java.util.*;
    class Prewarm {
        static void main() {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.elements().foreach(String s) { System.out.println(s); }
        }
    }
"""


def prewarm() -> float:
    """Populate the process-wide caches a fresh session needs (base
    grammar singleton, macro-library tables, the ``use``-extended
    tables of the bundled macros) so the first real request is as fast
    as the thousandth.  Returns the time spent."""
    from repro import MayaCompiler

    started = time.perf_counter()
    MayaCompiler().configure({}).compile(_PREWARM_SOURCE, "<prewarm>")
    return time.perf_counter() - started
