"""The compiler's two cache mechanisms: one crash-safe on-disk store
for the persistent caches, and one bounded in-memory LRU cache for the
process-wide ones.

The LALR table cache (:mod:`repro.lalr.tables`) and the incremental
module cache (:mod:`repro.modules.cache`) keep their entries here.  A
store maps a name to bytes; each owner keeps its own payload format
and keys, and this module owns the policy for the files:

* **checksum** — an entry file is one header line carrying the
  SHA-256 of the whole payload, then the payload.  Any byte that
  changed on disk (a torn write, disk rot, a hand edit) fails the
  check before the owner decodes anything;
* **atomic writes** — every write goes to a scratch file unique to
  that write (``tempfile.mkstemp`` in the target directory), then
  ``os.replace``: a reader sees the old entry or the new one, never a
  partial file, and concurrent writers of one name never share a
  scratch file;
* **the load ladder** — an absent or unreadable entry, an injected
  I/O fault at the owner's fault site, or a *stale* entry (well-formed,
  but not for this key, format or code) is a plain miss.  A bad
  checksum or a decoder that raises means the entry is *corrupt*: it
  is moved aside to ``*.quarantine`` (so the next load does not trip
  over it and the bytes stay for postmortems), counted, and the caller
  regenerates.  A bad cache file never takes a build down.

Hits, misses and corrupt entries land in the
``maya_cache_events_total{cache,event}`` family under the store's
cache name, one hit or miss per lookup; a corrupt entry also counts as
a miss.  An entry :meth:`Store.load` returns is counted by its owner,
where it decides (:meth:`Store.count`).  Nothing is pruned: a name
never carries the code that wrote it, so a new entry overwrites the
stale one in place.

In memory, every process-wide cache is *content-keyed* (a grammar
fingerprint, a request digest) and is an :class:`LRUCache`, whose
bound caps what a long-running daemon keeps.  A memo keyed by one
compile session's objects never goes in a process-wide cache: it lives
on the session (for instance :attr:`repro.types.TypeRegistry.memo`) and
is freed with it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import tempfile
import threading
from collections import OrderedDict
from typing import Callable, Optional, TypeVar

from repro import faults
from repro.obs.metrics import CACHE_EVENTS

_MAGIC = b"maya-store sha256="

T = TypeVar("T")


def _header(payload: bytes) -> bytes:
    return _MAGIC + hashlib.sha256(payload).hexdigest().encode("ascii")


def code_token(*modules: str) -> Callable[[], str]:
    """A function giving a digest of the named modules' source files,
    read once, on its first call.  An owner checks the token inside its
    entries: a store outlives the code that filled it, and changed code
    must never read what the old code wrote."""
    @functools.lru_cache(maxsize=None)
    def token() -> str:
        digest = hashlib.sha256()
        for module in modules:
            with open(sys.modules[module].__file__, "rb") as handle:
                digest.update(handle.read())
        return digest.hexdigest()[:16]
    return token


class Store:
    """A directory of checksummed entries, one file per name.

    ``cache`` names the store in ``maya_cache_events_total``; ``site``
    is the fault site polled on every load.  A store without a
    directory is disabled: it is falsy, loads miss without counting,
    and stores do nothing.
    """

    def __init__(self, directory: Optional[str], cache: str, site: str):
        self.directory = directory
        self.site = site
        self._hits, self._misses, self._corrupt = (
            CACHE_EVENTS.labels(cache, event)
            for event in ("hit", "miss", "corrupt"))

    def __bool__(self) -> bool:
        return self.directory is not None

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def load(self, name: str,
             decode: Callable[[bytes], Optional[T]]) -> Optional[T]:
        """The decoded entry ``name``, or None on a miss.

        ``decode`` turns verified payload bytes into the owner's value.
        It returns None for a stale entry and raises for one it cannot
        parse; an :class:`repro.faults.InjectedFault` it raises is a
        plain miss like any other injected I/O fault.  A None is
        counted as a miss here; a value is counted by its owner."""
        if self.directory is None:
            return None
        path = self.path(name)
        try:
            faults.check(self.site)
            with open(path, "rb") as handle:
                data = handle.read()
        except (OSError, faults.InjectedFault):
            # Absent, or out of reach (a directory under a regular
            # file, no permission): nothing on disk is known to be bad.
            self._misses.inc()
            return None
        try:
            if faults.corrupting(self.site):
                data = data[: len(data) // 2]  # injected torn entry
            header, _, payload = data.partition(b"\n")
            if header != _header(payload):
                raise ValueError(f"{path}: checksum mismatch")
            value = decode(payload)
        except faults.InjectedFault:
            self._misses.inc()
            return None
        except Exception:
            self._quarantine(path)
            self._corrupt.inc()
            self._misses.inc()
            return None
        if value is None:
            self._misses.inc()
        return value

    def count(self, hit: bool) -> None:
        """Count the owner's verdict on an entry :meth:`load` returned:
        a hit if it is used, a miss if it turned out stale or bad."""
        (self._hits if hit else self._misses).inc()

    def store(self, name: str, payload: bytes) -> None:
        """Write ``name`` atomically; a failed write leaves no file."""
        if self.directory is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, scratch = tempfile.mkstemp(dir=self.directory,
                                           prefix=f"{name}.",
                                           suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_header(payload) + b"\n")
                handle.write(payload)
            os.replace(scratch, self.path(name))
        except OSError:
            try:
                os.unlink(scratch)
            except OSError:
                pass

    def discard(self, name: str) -> None:
        """Quarantine entry ``name`` and count it corrupt: for an entry
        whose owner found it bad after a load that passed the checks."""
        if self.directory is None:
            return
        self._quarantine(self.path(name))
        self._corrupt.inc()

    @staticmethod
    def _quarantine(path: str) -> None:
        try:
            os.replace(path, path + ".quarantine")
        except OSError:
            pass


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Lookups and stores count into ``maya_cache_events_total`` under
    ``cache``, so hit rates and eviction pressure show up in ``mayac
    --profile``.
    Thread-safe: the daemon's worker pool hits one shared instance
    concurrently, and ``move_to_end`` during a racing store would
    otherwise corrupt the recency order.
    """

    def __init__(self, maxsize: int, cache: str):
        self.maxsize = maxsize
        self._hits, self._misses, self._evictions = (
            CACHE_EVENTS.labels(cache, event)
            for event in ("hit", "miss", "eviction"))
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self._misses.inc()
                return None
            self._data.move_to_end(key)
        self._hits.inc()
        return value

    def put(self, key, value) -> None:
        evictions = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                evictions += 1
        if evictions:
            self._evictions.inc(evictions)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data
