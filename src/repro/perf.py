"""Performance instrumentation: cache statistics and phase profiling.

Since the telemetry unification (DESIGN.md "Telemetry") this module is
a thin facade over :data:`repro.obs.metrics.REGISTRY` — the hand-rolled
counter dicts are gone.  :class:`CacheStats` is a view over the
``maya_cache_events_total{cache,event}`` counter family, and
:class:`Profiler` over the ``maya_phase_*`` / ``maya_events_total``
families plus registry histograms; both keep their historical APIs so
every existing call site (and the ``--profile`` output) is unchanged,
while ``--metrics-out`` exports the same numbers in Prometheus or JSON
form.

A :class:`Profiler` collects wall-clock time per compiler phase while
one is active; when no profiler is active, ``phase()`` only maintains
the current-phase stack (label attribution for the laziness profiler)
— the hot paths pay a list append/pop per *phase*, not per node.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs import log as _obs_log
from repro.obs import metrics as _metrics
from repro.obs.metrics import REGISTRY, Histogram, sanitize_name

#: Cache hit/miss/eviction/invalidation events for every named cache.
_CACHE_EVENTS = REGISTRY.counter(
    "maya_cache_events_total",
    "Compiler cache events (parse tables, dispatch plans, templates, ...).",
    ("cache", "event"))

#: Wall-clock per compiler phase, recorded by the active Profiler.
_PHASE_SECONDS = REGISTRY.counter(
    "maya_phase_seconds_total",
    "Wall-clock seconds spent per compiler phase (profiled runs).",
    ("phase",))
_PHASE_RUNS = REGISTRY.counter(
    "maya_phase_runs_total",
    "Times each compiler phase ran (profiled runs).",
    ("phase",))

#: Free-form profiler counters (expansions, template instantiations...).
_EVENTS = REGISTRY.counter(
    "maya_events_total",
    "Free-form compiler events recorded by the profiler.",
    ("name",))

#: Profiler histograms by their free-form name ("expansion.depth" ->
#: registry family maya_expansion_depth); children keep the free-form
#: name so profiler snapshots stay stable.
_HISTOGRAMS: Dict[str, Histogram] = {}

#: Families the Profiler owns — reset when a fresh Profiler activates,
#: so each profiled run reports its own numbers (cache stats are
#: process-wide and deliberately not reset).
_PROFILER_FAMILIES = ("maya_phase_seconds_total", "maya_phase_runs_total",
                      "maya_events_total")


class CacheStats:
    """Hit/miss/eviction counters for one named cache (a view over the
    ``maya_cache_events_total`` registry family)."""

    __slots__ = ("name", "_hits", "_misses", "_evictions", "_invalidations")

    def __init__(self, name: str):
        self.name = name
        self._hits = _CACHE_EVENTS.labels(name, "hit")
        self._misses = _CACHE_EVENTS.labels(name, "miss")
        self._evictions = _CACHE_EVENTS.labels(name, "eviction")
        self._invalidations = _CACHE_EVENTS.labels(name, "invalidation")

    # Mutations go through Counter.inc() (which takes the registry's
    # value lock): daemon workers hammer these children concurrently,
    # and a bare ``.value += 1`` would lose counts.

    def hit(self) -> None:
        self._hits.inc()

    def miss(self) -> None:
        self._misses.inc()

    def evict(self) -> None:
        self._evictions.inc()

    def invalidate(self) -> None:
        self._invalidations.inc()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        for child in (self._hits, self._misses, self._evictions,
                      self._invalidations):
            child._reset()

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (f"CacheStats({self.name}: {self.hits}h/{self.misses}m, "
                f"{self.hit_rate:.1%})")


#: CacheStats views by cache name (the counters themselves live in the
#: registry; this only avoids re-binding label children on every call).
_CACHE_VIEWS: Dict[str, CacheStats] = {}


def cache_stats(name: str) -> CacheStats:
    """The (process-wide) stats view for a named cache."""
    stats = _CACHE_VIEWS.get(name)
    if stats is None:
        stats = _CACHE_VIEWS[name] = CacheStats(name)
    return stats


def all_cache_stats() -> List[CacheStats]:
    """Every cache the registry has seen events for (including caches
    whose CacheStats were constructed directly)."""
    names = {labels[0] for labels, _ in _CACHE_EVENTS.samples()}
    return [cache_stats(name) for name in sorted(names)]


def reset_cache_stats() -> None:
    for stats in all_cache_stats():
        stats.reset()


class Profiler:
    """Per-phase wall-clock timings plus free-form counters and
    histograms — a per-run view over the registry's profiler families.

    Constructing a Profiler zeroes those families (and only those), so
    each ``--profile`` run reports its own numbers while process-wide
    metrics like cache stats keep accumulating.
    """

    def __init__(self):
        for name in _PROFILER_FAMILIES:
            REGISTRY.reset(name)
        for histogram in _HISTOGRAMS.values():
            histogram._reset()

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            _PHASE_SECONDS.labels(name).inc(elapsed)
            _PHASE_RUNS.labels(name).inc()

    def count(self, name: str, amount: int = 1) -> None:
        _EVENTS.labels(name).inc(amount)

    def observe(self, name: str, value: int) -> None:
        """Record one observation in a named histogram."""
        histogram = _HISTOGRAMS.get(name)
        if histogram is None:
            family = REGISTRY.histogram(
                "maya_" + sanitize_name(name),
                f"Profiler histogram {name!r}.")
            histogram = _HISTOGRAMS[name] = family._solo()
            histogram.name = name  # snapshots keep the free-form name
        histogram.observe(value)

    # -- registry-backed views (the historical attribute API) -------------

    @property
    def phase_seconds(self) -> Dict[str, float]:
        return {labels[0]: child.value
                for labels, child in _PHASE_SECONDS.samples()
                if child.value}

    @property
    def phase_counts(self) -> Dict[str, int]:
        return {labels[0]: child.value
                for labels, child in _PHASE_RUNS.samples()
                if child.value}

    @property
    def counters(self) -> Dict[str, int]:
        return {labels[0]: child.value
                for labels, child in _EVENTS.samples()
                if child.value}

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return {name: histogram
                for name, histogram in _HISTOGRAMS.items()
                if histogram.count}

    def snapshot(self) -> Dict[str, object]:
        """Everything the profiler knows, as plain data (embedded in
        the trace JSONL export's metrics record)."""
        phase_counts = self.phase_counts
        return {
            "phases": {
                name: {"ms": round(seconds * 1e3, 3),
                       "count": phase_counts.get(name, 0)}
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "histograms": [h.snapshot()
                           for _, h in sorted(self.histograms.items())],
        }

    def render(self, dispatcher=None) -> str:
        """A human-readable profile report (for ``mayac --profile``)."""
        lines = ["== mayac profile =="]
        phase_seconds = self.phase_seconds
        phase_counts = self.phase_counts
        if phase_seconds:
            lines.append("phase timings:")
            total = sum(phase_seconds.values())
            for name in sorted(phase_seconds,
                               key=phase_seconds.get, reverse=True):
                seconds = phase_seconds[name]
                lines.append(
                    f"  {name:<18} {seconds * 1e3:9.2f} ms"
                    f"  ({phase_counts[name]}x)"
                )
            lines.append(f"  {'total':<18} {total * 1e3:9.2f} ms")
        if dispatcher is not None:
            lines.append(f"dispatch: {dispatcher.dispatch_count} reductions "
                         f"dispatched, {dispatcher.units_skipped} unit "
                         f"reductions skipped")
        counters = self.counters
        for name in sorted(counters):
            lines.append(f"counter: {name} = {counters[name]}")
        histograms = self.histograms
        if histograms:
            lines.append("histograms:")
            for name in sorted(histograms):
                histogram = histograms[name]
                lines.append(
                    f"  {name:<22} n={histogram.count:<6} "
                    f"min={histogram.min} max={histogram.max} "
                    f"mean={histogram.mean:.2f}"
                )
        interesting = [s for s in all_cache_stats() if s.lookups or s.evictions]
        if interesting:
            lines.append("cache hit rates:")
            for stats in interesting:
                lines.append(
                    f"  {stats.name:<22} {stats.hits:>8} hits "
                    f"{stats.misses:>6} misses  {stats.hit_rate:6.1%}"
                    + (f"  ({stats.evictions} evicted)" if stats.evictions
                       else "")
                )
        module_lines = self._render_module_cache()
        if module_lines:
            lines.extend(module_lines)
        artifact_lines = self._render_artifact_cache()
        if artifact_lines:
            lines.extend(artifact_lines)
        ic_lines = self._render_inline_caches()
        if ic_lines:
            lines.extend(ic_lines)
        return "\n".join(lines)

    @staticmethod
    def _render_module_cache() -> List[str]:
        """The module builder's incremental-cache section (empty when
        no module-mode build ran): recompiled vs. reused counts and the
        reuse ratio — the numbers ``--module-report`` prints per build,
        totalled process-wide."""
        compiled_family = REGISTRY.get("maya_modules_compiled_total")
        reused_family = REGISTRY.get("maya_modules_reused_total")
        compiled = compiled_family.value if compiled_family is not None else 0
        reused = reused_family.value if reused_family is not None else 0
        total = compiled + reused
        if not total:
            return []
        return [
            "module cache (incremental builds):",
            f"  modules compiled       {compiled:>8}",
            f"  modules reused         {reused:>8}",
            f"  reuse ratio            {reused / total:>7.1%}",
        ]

    @staticmethod
    def _render_artifact_cache() -> List[str]:
        """The daemon's content-addressed artifact cache section (empty
        outside a daemon process or before any compile request)."""
        family = REGISTRY.get("maya_server_artifact_cache_events_total")
        if family is None:
            return []
        events = {labels[0]: child.value for labels, child in family.samples()}
        hits = events.get("hit", 0)
        misses = events.get("miss", 0)
        lookups = hits + misses
        if not lookups:
            return []
        return [
            "artifact cache (daemon responses):",
            f"  {'artifacts':<22} {hits:>8} hits {misses:>6} misses  "
            f"{hits / lookups:6.1%}",
        ]

    @staticmethod
    def _render_inline_caches() -> List[str]:
        """The pycode backend's inline-cache section (empty when no
        pycode inline cache was consulted)."""
        family = REGISTRY.get("maya_interp_ic_events_total")
        if family is None:
            return []
        by_site: Dict[str, Dict[str, int]] = {}
        for (site, event), child in family.samples():
            if child.value:
                by_site.setdefault(site, {})[event] = child.value
        if not by_site:
            return []
        lines = ["inline caches (pycode backend):"]
        for site in sorted(by_site):
            events = by_site[site]
            hits = events.get("hit", 0)
            misses = events.get("miss", 0)
            mega = events.get("megamorphic", 0)
            lookups = hits + misses + mega
            rate = hits / lookups if lookups else 0.0
            line = (f"  {site:<22} {hits:>8} hits {misses:>6} misses "
                    f"{rate:6.1%}")
            if mega:
                line += f"  ({mega} megamorphic)"
            lines.append(line)
        return lines


#: The currently active profiler, or None (the common case).
active: Optional[Profiler] = None


def activate(profiler: Profiler) -> Profiler:
    global active
    active = profiler
    return profiler


def deactivate() -> None:
    global active
    active = None


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a compiler phase under the active profiler, if any.  Always
    maintains the current-phase stack so phase-attributed metrics (the
    laziness profiler) work without a Profiler.

    When a request context is bound (a daemon worker executing one
    request — see :mod:`repro.obs.log`), the phase's wall-clock is also
    accumulated onto that request, so the response can report where its
    time went even with no profiler active."""
    _metrics.push_phase(name)
    profiler = active
    context = _obs_log.current_request()
    if profiler is None and context is None:
        try:
            yield
        finally:
            _metrics.pop_phase()
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        if profiler is not None:
            _PHASE_SECONDS.labels(name).inc(elapsed)
            _PHASE_RUNS.labels(name).inc()
        if context is not None:
            context.add_phase(name, elapsed)
        _metrics.pop_phase()
