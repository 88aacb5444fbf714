"""The ``mayac --profile`` report: a view of the span tree plus the
metrics registry.

Time rows are span self times (:attr:`repro.trace.Span.self_time`).  A
``phase`` span's row is its name (``lex``, ``lalr.generate``, ...),
any other span's row is its kind (``compile``, ``dispatch``,
``expand``, ``template``, ``gc``), and the ``mayac`` root's own time is
``unattributed``.  Self times never overlap, so the rows add up to the
total: the summed duration of the trace's roots.

Expansion counts and the ``expansion.depth`` histogram come from the
``expand`` spans, which record the Mayan and its depth.  The
``dispatch:`` line is the run's growth of the reduction counters (a
:class:`~repro.obs.metrics.Deltas` view); cache hit rates and the
module-cache section come from the registry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.metrics import REGISTRY, Deltas, Histogram, family_total

_DISPATCHED = "maya_dispatch_reductions_total"
_SKIPPED = "maya_parser_unit_reductions_skipped_total"


def _row(span) -> str:
    if span.kind == "phase":
        return span.name
    if span.kind == "mayac":
        return "unattributed"
    return span.kind


def self_times(spans) -> Dict[str, List]:
    """``[self seconds, count]`` per row of ``spans``: the count is of
    spans, and of collections for ``gc`` (one span can merge several,
    see :func:`repro.trace._on_gc`)."""
    rows: Dict[str, List] = {}
    for span in spans:
        row = rows.setdefault(_row(span), [0.0, 0])
        row[0] += span.self_time
        row[1] += span.attrs.get("collections", 1)
    return rows


def expansions(tracer) -> Tuple[Dict[str, int], Histogram]:
    """Expansion counters (total and per Mayan) and the depth
    histogram, from the trace's ``expand`` spans."""
    counters: Dict[str, int] = {}
    depth = Histogram("expansion.depth")
    for span in tracer.spans_of_kind("expand"):
        for name in ("expansions", f"expansions[{span.name}]"):
            counters[name] = counters.get(name, 0) + 1
        depth.observe(span.attrs["depth"])
    return counters, depth


def snapshot(tracer) -> Dict[str, object]:
    """The report as plain data (embedded in the ``--trace-out``
    metrics record)."""
    counters, depth = expansions(tracer)
    return {
        "phases": {name: {"self_ms": round(seconds * 1e3, 3),
                          "count": count}
                   for name, (seconds, count)
                   in sorted(self_times(tracer.iter_spans()).items())},
        "counters": dict(sorted(counters.items())),
        "histograms": [depth.snapshot()] if depth.count else [],
    }


def reduction_counts() -> Deltas:
    """A view of the reductions dispatched and skipped from now on:
    what the report's ``dispatch:`` line prints."""
    return Deltas(_DISPATCHED, _SKIPPED)


def render(tracer, reductions: Deltas) -> str:
    """The human-readable report; ``reductions`` is the run's
    :func:`reduction_counts`."""
    lines = ["== mayac profile =="]
    rows = self_times(tracer.iter_spans())
    if rows:
        lines.append("self times:")
        for name in sorted(rows, key=lambda name: rows[name][0],
                           reverse=True):
            seconds, count = rows[name]
            lines.append(f"  {name:<18} {seconds * 1e3:9.2f} ms  ({count}x)")
        total = sum(root.duration for root in tracer.roots)
        lines.append(f"  {'total':<18} {total * 1e3:9.2f} ms")
    lines.append(f"dispatch: {reductions.total(_DISPATCHED)} reductions "
                 f"dispatched, {reductions.total(_SKIPPED)} unit "
                 f"reductions skipped")
    counters, depth = expansions(tracer)
    for name in sorted(counters):
        lines.append(f"counter: {name} = {counters[name]}")
    if depth.count:
        lines.append("histograms:")
        lines.append(f"  {depth.name:<22} n={depth.count:<6} "
                     f"min={depth.min} max={depth.max} "
                     f"mean={depth.mean:.2f}")
    lines.extend(_hit_rate_lines("cache hit rates:",
                                 "maya_cache_events_total",
                                 ("eviction", "evicted")))
    lines.extend(_module_cache_lines())
    return "\n".join(lines)


def hit_rates(family_name: str = "maya_cache_events_total"
              ) -> Dict[str, Dict[str, float]]:
    """Event counts per cache of an events family, plus
    ``hit_ratio``: hits over lookups (every event but evictions and
    corrupt entries) when there were lookups.  The one reader behind
    this report's hit-rate section and the daemon's ``stats.caches``."""
    family = REGISTRY.get(family_name)
    caches: Dict[str, Dict[str, float]] = {}
    for (name, event), child in (family.samples() if family is not None
                                  else ()):
        caches.setdefault(name, {})[event] = child.value
    for events in caches.values():
        lookups = sum(count for event, count in events.items()
                      if event not in ("eviction", "corrupt"))
        if lookups:
            events["hit_ratio"] = events.get("hit", 0) / lookups
    return caches


def _hit_rate_lines(header: str, family_name: str, noted) -> List[str]:
    """One line per cache of an events family that saw a lookup or the
    noted event: hits, misses, the hit rate and the noted event's
    count."""
    event, word = noted
    lines = []
    for name, events in sorted(hit_rates(family_name).items()):
        extra = events.get(event, 0)
        if not ("hit_ratio" in events or extra):
            continue
        lines.append(f"  {name:<22} {events.get('hit', 0):>8} hits "
                     f"{events.get('miss', 0):>6} misses  "
                     f"{events.get('hit_ratio', 0.0):6.1%}"
                     + (f"  ({extra} {word})" if extra else ""))
    return [header] + lines if lines else []


def _module_cache_lines() -> List[str]:
    """The module builder's incremental-cache section (empty when no
    module-mode build ran): recompiled vs. reused counts and the reuse
    ratio — the numbers ``--module-report`` prints per build, totalled
    process-wide."""
    compiled = family_total("maya_modules_compiled_total")
    reused = family_total("maya_modules_reused_total")
    total = compiled + reused
    if not total:
        return []
    return [
        "module cache (incremental builds):",
        f"  modules compiled       {compiled:>8}",
        f"  modules reused         {reused:>8}",
        f"  reuse ratio            {reused / total:>7.1%}",
    ]
