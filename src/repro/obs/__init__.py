"""repro.obs: the telemetry subsystem.

The pieces (see DESIGN.md "Telemetry"):

* :mod:`repro.obs.metrics` — labelled Counter/Gauge/Histogram families
  in a process-wide :data:`~repro.obs.metrics.REGISTRY`; every other
  telemetry producer (the caches, the span tracer's phase self times,
  the laziness profiler, the dispatcher) records here.  Timing itself
  comes from one place, the span tree of :mod:`repro.trace`.
* :mod:`repro.obs.export` / :mod:`repro.obs.flamegraph` — exporters:
  Prometheus text exposition, structured JSON (the one metrics schema),
  folded stacks, and speedscope JSON from the tracer's span trees.
* :mod:`repro.obs.profile` — the ``mayac --profile`` report: span self
  times per phase and kind, expansion counts, and cache hit rates.
* :mod:`repro.obs.lazy` — the laziness profiler: thunks created vs.
  forced per phase and production, measuring the paper's lazy
  parse/check claim (``mayac --lazy-report``).
* :mod:`repro.obs.log` — the structured event log (bounded ring +
  JSONL sink) and the contextvars request context that stamps every
  event, span, metric exemplar, and diagnostic with the
  ``request_id``/``trace_id`` of the request that caused it.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs import export, flamegraph, lazy, log, profile
from repro.obs.log import (
    EventLog,
    LOG,
    RequestContext,
    current_request,
    emit,
    request_scope,
)

__all__ = [
    "EventLog",
    "LOG",
    "RequestContext",
    "current_request",
    "emit",
    "request_scope",
    "log",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "export",
    "flamegraph",
    "lazy",
    "profile",
]
