"""The metrics model: labelled counters, gauges, and histograms in a
process-wide registry.

Every telemetry producer in the compiler — cache statistics, the span
tracer's phase self times, the dispatcher, the laziness profiler —
records into one :data:`REGISTRY` of named metric families, so every
consumer (``mayac --profile``, ``--metrics-out``, the ``--trace-out``
JSONL metrics record) renders *the same numbers* instead of three
ad-hoc counter models.  The design follows the Prometheus data model:

* a **family** has a name (``maya_cache_events_total``), a help string,
  a kind (counter / gauge / histogram), and a fixed tuple of label
  names;
* ``family.labels(cache="dispatch.plans", event="hit")`` returns the
  **child** for one label combination — a tiny object holding a number
  (or buckets), cheap enough to bind once at import time and bump on a
  hot path;
* the registry rejects a second registration of the same name with a
  different kind or label set (a collision would silently merge
  unrelated series).

Nothing here imports the rest of the compiler, so any module may
depend on it without cycles.  The module also tracks the *current
compiler phase* (pushed by :func:`repro.trace.phase`): label-attribution
for metrics recorded deep inside a phase, e.g. lazy-thunk forcing.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import log as _log

#: One process-wide lock serializing every child mutation.  Increments
#: are read-modify-write (``self.value += n`` is several bytecodes), so
#: without this a daemon worker pool hammering one shared child would
#: lose counts.  A single shared lock keeps children allocation-free
#: and the uncontended acquire is ~100ns — noise next to the dispatch
#: work each increment accounts for.
_VALUE_LOCK = threading.Lock()

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(Exception):
    """A metrics-model misuse: bad name, label mismatch, or a
    registration collision."""


def sanitize_name(raw: str) -> str:
    """A best-effort valid metric-name fragment from free-form text
    (``expansion.depth`` -> ``expansion_depth``)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", raw).strip("_")
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


# ---------------------------------------------------------------------------
# Children: one label combination's value
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        with _VALUE_LOCK:
            self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: float) -> None:
        with _VALUE_LOCK:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with _VALUE_LOCK:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with _VALUE_LOCK:
            self.value -= amount


class Histogram:
    """A bucketed distribution of observations.

    Default bounds are powers of two — right for the compiler's shape
    metrics (dispatch depth, fuel consumed, expansion counts), where a
    single counter hides the tail.  Bounds are upper-inclusive and the
    last bucket is open-ended (``+Inf`` in Prometheus terms).
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "bounds",
                 "exemplar")

    #: Default upper bounds (inclusive) of the buckets.
    BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128)

    def __init__(self, name: str = "", bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else self.BOUNDS
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise MetricError(f"histogram bounds must be sorted and "
                              f"non-empty: {self.bounds!r}")
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(self.bounds) + 1)
        #: The most recent observation made under a bound request
        #: context: ``{"value", "request_id", "trace_id"}`` — an
        #: exemplar in the OpenMetrics sense, linking an aggregate
        #: back to one concrete request that contributed to it.
        self.exemplar: Optional[Dict[str, object]] = None

    def observe(self, value: float) -> None:
        context = _log.current_request()
        with _VALUE_LOCK:
            if context is not None:
                self.exemplar = {"value": value,
                                 "request_id": context.request_id,
                                 "trace_id": context.trace_id}
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.buckets[index] += 1
                    return
            self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> List[Tuple[str, int]]:
        """(upper-bound label, cumulative count) pairs, ending at
        ``+Inf`` — the Prometheus histogram exposition shape."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, hits in zip(self.bounds, self.buckets):
            running += hits
            out.append((format(bound, "g"), running))
        out.append(("+Inf", running + self.buckets[-1]))
        return out

    def snapshot(self) -> Dict[str, object]:
        snapshot: Dict[str, object] = {
            "name": self.name,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 3),
            "buckets": {
                (f"<={format(bound, 'g')}" if index < len(self.bounds)
                 else f">{format(self.bounds[-1], 'g')}"): hits
                for index, (bound, hits) in enumerate(
                    zip(self.bounds + (self.bounds[-1],), self.buckets))
                if hits
            },
        }
        if self.exemplar is not None:
            snapshot["exemplar"] = dict(self.exemplar)
        return snapshot

    def __repr__(self) -> str:
        return (f"Histogram({self.name}: n={self.count}, "
                f"min={self.min}, max={self.max}, mean={self.mean:.2f})")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class MetricFamily:
    """All children of one named metric, keyed by label values.

    A family with no label names proxies the child API directly
    (``family.inc()``, ``family.set()``, ``family.observe()``), so
    unlabelled metrics stay one attribute access away.
    """

    __slots__ = ("name", "help", "kind", "labelnames", "_children", "_bounds")

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: Sequence[str] = (),
                 bounds: Optional[Sequence[float]] = None):
        if not _NAME_RE.match(name):
            raise MetricError(f"bad metric name {name!r}")
        if kind not in _KINDS:
            raise MetricError(f"bad metric kind {kind!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"bad label name {label!r} on {name}")
        if len(set(labelnames)) != len(tuple(labelnames)):
            raise MetricError(f"duplicate label names on {name}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._bounds = tuple(bounds) if bounds is not None else None
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.name, bounds=self._bounds)
        return _KINDS[self.kind]()

    def labels(self, *values, **kwvalues):
        """The child for one label-value combination (created on first
        use).  Accepts positional values in label order or keywords."""
        if kwvalues:
            if values:
                raise MetricError("mix of positional and keyword labels")
            try:
                values = tuple(kwvalues.pop(name) for name in self.labelnames)
            except KeyError as missing:
                raise MetricError(
                    f"{self.name}: missing label {missing.args[0]!r}"
                ) from None
            if kwvalues:
                raise MetricError(
                    f"{self.name}: unknown labels {sorted(kwvalues)}"
                )
        key = tuple(str(value) for value in values)
        if len(key) != len(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {len(key)} values"
            )
        child = self._children.get(key)
        if child is None:
            # Two threads may race to create the same child; the lock
            # makes the second reuse the first's (bound children must
            # stay unique per label set or counts would split).
            with _VALUE_LOCK:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        for key in sorted(self._children):
            yield key, self._children[key]

    # -- unlabelled convenience -------------------------------------------

    def _solo(self):
        if self.labelnames:
            raise MetricError(f"{self.name} has labels {self.labelnames}; "
                              f"call .labels(...) first")
        return self._children[()]

    def inc(self, amount: float = 1) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self):
        return self._solo().value

    def __repr__(self) -> str:
        return (f"<{self.kind} family {self.name} "
                f"labels={list(self.labelnames)} "
                f"children={len(self._children)}>")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """A process-wide, name-keyed collection of metric families."""

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(self, name: str, help_text: str, kind: str,
                  labelnames: Sequence[str],
                  bounds: Optional[Sequence[float]] = None) -> MetricFamily:
        with self._lock:
            return self._register_locked(name, help_text, kind,
                                         labelnames, bounds)

    def _register_locked(self, name: str, help_text: str, kind: str,
                         labelnames: Sequence[str],
                         bounds: Optional[Sequence[float]]) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise MetricError(
                    f"metric {name} already registered as a {family.kind}, "
                    f"not a {kind}"
                )
            if family.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name} already registered with labels "
                    f"{family.labelnames}, not {tuple(labelnames)}"
                )
            return family
        family = MetricFamily(name, help_text, kind, labelnames, bounds)
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "gauge", labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  bounds: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._register(name, help_text, "histogram", labelnames, bounds)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, object]:
        """Everything the registry knows, as plain JSON-able data — the
        one metrics schema shared by ``--metrics-out``, the
        ``--trace-out`` metrics record, and the profiler's views."""
        families = []
        for family in self.families():
            samples = []
            for labelvalues, child in family.samples():
                labels = dict(zip(family.labelnames, labelvalues))
                if family.kind == "histogram":
                    samples.append({"labels": labels, **child.snapshot()})
                else:
                    samples.append({"labels": labels, "value": child.value})
            families.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            })
        return {"schema": "maya.metrics/1", "families": families}

    def __repr__(self) -> str:
        return f"<MetricsRegistry families={len(self._families)}>"


#: The process-wide registry every compiler subsystem records into.
REGISTRY = MetricsRegistry()

#: Events of every named compiler cache (parse tables, dispatch plans,
#: templates, the disk stores, ...).  Each cache binds its children
#: once — ``CACHE_EVENTS.labels("dispatch.plans", "hit")`` — and bumps
#: them on its own path; ``mayac --profile`` and the daemon's ``stats``
#: op read the family.
CACHE_EVENTS = REGISTRY.counter(
    "maya_cache_events_total",
    "Compiler cache events (parse tables, dispatch plans, templates, ...).",
    ("cache", "event"))


def family_total(name: str) -> float:
    """The summed value of a family's children in :data:`REGISTRY` (0
    when the family is not registered yet)."""
    family = REGISTRY.get(name)
    if family is None:
        return 0
    return sum(child.value for _, child in family.samples())


class Deltas:
    """A per-session view over counter families of :data:`REGISTRY`:
    each child's growth since the view was made, from every thread
    (counters only go up).  :meth:`freeze` ends the session."""

    __slots__ = ("_names", "_base", "_end")

    def __init__(self, *names: str):
        self._names = names
        self._base = self._read()
        self._end: Optional[Dict[Tuple[str, Tuple[str, ...]], float]] = None

    def _read(self) -> Dict[Tuple[str, Tuple[str, ...]], float]:
        values = {}
        for name in self._names:
            family = REGISTRY.get(name)
            for labels, child in (family.samples() if family is not None
                                  else ()):
                values[name, labels] = child.value
        return values

    def freeze(self) -> None:
        if self._end is None:
            self._end = self._read()

    def children(self, name: str) -> Dict[Tuple[str, ...], float]:
        """Label values -> growth, for each child of family ``name``
        that grew."""
        end = self._end if self._end is not None else self._read()
        grown = {}
        for (family, labels), value in end.items():
            delta = value - self._base.get((family, labels), 0)
            if family == name and delta:
                grown[labels] = delta
        return grown

    def total(self, name: str) -> float:
        return sum(self.children(name).values())


# ---------------------------------------------------------------------------
# Current compiler phase (pushed by trace.phase) — label attribution
# for metrics recorded while a phase is active.  Thread-local: daemon
# workers each run their own compile pipeline, and one worker's phase
# must not label another's metrics.
# ---------------------------------------------------------------------------

_phase_stacks = threading.local()


def _phase_stack() -> List[str]:
    stack = getattr(_phase_stacks, "stack", None)
    if stack is None:
        stack = _phase_stacks.stack = []
    return stack


def push_phase(name: str) -> None:
    _phase_stack().append(name)


def pop_phase() -> None:
    stack = _phase_stack()
    if stack:
        stack.pop()


def current_phase() -> str:
    """The innermost active compiler phase (this thread's), or ""
    outside any phase."""
    stack = _phase_stack()
    return stack[-1] if stack else ""
