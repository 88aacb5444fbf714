"""Expansion observability: span tracing and AST provenance.

Mayans run invisibly inside the parser, so the two debugging questions
— *what expanded here?* and *where did this generated node come from?*
— need first-class answers (mcpyrate's step-by-step expansion view is
the model).  This module provides both:

* **Spans** — a :class:`Tracer` records a tree of timed spans: one per
  compiler phase (lex / parse+expand / shape / bodies+check /
  lalr.generate / interp, opened by :func:`phase`), one per
  Mayan-relevant dispatch, one per Mayan activation (with the
  mcpyrate-style before/after unparse of the rewrite), one per
  template instantiation, and — under a process-wide tracer — one per
  garbage collection.  The tree exports as JSONL
  (``mayac --trace-out FILE``) or as an indented human view
  (``mayac --trace``).  Base-action reductions with no Mayans in scope
  are *not* spanned — they are counted in the metrics instead — so a
  trace stays proportional to the expansion work, not to the grammar.

  The span tree is the compiler's only timer.  Each span's self time
  (:attr:`Span.self_time`) is computed in one place, and every timing
  view reads it: ``mayac --profile``, the daemon's ``stats.phases``
  and slow-request breakdown, the ``self_ms`` of ``--trace-out``
  records, the folded flamegraph and the ``maya_phase_*`` families.
  Phases nest (a ``use`` generates tables in the middle of body
  checking), so only self times add up to the wall clock.

* **Provenance** — every AST node reduced or instantiated during a
  Mayan activation carries an :class:`Origin`:
  ``Mayan -> template -> use-site SourceSpan``, chained through nested
  expansions via ``parent``.  Diagnostics render the chain as
  "expanded from" notes, and the unparser can annotate statements with
  it (``mayac --expand --provenance``).

When no tracer is active every hook is a single module-attribute read
plus a ``None`` check, so ``--trace`` off stays off the hot paths.
"""

from __future__ import annotations

import contextvars
import gc
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.diag import SourceSpan
from repro.obs import log as obs_log
from repro.obs.metrics import REGISTRY, pop_phase, push_phase

#: How many origin links a diagnostic renders before eliding.
MAX_ORIGIN_NOTES = 8

#: Span counts land in the process-wide metrics registry so a trace's
#: shape (how many dispatch/expand/template spans) is scrapeable even
#: when the span tree itself is not exported.
_SPANS_TOTAL = REGISTRY.counter(
    "maya_trace_spans_total", "Trace spans recorded, by kind.", ("kind",))

#: Self time per compiler phase, added when a phase span ends.
_PHASE_SECONDS = REGISTRY.counter(
    "maya_phase_seconds_total",
    "Self seconds spent per compiler phase (traced runs).",
    ("phase",))
_PHASE_RUNS = REGISTRY.counter(
    "maya_phase_runs_total",
    "Times each compiler phase ran (traced runs).",
    ("phase",))


class Origin:
    """Provenance of one generated AST node.

    ``mayan`` names the activation that produced the node, ``template``
    the quasiquote it was instantiated from (None when the Mayan built
    the node directly), ``use_site`` the nearest *real* source position
    of the activation, and ``parent`` the enclosing activation's origin
    for nested expansions.  The chain always terminates at an origin
    whose ``use_site`` points into real source (the outermost
    activation was triggered by user-written syntax).
    """

    # One Origin is allocated per activation whether or not its nodes
    # are ever inspected, so construction must stay cheap: ``mayan``
    # may be the Mayan object itself (stringified on first read) and
    # ``use_site`` a raw lexer Location (converted to a SourceSpan on
    # first read).  Both conversions write back, so the laziness is
    # invisible to consumers.
    __slots__ = ("_mayan", "template", "_use_site", "parent")

    def __init__(self, mayan, template: Optional[str],
                 use_site, parent: Optional["Origin"] = None):
        self._mayan = mayan
        self.template = template
        self._use_site = use_site
        self.parent = parent

    @property
    def mayan(self) -> Optional[str]:
        name = self._mayan
        if name is not None and not isinstance(name, str):
            name = str(name)
            self._mayan = name
        return name

    @property
    def use_site(self) -> SourceSpan:
        site = self._use_site
        if not isinstance(site, SourceSpan):
            site = SourceSpan.from_location(site) if site is not None \
                else SourceSpan()
            self._use_site = site
        return site

    def with_template(self, template: str) -> "Origin":
        """This activation's origin, refined with the template that is
        actually producing the nodes."""
        return Origin(self._mayan, template, self._use_site, self.parent)

    def chain(self) -> Iterator["Origin"]:
        origin: Optional[Origin] = self
        while origin is not None:
            yield origin
            origin = origin.parent

    @property
    def root(self) -> "Origin":
        origin = self
        while origin.parent is not None:
            origin = origin.parent
        return origin

    def describe(self) -> str:
        parts = [self.mayan or "<no Mayan>"]
        if self.template:
            parts.append(f"via {self.template}")
        if self.use_site.is_known:
            parts.append(f"at {self.use_site}")
        return " ".join(parts)

    def brief(self) -> str:
        """A compact form for unparse annotations."""
        name = self.mayan or self.template or "?"
        if self.use_site.is_known:
            return f"{name} @ {self.use_site}"
        return name

    def __repr__(self) -> str:
        return f"<origin {self.describe()}>"


def provenance_notes(node) -> List[str]:
    """The "expanded from" note lines for a node's origin chain (empty
    for ordinary user-written nodes)."""
    origin = getattr(node, "origin", None)
    if origin is None:
        return []
    notes: List[str] = []
    for link in origin.chain():
        if len(notes) >= MAX_ORIGIN_NOTES:
            notes.append("... (origin chain elided)")
            break
        notes.append(f"expanded from {link.describe()}")
    return notes


def use_site_span(location, stack) -> SourceSpan:
    """The nearest *known* source position for an activation: the
    dispatch location itself, or — when the expansion fired inside
    template-made syntax with no position — the innermost enclosing
    activation that still points into real source."""
    if getattr(location, "line", 0) > 0:
        return SourceSpan.from_location(location)
    for _, active_location in reversed(stack):
        if getattr(active_location, "line", 0) > 0:
            return SourceSpan.from_location(active_location)
    return SourceSpan.from_location(location)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span:
    """One timed node in the trace tree."""

    __slots__ = ("id", "parent_id", "kind", "name", "attrs",
                 "start", "end", "children")

    def __init__(self, span_id: int, parent_id: Optional[int],
                 kind: str, name: str, attrs: Dict[str, object],
                 start: float):
        self.id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_time(self) -> float:
        """Seconds spent in this span outside its children."""
        return max(0.0, self.duration
                   - sum(child.duration for child in self.children))

    def __repr__(self) -> str:
        return f"<span #{self.id} {self.kind} {self.name!r}>"


class Tracer:
    """Collects a tree of spans for one or more compiles.

    A tracer constructed under a bound request context (see
    :mod:`repro.obs.log`) captures the request's IDs, and every
    exported span record carries them — the trace tree of a daemon
    request is joinable against the event log and the response by
    ``request_id``.
    """

    def __init__(self):
        self.roots: List[Span] = []
        self.stack: List[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()
        #: True while begin()/end() rework the stack: a collection that
        #: starts then is not spanned (see :func:`_on_gc`).
        self._busy = False
        self._thread = threading.get_ident()
        context = obs_log.current_request()
        self.request_id = context.request_id if context else None
        self.trace_id = context.trace_id if context else None

    # -- recording -------------------------------------------------------

    def begin(self, kind: str, name: str, **attrs) -> Span:
        self._busy = True
        parent = self.stack[-1] if self.stack else None
        span = Span(self._next_id, parent.id if parent else None,
                    kind, name, attrs, time.perf_counter())
        self._next_id += 1
        _SPANS_TOTAL.labels(kind).inc()
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self.stack.append(span)
        self._busy = False
        return span

    def end(self, span: Span, **attrs) -> None:
        self._busy = True
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        # Tolerate exception unwinds that skipped inner end() calls.
        while self.stack and self.stack[-1] is not span:
            dangling = self.stack.pop()
            if dangling.end is None:
                dangling.end = span.end
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        self._busy = False

    @contextmanager
    def span(self, kind: str, name: str, **attrs) -> Iterator[Span]:
        entry = self.begin(kind, name, **attrs)
        try:
            yield entry
        finally:
            self.end(entry)

    # -- queries ---------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Every span, in pre-order."""
        pending = list(reversed(self.roots))
        while pending:
            span = pending.pop()
            yield span
            pending.extend(reversed(span.children))

    def spans_of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.iter_spans() if s.kind == kind]

    # -- export ----------------------------------------------------------

    def to_records(self) -> List[Dict[str, object]]:
        """Span records in pre-order (parents before children)."""
        records = []
        for span in self.iter_spans():
            record = {
                "type": "span",
                "id": span.id,
                "parent": span.parent_id,
                "kind": span.kind,
                "name": span.name,
                "start_ms": round((span.start - self._epoch) * 1e3, 3),
                "dur_ms": round(span.duration * 1e3, 3),
                "self_ms": round(span.self_time * 1e3, 3),
                "attrs": span.attrs,
            }
            if self.request_id is not None:
                record["request_id"] = self.request_id
                record["trace_id"] = self.trace_id
            records.append(record)
        return records

    def to_jsonl(self, metrics: Optional[Dict[str, object]] = None) -> str:
        """The whole trace as JSON Lines: one header record, one record
        per span, and a final metrics record."""
        header: Dict[str, object] = {
            "type": "trace", "version": 1,
            "spans": sum(1 for _ in self.iter_spans())}
        if self.request_id is not None:
            header["request_id"] = self.request_id
            header["trace_id"] = self.trace_id
        lines = [json.dumps(header)]
        for record in self.to_records():
            lines.append(json.dumps(record, default=str))
        if metrics is not None:
            lines.append(json.dumps({"type": "metrics", **metrics},
                                    default=str))
        return "\n".join(lines) + "\n"

    def render(self, max_attr_width: int = 72) -> str:
        """The mcpyrate-style indented human view."""
        lines: List[str] = ["== mayac trace =="]
        pending = [(root, 0) for root in reversed(self.roots)]
        while pending:
            span, depth = pending.pop()
            pad = "  " * depth
            head = f"{pad}{span.kind} {span.name}  [{span.duration * 1e3:.2f} ms]"
            lines.append(head)
            for key in ("mayan", "production", "location", "template"):
                value = span.attrs.get(key)
                if value:
                    lines.append(f"{pad}  {key}: {value}")
            for key in ("before", "after"):
                value = span.attrs.get(key)
                if value:
                    text = " ".join(str(value).split())
                    if len(text) > max_attr_width:
                        text = text[:max_attr_width] + "..."
                    lines.append(f"{pad}  {key}: {text}")
            pending.extend((child, depth + 1)
                           for child in reversed(span.children))
        return "\n".join(lines)


#: The process-wide active tracer, or None (the common case) — set by
#: ``mayac --trace``/``--trace-out``.  Hot paths read :func:`current`,
#: which checks the request-scoped override first.
active: Optional[Tracer] = None

#: A request-scoped tracer override: the daemon activates one tracer
#: *per request* in the worker executing it (contextvars do not leak
#: across threads, so concurrent workers never interleave spans).
_scoped: "contextvars.ContextVar[Optional[Tracer]]" = \
    contextvars.ContextVar("maya_scoped_tracer", default=None)


def current() -> Optional[Tracer]:
    """The tracer in effect here: the request-scoped one if a scope is
    active, else the process-wide one, else None."""
    tracer = _scoped.get()
    return tracer if tracer is not None else active


def activate(tracer: Optional[Tracer] = None) -> Tracer:
    """Make ``tracer`` (a fresh one by default) the process-wide
    tracer.  Until :func:`deactivate`, every garbage collection on the
    tracer's thread is recorded as a ``gc`` span."""
    global active
    active = tracer if tracer is not None else Tracer()
    if _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)
    return active


def deactivate() -> None:
    global active
    active = None
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)


def _on_gc(event: str, info: Dict[str, int]) -> None:
    """``gc.callbacks`` hook: collections become ``gc`` spans under
    whatever span is open.  Consecutive collections under one open span
    share a span that counts them (``collections``, ``collected``; the
    name is the oldest generation reached), so a long ``interp`` phase
    holds one ``gc`` child, not thousands; a merged span's start moves
    up so that its duration is the sum of its collections.  A
    collection that starts inside begin() or end() (the stack is
    mid-change there) or on another thread is not spanned; its time
    stays in the enclosing span."""
    tracer = active
    if tracer is None or tracer._thread != threading.get_ident():
        return
    stack = tracer.stack
    if event == "start":
        if tracer._busy:
            return
        siblings = stack[-1].children if stack else tracer.roots
        if siblings and siblings[-1].kind == "gc":
            span = siblings[-1]
            span.start, span.end = time.perf_counter() - span.duration, None
            stack.append(span)
        else:
            tracer.begin("gc", "gen0", collections=0, collected=0)
    elif stack and stack[-1].kind == "gc":
        span = stack[-1]
        span.attrs["collections"] += 1
        span.attrs["collected"] += info["collected"]
        span.name = f"gen{max(info['generation'], int(span.name[3:]))}"
        tracer.end(span)


class collector_paused:
    """Pause the automatic collector for a ``with`` block, on the main
    thread only, and restore its prior state on the way out.  For work
    that makes no cyclic garbage: the survivors it allocates are then
    scanned once, by the first collection after the block, at the
    caller's next allocation.  Other threads never touch the
    process-wide switch.  A class, not a generator: a generator's exit
    allocates its ``StopIteration``, which would start that collection
    before the block's caller resumes."""

    def __enter__(self) -> None:
        self._paused = gc.isenabled() and \
            threading.current_thread() is threading.main_thread()
        if self._paused:
            gc.disable()

    def __exit__(self, kind, value, traceback) -> None:
        if self._paused:
            gc.enable()


@contextmanager
def scoped(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate ``tracer`` for this dynamic extent only (the daemon's
    per-request tracing; nested scopes restore the outer tracer)."""
    if tracer is None:
        tracer = Tracer()
    token = _scoped.set(tracer)
    try:
        yield tracer
    finally:
        _scoped.reset(token)


@contextmanager
def phase(name: str) -> Iterator[None]:
    """A compiler phase.  Pushes the thread-local phase label that
    metrics recorded inside it are attributed to (see
    :func:`repro.obs.metrics.current_phase`) and, when a tracer is
    current, records a ``phase`` span whose self time is added to the
    ``maya_phase_*`` families when it ends."""
    push_phase(name)
    tracer = current()
    entry = tracer.begin("phase", name) if tracer is not None else None
    try:
        yield
    finally:
        pop_phase()
        if entry is not None:
            tracer.end(entry)
            _PHASE_SECONDS.labels(name).inc(entry.self_time)
            _PHASE_RUNS.labels(name).inc()


@contextmanager
def span(kind: str, name: str, **attrs) -> Iterator[Optional[Span]]:
    """Span context manager that no-ops when tracing is off."""
    tracer = current()
    if tracer is None:
        yield None
    else:
        with tracer.span(kind, name, **attrs) as entry:
            yield entry
