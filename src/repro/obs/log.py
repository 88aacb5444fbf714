"""The structured event log and the request context that stamps it.

Two pieces, both deliberately tiny and stdlib-only (everything else in
the tree may import this module without cycles):

* **The event log** — :class:`EventLog` records leveled, structured
  events into a bounded in-memory ring (plus an optional JSONL file
  sink).  One record is one JSON object sharing the ``--trace-out``
  record discipline: a ``type`` tag (``"event"``), a timestamp, a
  dotted event ``name`` (``server.request.done``,
  ``modules.module.reused``), and free-form fields.  The process-wide
  :data:`LOG` is always on — the ring is bounded, so an idle compiler
  pays one deque append per lifecycle event and nothing per AST node —
  and a file sink turns it into a flight recorder
  (``mayad --log-out`` / ``mayac --log-out``).

* **The request context** — a :mod:`contextvars`-based
  :class:`RequestContext` carrying the ``request_id`` the daemon
  minted and the ``trace_id`` the *client* minted (so one logical
  request keeps one trace across retries, workers, degraded re-runs,
  and module builds).  Every event emitted under a bound context — and
  every trace span, metric exemplar, and diagnostic created under it —
  records both IDs, which is what makes a crash reconstructible from
  the log alone: grep the request_id and the admission, crash,
  degraded re-run, and response events line up.

Contexts bind per *thread of work*, not per thread: the daemon's
connection handler and the worker executing the same request bind the
**same** :class:`RequestContext` object, so outcomes the worker notes
are visible to the handler assembling the response.  (Where the
request's time went is not kept here: it is read from the request's
span tree, see :mod:`repro.trace`.)
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Leveled severities, log4j-shaped.  ``debug`` is for per-module /
#: per-span chatter, ``info`` for request lifecycle, ``warn`` for
#: degradations the service absorbed, ``error`` for failures it
#: reported.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}

#: Well-formedness contracts for the IDs (asserted by the smoke drill:
#: every daemon response and request-scoped log line must match).
REQUEST_ID_RE = re.compile(r"^r-[0-9a-f]{12}$")
TRACE_ID_RE = re.compile(r"^t-[0-9a-f]{16}$")


def mint_request_id() -> str:
    """A fresh server-side request ID (one per daemon request)."""
    return "r-" + uuid.uuid4().hex[:12]


def mint_trace_id() -> str:
    """A fresh client-side trace ID (one per *logical* request — it
    survives retries and degraded re-runs)."""
    return "t-" + uuid.uuid4().hex[:16]


class RequestContext:
    """Everything one in-flight request accumulates.

    ``outcomes`` collects free-form cache/service outcomes
    (``artifact: hit``, ``modules_reused: 3``).  They may be written
    from a worker thread while a zombie or degraded re-run overlaps,
    hence the lock.
    """

    __slots__ = ("request_id", "trace_id", "outcomes", "_lock")

    def __init__(self, request_id: Optional[str] = None,
                 trace_id: Optional[str] = None):
        self.request_id = request_id or mint_request_id()
        self.trace_id = trace_id or mint_trace_id()
        self.outcomes: Dict[str, object] = {}
        self._lock = threading.Lock()

    def note(self, **outcomes) -> None:
        """Record cache/service outcomes onto the request."""
        with self._lock:
            self.outcomes.update(outcomes)

    def ids(self) -> Dict[str, str]:
        return {"request_id": self.request_id, "trace_id": self.trace_id}

    def __repr__(self) -> str:
        return f"<request {self.request_id} trace={self.trace_id}>"


_CONTEXT: "contextvars.ContextVar[Optional[RequestContext]]" = \
    contextvars.ContextVar("maya_request_context", default=None)


def current_request() -> Optional[RequestContext]:
    """The bound request context, or None outside any request."""
    return _CONTEXT.get()


@contextmanager
def request_scope(context: Optional[RequestContext] = None,
                  request_id: Optional[str] = None,
                  trace_id: Optional[str] = None
                  ) -> Iterator[RequestContext]:
    """Bind a request context for the dynamic extent of the block.

    Pass an existing :class:`RequestContext` to *re-bind* the same
    request on another thread (daemon handler -> worker -> degraded
    re-run all share one object); otherwise a fresh one is minted from
    the optional IDs.
    """
    if context is None:
        context = RequestContext(request_id=request_id, trace_id=trace_id)
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


# ---------------------------------------------------------------------------
# The event log
# ---------------------------------------------------------------------------


class EventLog:
    """A leveled, bounded, structured event ring with an optional
    JSONL file sink.

    Events below the threshold cost one dict lookup and a compare;
    events at or above it cost a dict build and a deque append under a
    lock.  The file sink writes one JSON line per event as it happens
    (a flight recorder that survives a crash), flushed per line.
    """

    def __init__(self, capacity: int = 4096, level: str = "info",
                 sink_path: Optional[str] = None):
        if level not in LEVELS:
            raise ValueError(f"bad log level {level!r} "
                             f"(expected one of {sorted(LEVELS)})")
        self._ring: "deque[dict]" = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        self._threshold = LEVELS[level]
        self.level = level
        self._sink = None
        self._sink_path: Optional[str] = None
        #: Monotone count of every record accepted (ring evictions do
        #: not decrement it) — lets tests assert "something was
        #: emitted" without holding the whole ring.
        self.emitted = 0
        if sink_path:
            self.set_sink(sink_path)

    # -- configuration -----------------------------------------------------

    def set_level(self, level: str) -> None:
        if level not in LEVELS:
            raise ValueError(f"bad log level {level!r} "
                             f"(expected one of {sorted(LEVELS)})")
        self.level = level
        self._threshold = LEVELS[level]

    def set_sink(self, path: Optional[str]) -> None:
        """Mirror every accepted event to ``path`` as JSON lines
        (append mode; ``None`` closes the sink)."""
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
                self._sink = None
            self._sink_path = path
            if path:
                directory = os.path.dirname(path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._sink = open(path, "a", encoding="utf-8")

    # -- recording ---------------------------------------------------------

    def emit(self, name: str, level: str = "info", **fields) -> Optional[dict]:
        """Record one event; returns the record, or None when filtered.

        The bound request context's IDs are stamped automatically;
        explicit ``request_id``/``trace_id`` keyword fields win (for
        events about *another* request, e.g. a zombie's)."""
        if LEVELS.get(level, 0) < self._threshold:
            return None
        record: Dict[str, object] = {
            "type": "event",
            "ts": round(time.time(), 6),
            "level": level,
            "name": name,
        }
        context = _CONTEXT.get()
        if context is not None:
            record["request_id"] = context.request_id
            record["trace_id"] = context.trace_id
        record.update(fields)
        with self._lock:
            self.emitted += 1
            self._ring.append(record)
            if self._sink is not None:
                try:
                    self._sink.write(json.dumps(record, default=str) + "\n")
                    self._sink.flush()
                except OSError:
                    # A dead sink must never take the service with it.
                    try:
                        self._sink.close()
                    except OSError:
                        pass
                    self._sink = None
        return record

    # -- queries -----------------------------------------------------------

    def records(self, request_id: Optional[str] = None,
                name: Optional[str] = None,
                trace_id: Optional[str] = None) -> List[dict]:
        """A snapshot of the ring, optionally filtered — ``name`` is a
        prefix match on the dotted event name."""
        with self._lock:
            snapshot = list(self._ring)
        return [
            record for record in snapshot
            if (request_id is None or record.get("request_id") == request_id)
            and (trace_id is None or record.get("trace_id") == trace_id)
            and (name is None or str(record.get("name", "")).startswith(name))
        ]

    def to_jsonl(self) -> str:
        """The whole ring as JSON Lines (the ``--log-out`` payload —
        same one-record-per-line discipline as ``--trace-out``)."""
        with self._lock:
            snapshot = list(self._ring)
        return "".join(json.dumps(record, default=str) + "\n"
                       for record in snapshot)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (f"<EventLog level={self.level} size={len(self._ring)}"
                f"{' sink=' + self._sink_path if self._sink_path else ''}>")


#: The process-wide event log every subsystem records into (the event
#: analogue of ``obs.metrics.REGISTRY``).
LOG = EventLog()


def emit(name: str, level: str = "info", **fields) -> Optional[dict]:
    """Record one event in the process-wide :data:`LOG`."""
    return LOG.emit(name, level=level, **fields)
