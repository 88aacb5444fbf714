"""mayad: the compile daemon.

One process, many tenants.  The daemon amortizes everything expensive
— the base-grammar singleton, LALR table generation (the process-wide
fingerprint-keyed cache), compiled-artifact payloads — while keeping
everything *mutable* strictly per-request: each compile gets a fresh
:class:`CompileEnv` (own grammar copy, type registry, dispatcher,
diagnostic engine), so one tenant's ``use``/``syntax`` extensions can
never leak into another's parse.

Robustness model (each arrow is a tested degradation, never a dead
daemon):

* **admission control** — a bounded queue; when it is full the request
  is shed *immediately* with a structured ``overloaded`` response and
  a retry hint, instead of joining an unbounded latency tail;
* **deadlines** — every request carries a wall-clock budget that
  composes with the per-compile fuel/step budgets
  (``DiagnosticEngine.deadline``): the connection handler stops
  waiting at the deadline, and the compile itself trips cooperatively
  at the next Mayan activation or member boundary;
* **crash containment** — a request that kills its worker
  (:class:`repro.faults.WorkerCrash`, or any escaped non-diagnostic
  error) is quarantined and re-run **once** on a fresh thread in
  degraded single-shot mode (fresh env, shared caches bypassed); only
  if that also dies is ``worker-crashed`` reported.  The pool replaces
  the dead worker either way;
* **hang containment** — a worker still busy past its request's
  deadline is marked a zombie (it exits after its current request) and
  replaced, so capacity cannot wedge behind a hung compile;
* **cache hygiene** — the shared in-memory caches are content-keyed
  and bounded (:class:`repro.store.LRUCache`); a served artifact-cache
  hit is a copy, so annotating it never touches the stored entry; a
  degraded re-run neither reads nor feeds any shared cache; corrupt
  entries in the on-disk table and module caches are quarantined and
  regenerated (:mod:`repro.store`).

Compile requests may also carry a ``run`` option naming a class whose
``main()`` is interpreted in the worker after a successful compile
(on the interpreter's default backend, pycode); captured output rides
back on the response.
"""

from __future__ import annotations

import itertools
import json
import os
import queue as queue_mod
import socket
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro import faults, trace
from repro.core.compiler import MayaCompiler
from repro.core.env import CompileEnv
from repro.diag import CompileFailed, DeadlineExceededError, DiagnosticError
from repro.lalr import tables as lalr_tables
from repro.obs import export as obs_export
from repro.obs import log as obs_log
from repro.obs import profile as obs_profile
from repro.obs.metrics import REGISTRY, family_total
from repro.server import protocol, state
from repro.server.protocol import (
    STATUS_BAD_REQUEST,
    STATUS_COMPILE_ERROR,
    STATUS_DEADLINE,
    STATUS_INTERNAL,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
    STATUS_WORKER_CRASHED,
    error_response,
)
from repro.store import LRUCache

REQUESTS = REGISTRY.counter(
    "maya_server_requests_total", "Requests by operation and outcome.",
    labelnames=("op", "status"))
QUEUE_DEPTH = REGISTRY.gauge(
    "maya_server_queue_depth", "Compile requests queued right now.")
SHED = REGISTRY.counter(
    "maya_server_shed_total", "Requests rejected by admission control.")
DEADLINES = REGISTRY.counter(
    "maya_server_deadline_total", "Requests that hit their deadline.")
CRASHES = REGISTRY.counter(
    "maya_server_worker_crashes_total", "Worker crashes by containment "
    "outcome.", labelnames=("outcome",))
WORKERS = REGISTRY.gauge(
    "maya_server_workers", "Live (non-zombie) worker threads.")
REPLACED = REGISTRY.counter(
    "maya_server_workers_replaced_total",
    "Workers replaced after a crash or hang.")
DISCONNECTS = REGISTRY.counter(
    "maya_server_client_disconnects_total",
    "Connections dropped mid-conversation by the client.")
REQUEST_MS = REGISTRY.histogram(
    "maya_server_request_ms", "End-to-end compile request latency (ms).",
    bounds=(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000))

_STOP = object()

#: Upper bounds on a request's ``fuel`` and ``max_errors`` options.
FUEL_CAP = 1024
MAX_ERRORS_CAP = 200
#: The rolling latency reservoir the ``stats`` op computes its
#: p50/p95/p99 from (most recent N compile requests).
LATENCY_WINDOW = 512


class DaemonConfig:
    """Tunables for one :class:`MayaDaemon`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 socket_path: Optional[str] = None, workers: int = 4,
                 queue_size: int = 16, default_deadline_s: float = 30.0,
                 max_deadline_s: float = 120.0, prewarm: bool = True,
                 module_cache_dir: Optional[str] = None,
                 slow_request_ms: float = 1000.0,
                 metrics_out: Optional[str] = None,
                 log_out: Optional[str] = None,
                 log_level: Optional[str] = None):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.workers = max(1, workers)
        self.queue_size = max(1, queue_size)
        self.default_deadline_s = default_deadline_s
        self.max_deadline_s = max_deadline_s
        self.prewarm = prewarm
        #: Workers share one on-disk incremental module cache:
        #: multi-file compile requests reuse any module whose transitive
        #: fingerprint matches, whichever worker built it last.
        self.module_cache_dir = (module_cache_dir
                                 or os.environ.get("MAYA_MODULE_CACHE")
                                 or None)
        #: Requests slower than this end-to-end (queue wait included)
        #: land in the slow-request log with their span breakdown.
        self.slow_request_ms = slow_request_ms
        #: When set, the ``stats`` op and SIGUSR1 flush a fresh JSON
        #: metrics snapshot here — live introspection, not post-mortem.
        self.metrics_out = metrics_out
        #: Event-log file sink and threshold for this daemon process.
        self.log_out = log_out
        self.log_level = log_level


class _Request:
    """One queued compile: payload plus its result future."""

    __slots__ = ("payload", "options", "received", "deadline", "done",
                 "response", "abandoned", "worker", "degraded", "_lock",
                 "context", "breakdown", "phases")

    def __init__(self, payload: dict, deadline: float,
                 context: Optional["obs_log.RequestContext"] = None):
        self.payload = payload
        self.options = payload.get("options") or {}
        self.received = time.monotonic()
        self.deadline = deadline
        self.done = threading.Event()
        self.response: Optional[dict] = None
        self.abandoned = False
        self.worker: Optional["_Worker"] = None
        self.degraded = False
        self._lock = threading.Lock()
        #: The request context every thread touching this request binds
        #: (handler, worker, degraded re-run) — one shared object, so
        #: outcomes accumulate in one place.
        self.context = context if context is not None \
            else obs_log.RequestContext()
        #: Span-tree summary and per-phase self milliseconds, read
        #: from the executing worker's request tracer (they feed the
        #: slow-request log and the response's ``stats.phases``).
        self.breakdown: Optional[List[dict]] = None
        self.phases: Dict[str, float] = {}

    def resolve(self, response: dict) -> bool:
        """First writer wins; later resolutions (a zombie worker
        finishing after the handler timed out) are dropped."""
        with self._lock:
            if self.response is not None:
                return False
            self.response = response
        self.done.set()
        return True


class _Worker:
    __slots__ = ("thread", "current", "zombie", "name")

    def __init__(self, name: str):
        self.name = name
        self.thread: Optional[threading.Thread] = None
        self.current: Optional[_Request] = None
        self.zombie = False


class MayaDaemon:
    """The compile service: listener, admission queue, worker pool."""

    def __init__(self, config: Optional[DaemonConfig] = None):
        self.config = config or DaemonConfig()
        self.artifacts = LRUCache(state.ARTIFACT_CACHE_SIZE,
                                  "server.artifacts")
        self._queue: "queue_mod.Queue" = queue_mod.Queue(
            self.config.queue_size)
        self._workers: List[_Worker] = []
        self._pool_lock = threading.Lock()
        self._worker_seq = itertools.count(1)
        self._request_seq = itertools.count(1)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        self._started_at = 0.0
        self.prewarm_s = 0.0
        #: Zombie workers still grinding past their request's deadline
        #: (marked by _contain_overdue, reaped by _retire).
        self._zombies: List[_Worker] = []
        #: Rolling end-to-end latencies (ms) of recent compile requests
        #: — the ``stats`` op's p50/p95/p99 come from here, so they
        #: reflect *current* behavior, not the process lifetime.
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        #: The most recent slow requests (span breakdown included).
        self.slow_requests: "deque[dict]" = deque(maxlen=32)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> str:
        if self.config.socket_path:
            return self.config.socket_path
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "MayaDaemon":
        if self.config.socket_path:
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            self._listener.bind(self.config.socket_path)
        else:
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind((self.config.host, self.config.port))
        self._listener.listen(64)
        self._running = True
        self._started_at = time.monotonic()
        if self.config.log_level:
            obs_log.LOG.set_level(self.config.log_level)
        if self.config.log_out:
            obs_log.LOG.set_sink(self.config.log_out)
        if self.config.prewarm:
            self.prewarm_s = state.prewarm()
        with self._pool_lock:
            for _ in range(self.config.workers):
                self._spawn_worker_locked()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="mayad-accept", daemon=True)
        self._accept_thread.start()
        obs_log.emit("server.start", address=self.address,
                     workers=self.config.workers,
                     prewarm_ms=round(self.prewarm_s * 1000.0, 1))
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: refuse new work, drain workers, close."""
        if not self._running:
            return
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        with self._pool_lock:
            workers = list(self._workers)
        # Wake the workers without ever blocking: the admission queue
        # may be full behind hung workers (exactly the fault-drill
        # scenario), and a blocking put would wedge graceful stop.
        # Drain queued requests with a shutting-down answer, then hand
        # out sentinels best-effort — workers also poll the running
        # flag, so a lost sentinel only costs one poll interval.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue_mod.Empty:
                break
            if pending is _STOP:
                continue
            QUEUE_DEPTH.dec()
            pending.resolve(error_response(STATUS_SHUTTING_DOWN,
                                           "daemon is shutting down"))
        for _ in workers:
            try:
                self._queue.put_nowait(_STOP)
            except queue_mod.Full:
                break
        deadline = time.monotonic() + timeout
        for worker in workers:
            remaining = max(0.0, deadline - time.monotonic())
            if worker.thread is not None:
                worker.thread.join(remaining)
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    # -- listener ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            threading.Thread(target=self._handle_connection, args=(conn,),
                             name="mayad-conn", daemon=True).start()

    def _handle_connection(self, conn: socket.socket) -> None:
        shutdown_after = False
        try:
            while True:
                request = protocol.recv_frame(conn)
                if request is None:
                    return  # clean EOF
                response = self._dispatch(request)
                protocol.send_frame(conn, response)
                if request.get("op") == "shutdown" \
                        and response.get("status") == STATUS_OK:
                    shutdown_after = True
                    return
        except protocol.ProtocolError as error:
            # Malformed frame or the client vanished mid-frame: answer
            # if the socket still works, then drop the connection.
            DISCONNECTS.inc()
            try:
                protocol.send_frame(
                    conn, error_response(STATUS_BAD_REQUEST, str(error)))
            except (OSError, protocol.ProtocolError):
                pass
        except (ConnectionError, OSError, faults.InjectedFault):
            # The client vanished — or a socket-site fault fired.  Either
            # way only this connection dies, never the daemon.
            DISCONNECTS.inc()
        finally:
            try:
                conn.close()
            except OSError:
                pass
            if shutdown_after:
                self.stop()

    # -- request dispatch --------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        op = str(request.get("op", ""))
        # The daemon mints the request ID; the *client* mints the trace
        # ID (top-level or under options), so one logical request keeps
        # one trace across retries and degraded re-runs.  A malformed
        # trace ID is ignored, never an error: tracing must not be able
        # to fail a compile.
        trace_id = request.get("trace_id")
        if trace_id is None and isinstance(request.get("options"), dict):
            trace_id = request["options"].get("trace_id")
        if not (isinstance(trace_id, str)
                and obs_log.TRACE_ID_RE.match(trace_id)):
            trace_id = None
        context = obs_log.RequestContext(trace_id=trace_id)
        with obs_log.request_scope(context):
            response = self._dispatch_op(op, request)
        # Every response names the request that produced it.  Cached
        # artifact responses had their original IDs stripped at store
        # time, so setdefault always stamps the *current* request's.
        response.setdefault("request_id", context.request_id)
        response.setdefault("trace_id", context.trace_id)
        return response

    def _dispatch_op(self, op: str, request: dict) -> dict:
        if op == "ping":
            REQUESTS.labels(op="ping", status=STATUS_OK).inc()
            return self._ping_response()
        if op == "metrics":
            REQUESTS.labels(op="metrics", status=STATUS_OK).inc()
            return {"protocol": protocol.PROTOCOL_VERSION,
                    "status": STATUS_OK,
                    "metrics": obs_export.to_json(REGISTRY)}
        if op == "stats":
            REQUESTS.labels(op="stats", status=STATUS_OK).inc()
            return self._stats_response()
        if op == "shutdown":
            REQUESTS.labels(op="shutdown", status=STATUS_OK).inc()
            return {"protocol": protocol.PROTOCOL_VERSION,
                    "status": STATUS_OK, "stopping": True}
        if op == "compile":
            response = self._handle_compile(request)
            REQUESTS.labels(op="compile",
                            status=str(response.get("status"))).inc()
            return response
        REQUESTS.labels(op=op or "<missing>",
                        status=STATUS_BAD_REQUEST).inc()
        return error_response(STATUS_BAD_REQUEST, f"unknown op {op!r}")

    def _ping_response(self) -> dict:
        with self._pool_lock:
            live = sum(1 for w in self._workers if not w.zombie)
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "status": STATUS_OK,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": live,
            "queue_depth": self._queue.qsize(),
            "faults": faults.active_plan().spec,
        }

    # -- live introspection ------------------------------------------------

    def _stats_response(self) -> dict:
        """The ``stats`` op: one structured snapshot of everything the
        daemon knows about itself *right now* — worker states, queue,
        rolling latency percentiles, degradation counters, cache hit
        ratios — rendered by ``mayac --daemon-status`` and the
        ``repro.server.top`` watch view."""
        with self._pool_lock:
            busy = sum(1 for w in self._workers if w.current is not None)
            live = len(self._workers)
            zombies = len(self._zombies)
        latencies = sorted(self._latencies)
        requests_by: Dict[str, Dict[str, float]] = {}
        for labels, child in REQUESTS.samples():
            op, status = labels
            requests_by.setdefault(op, {})[status] = child.value
        stats = {
            "protocol": protocol.PROTOCOL_VERSION,
            "status": STATUS_OK,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "address": self.address,
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.queue_size,
            },
            "workers": {
                "configured": self.config.workers,
                "live": live,
                "busy": busy,
                "idle": live - busy,
                "zombies": zombies,
                "replaced_total": int(family_total(
                    "maya_server_workers_replaced_total")),
            },
            "latency_ms": {
                "window": len(latencies),
                "p50": _percentile(latencies, 50),
                "p95": _percentile(latencies, 95),
                "p99": _percentile(latencies, 99),
            },
            "degradations": {
                "shed_total": int(family_total("maya_server_shed_total")),
                "deadline_total": int(family_total(
                    "maya_server_deadline_total")),
                "crashes": {
                    labels[0]: int(child.value)
                    for labels, child in CRASHES.samples()
                },
                "disconnects_total": int(family_total(
                    "maya_server_client_disconnects_total")),
            },
            "requests": requests_by,
            "caches": self._cache_stats(),
            "modules": {
                "compiled_total": int(family_total(
                    "maya_modules_compiled_total")),
                "reused_total": int(family_total(
                    "maya_modules_reused_total")),
            },
            "slow_requests": list(self.slow_requests),
            "slow_request_ms": self.config.slow_request_ms,
            "log": {"level": obs_log.LOG.level,
                    "emitted": obs_log.LOG.emitted,
                    "buffered": len(obs_log.LOG)},
            "faults": faults.active_plan().spec,
        }
        if self.config.metrics_out:
            # satellite contract: a live `stats` op flushes a fresh
            # metrics snapshot to disk, same as SIGUSR1.
            stats["metrics_out"] = self.flush_metrics()
        return stats

    def _cache_stats(self) -> Dict[str, dict]:
        """Per-cache events and hit ratio (the ``--profile`` reader)."""
        caches: Dict[str, dict] = obs_profile.hit_rates()
        for events in caches.values():
            if "hit_ratio" in events:
                events["hit_ratio"] = round(events["hit_ratio"], 4)
        return caches

    def flush_metrics(self, path: Optional[str] = None) -> Optional[str]:
        """Write a fresh JSON metrics snapshot to ``path`` (default:
        the configured ``metrics_out``) — the live ``--metrics-out``:
        the ``stats`` op and SIGUSR1 both land here.  Atomic via
        tmp-and-rename; returns the path written, or None."""
        path = path or self.config.metrics_out
        if not path:
            return None
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(obs_export.to_json(REGISTRY), handle, indent=2,
                      default=str)
            handle.write("\n")
        os.replace(tmp, path)
        obs_log.emit("server.metrics.flush", level="debug", path=path)
        return path

    # -- compile path ------------------------------------------------------

    def _handle_compile(self, payload: dict) -> dict:
        source = payload.get("source")
        sources = payload.get("sources")
        roots = payload.get("roots")
        filename = payload.get("filename") or "<daemon>"
        if sources is not None:
            # Multi-file request: every module's source rides in the
            # payload, plus the root module names to build from.
            if (not isinstance(sources, dict) or not sources
                    or not all(isinstance(k, str) and isinstance(v, str)
                               for k, v in sources.items())):
                return error_response(
                    STATUS_BAD_REQUEST,
                    "'sources' must be a non-empty object of "
                    "module name -> source text")
            if (not isinstance(roots, list) or not roots
                    or not all(isinstance(r, str) for r in roots)):
                return error_response(
                    STATUS_BAD_REQUEST,
                    "multi-file compile requests need a 'roots' list "
                    "of module names")
            # One canonical string stands in for 'the source' so the
            # artifact cache stays content-addressed for module jobs.
            source = json.dumps({"roots": roots, "sources": sources},
                                sort_keys=True)
            filename = "<modules>"
        elif not isinstance(source, str):
            return error_response(STATUS_BAD_REQUEST,
                                  "compile request needs a string 'source'")
        if not self._running:
            return error_response(STATUS_SHUTTING_DOWN,
                                  "daemon is shutting down")

        options = payload.get("options") or {}
        if not isinstance(options, dict):
            return error_response(STATUS_BAD_REQUEST,
                                  "'options' must be an object")
        deadline_s = options.get("deadline_ms")
        try:
            deadline_s = (float(deadline_s) / 1000.0
                          if deadline_s is not None
                          else self.config.default_deadline_s)
        except (TypeError, ValueError):
            return error_response(STATUS_BAD_REQUEST,
                                  "'deadline_ms' must be a number")
        deadline_s = min(max(deadline_s, 0.001), self.config.max_deadline_s)
        started = time.monotonic()
        context = obs_log.current_request() or obs_log.RequestContext()
        request = _Request(payload, deadline=started + deadline_s,
                           context=context)
        obs_log.emit("server.request.received", filename=filename,
                     deadline_ms=round(deadline_s * 1000.0, 1),
                     queue_depth=self._queue.qsize())

        # Content-addressed artifact cache: a hit skips the queue
        # entirely (the cached response *is* the right answer).
        key = None
        if options.get("cache", True):
            key = state.artifact_key(source, filename, options)
            entry = self.artifacts.get(key)
            if entry is not None:
                # Serve a copy: the response is annotated per request.
                cached = dict(entry, cached=True)
                elapsed_ms = (time.monotonic() - started) * 1000.0
                context.note(artifact="hit")
                cached["stats"] = {"cached": True, "wait_ms": 0.0,
                                   "outcomes": dict(context.outcomes)}
                REQUEST_MS.observe(elapsed_ms)
                self._latencies.append(elapsed_ms)
                obs_log.emit("server.request.done", status=STATUS_OK,
                             cached=True, total_ms=round(elapsed_ms, 3))
                return cached
            context.note(artifact="miss")
        else:
            context.note(artifact="bypass")

        # Admission control: a full queue sheds *now*, with a hint.
        try:
            self._queue.put_nowait(request)
        except queue_mod.Full:
            SHED.inc()
            obs_log.emit("server.request.shed", level="warn",
                         queue_depth=self.config.queue_size)
            return error_response(
                STATUS_OVERLOADED,
                f"compile queue is full ({self.config.queue_size} deep); "
                f"retry with backoff",
                queue_depth=self.config.queue_size,
                retry_after_ms=50)
        QUEUE_DEPTH.inc()

        finished = request.done.wait(max(0.0, request.deadline
                                         - time.monotonic()) + 0.05)
        if not finished:
            request.abandoned = True
            DEADLINES.inc()
            self._contain_overdue(request)
            obs_log.emit("server.request.deadline", level="warn",
                         deadline_ms=round(deadline_s * 1000.0, 1),
                         abandoned=True)
            return error_response(
                STATUS_DEADLINE,
                f"request exceeded its {deadline_s * 1000:.0f}ms deadline",
                deadline_ms=deadline_s * 1000.0)
        response = request.response
        elapsed_ms = (time.monotonic() - started) * 1000.0
        REQUEST_MS.observe(elapsed_ms)
        self._latencies.append(elapsed_ms)
        if response.get("status") == STATUS_DEADLINE:
            # Cooperative trip inside the grace window (the abandoned
            # path above counted its own).
            DEADLINES.inc()
        if key is not None and not response.get("degraded") \
                and response.get("status") in (STATUS_OK,
                                               STATUS_COMPILE_ERROR):
            # Deadline responses never reach the artifact cache: the
            # key excludes deadline_ms, so caching one would serve
            # 'deadline exceeded' to later, amply-budgeted requests.
            # Nor does a degraded re-run's, which bypassed the shared
            # caches; a later request that never crashed must not be
            # served a 'degraded' answer.  Per-request annotations are
            # stripped: the ids of a hit are the hitting request's.
            self.artifacts.put(key, {
                name: value for name, value in response.items()
                if name not in ("stats", "request_id", "trace_id")})
        stats = response.setdefault("stats", {})
        stats["total_ms"] = round(elapsed_ms, 3)
        if request.phases:
            stats["phases"] = request.phases
        if context.outcomes:
            stats["outcomes"] = dict(context.outcomes)
        obs_log.emit("server.request.done",
                     status=str(response.get("status")),
                     total_ms=round(elapsed_ms, 3),
                     degraded=bool(response.get("degraded")))
        if elapsed_ms >= self.config.slow_request_ms:
            self._record_slow(request, response, elapsed_ms)
        return response

    def _record_slow(self, request: _Request, response: dict,
                     elapsed_ms: float) -> None:
        """Capture a finished slow request (span-tree breakdown
        included) into the rolling slow-request log."""
        entry = {
            "request_id": request.context.request_id,
            "trace_id": request.context.trace_id,
            "filename": request.payload.get("filename") or "<daemon>",
            "status": str(response.get("status")),
            "total_ms": round(elapsed_ms, 3),
            "phases": request.phases,
            "outcomes": dict(request.context.outcomes),
            "breakdown": request.breakdown or [],
        }
        self.slow_requests.append(entry)
        obs_log.emit("server.request.slow", level="warn",
                     total_ms=round(elapsed_ms, 3),
                     threshold_ms=self.config.slow_request_ms,
                     spans=len(entry["breakdown"]))

    def _execute(self, request: _Request, degraded: bool = False) -> dict:
        """Run one compile under its own request tracer (contextvars
        keep concurrent workers' spans apart).  The span tree is the
        request's only timer: ``stats.phases`` and the slow-request
        breakdown are both read from it."""
        with trace.scoped(trace.Tracer()) as tracer:
            response = self._execute_inner(request, degraded)
        request.breakdown = _span_breakdown(tracer)
        request.phases = _phase_self_ms(tracer)
        return response

    def _execute_inner(self, request: _Request,
                       degraded: bool = False) -> dict:
        """Run one compile in a fresh, isolated environment."""
        payload = request.payload
        options = request.options
        fuel = _bounded_int(options.get("fuel"), FUEL_CAP)
        max_errors = _bounded_int(options.get("max_errors"), MAX_ERRORS_CAP)
        env = CompileEnv.fresh_session(fuel=fuel, max_errors=max_errors,
                                       deadline=request.deadline)
        engine = env.diag
        started = time.perf_counter()
        modules_result = None
        try:
            faults.check(faults.SITE_WORKER_EXECUTE)
            # A degraded rerun bypasses the shared table cache: a
            # poisoned entry must not be able to kill the rerun too.
            with lalr_tables.bypass_caches() if degraded else nullcontext():
                if payload.get("sources") is not None:
                    modules_result = self._module_builder(
                        payload, options, env, degraded).build(
                            payload["roots"],
                            need_bodies=bool(options.get("run")))
                    program = modules_result.program
                else:
                    program = MayaCompiler(env).configure(options).compile(
                        source=payload["source"],
                        filename=payload.get("filename") or "<daemon>")
        except DeadlineExceededError:
            # A cooperative deadline trip is a service condition, not a
            # source error: report STATUS_DEADLINE so clients can tell
            # a timeout from a bad program (and the handler never
            # caches it under a deadline-blind artifact key).
            return self._deadline_response(request)
        except CompileFailed as failure:
            if any(isinstance(diag.cause, DeadlineExceededError)
                   for diag in failure.diagnostics):
                # Per-member recovery absorbed the trip mid-run: the
                # diagnostics are truncated by timing, so this is a
                # deadline outcome too.
                return self._deadline_response(request)
            return self._compile_error(engine, failure.diagnostics)
        except DiagnosticError as failure:
            return self._compile_error(engine, [failure.diagnostic])
        response = {
            "protocol": protocol.PROTOCOL_VERSION,
            "status": STATUS_OK,
            "classes": sorted(program.classes),
            "stats": {"compile_ms": round(
                (time.perf_counter() - started) * 1000.0, 3)},
        }
        if degraded:
            response["degraded"] = True
        if modules_result is not None:
            request.context.note(
                modules_recompiled=len(modules_result.recompiled),
                modules_reused=len(modules_result.reused))
            response["modules"] = {
                "order": modules_result.order,
                "recompiled": modules_result.recompiled,
                "reused": modules_result.reused,
            }
        if options.get("expand"):
            response["expanded"] = modules_result.expanded() \
                if modules_result is not None \
                else program.source(provenance=bool(
                    options.get("provenance")))
        if options.get("run"):
            response["run"] = self._run_program(program, options)
        return response

    def _module_builder(self, payload: dict, options: dict,
                        env: CompileEnv, degraded: bool):
        """A ModuleBuilder for one multi-file request.  Degraded re-runs
        bypass the shared module cache (same reasoning as the LALR
        bypass: a poisoned entry must not kill the rerun).

        The build is serial: the daemon is multithreaded, so it cannot
        fork workers, and threads cannot overlap CPU-bound compiles
        under the GIL.  Requests overlap across workers instead."""
        from repro.modules import MemorySources, ModuleBuilder

        return ModuleBuilder(
            MemorySources(payload["sources"]),
            cache_dir=None if degraded else self.config.module_cache_dir,
            options=options,
            env=env)

    @staticmethod
    def _run_program(program, options: dict) -> dict:
        """Interpret ``options['run']``.main() in this worker.

        Uses the interpreter's default backend (``MAYA_BACKEND``, else
        pycode) unless the request names one.  Failures are *this
        request's* problem: they ride back under the ``run`` key, never
        as a compile error."""
        from repro.interp import Interpreter, JavaThrow

        cls = str(options.get("run"))
        backend = options.get("backend") or None
        run_started = time.perf_counter()
        try:
            interp = Interpreter(program, backend=backend)
        except Exception as error:
            return {"class": cls, "error": str(error), "output": []}
        result: dict = {"class": cls, "output": interp.output}
        try:
            value = interp.run_static(cls)
            if isinstance(value, (bool, int, float, str, type(None))):
                result["value"] = value
        except JavaThrow as thrown:
            result["error"] = str(thrown)
            result["thrown"] = thrown.value.class_type.name
        except Exception as error:
            result["error"] = str(error)
        result["run_ms"] = round(
            (time.perf_counter() - run_started) * 1000.0, 3)
        return result

    @staticmethod
    def _deadline_response(request: _Request) -> dict:
        budget_ms = (request.deadline - request.received) * 1000.0
        return error_response(
            STATUS_DEADLINE,
            f"compile tripped its {budget_ms:.0f}ms deadline mid-run "
            f"(raise deadline_ms, or simplify the expansion)",
            deadline_ms=round(budget_ms, 3))

    @staticmethod
    def _compile_error(engine, diagnostics) -> dict:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "status": STATUS_COMPILE_ERROR,
            "diagnostics": [{
                "message": diag.message,
                "severity": diag.severity,
                "phase": diag.phase,
                "span": str(diag.span) if diag.span is not None else None,
                "rendered": engine.render(diag),
            } for diag in diagnostics],
        }

    # -- worker pool -------------------------------------------------------

    def _spawn_worker_locked(self) -> _Worker:
        worker = _Worker(f"mayad-worker-{next(self._worker_seq)}")
        worker.thread = threading.Thread(
            target=self._worker_loop, args=(worker,), name=worker.name,
            daemon=True)
        self._workers.append(worker)
        WORKERS.inc()
        worker.thread.start()
        return worker

    def _worker_loop(self, worker: _Worker) -> None:
        while True:
            try:
                request = self._queue.get(timeout=0.5)
            except queue_mod.Empty:
                # Polling backstop for stop(): its sentinels are
                # put_nowait, so a full-queue race may lose one.
                if not self._running:
                    self._retire(worker)
                    return
                continue
            if request is _STOP:
                self._retire(worker)
                return
            QUEUE_DEPTH.dec()
            if request.abandoned:
                # Expired while queued: the handler already answered.
                request.resolve(error_response(
                    STATUS_DEADLINE, "expired before a worker was free"))
                continue
            worker.current = request
            request.worker = worker
            # Re-bind the request's own context on this thread: every
            # event, span, phase timing, and diagnostic the compile
            # produces carries the request's IDs.
            with obs_log.request_scope(request.context):
                obs_log.emit(
                    "server.request.start", level="debug",
                    worker=worker.name,
                    wait_ms=round((time.monotonic() - request.received)
                                  * 1000.0, 3))
                try:
                    response = self._execute(request)
                except faults.WorkerCrash:
                    worker.current = None
                    self._contain_crash(worker, request)
                    return  # this worker is dead
                except Exception as error:
                    # An escaped non-diagnostic error is a server bug,
                    # but it is *this request's* problem only.
                    response = error_response(
                        STATUS_INTERNAL,
                        f"{type(error).__name__}: {error}")
            worker.current = None
            request.resolve(response)
            if worker.zombie:
                self._retire(worker)
                return

    def _retire(self, worker: _Worker) -> None:
        with self._pool_lock:
            if worker in self._workers:
                self._workers.remove(worker)
                WORKERS.dec()
            elif worker in self._zombies:
                # Zombies left the live pool (and its gauge) when they
                # were marked; finishing just reaps the bookkeeping.
                self._zombies.remove(worker)

    def _contain_crash(self, worker: _Worker, request: _Request) -> None:
        """A worker died executing ``request``: replace the worker and
        quarantine the request for one degraded re-run."""
        obs_log.emit("server.worker.crash", level="error",
                     worker=worker.name,
                     degraded_already=request.degraded)
        self._retire(worker)
        if self._running:
            with self._pool_lock:
                self._spawn_worker_locked()
            REPLACED.inc()
        if request.degraded:
            CRASHES.labels(outcome="degraded_failed").inc()
            request.resolve(error_response(
                STATUS_WORKER_CRASHED,
                "request crashed its worker twice (original and degraded "
                "re-run); giving up"))
            return
        CRASHES.labels(outcome="contained").inc()
        request.degraded = True

        def rerun() -> None:
            # Same request, new thread: re-bind the same context so the
            # degraded re-run's events join the original's trail.
            with obs_log.request_scope(request.context):
                obs_log.emit("server.request.degraded", level="warn",
                             worker=worker.name)
                try:
                    response = self._execute(request, degraded=True)
                except faults.WorkerCrash:
                    CRASHES.labels(outcome="degraded_failed").inc()
                    response = error_response(
                        STATUS_WORKER_CRASHED,
                        "request crashed its worker twice (original and "
                        "degraded re-run); giving up")
                except Exception as error:
                    response = error_response(
                        STATUS_INTERNAL,
                        f"degraded re-run failed: "
                        f"{type(error).__name__}: {error}")
            request.resolve(response)

        threading.Thread(target=rerun, name="mayad-quarantine",
                         daemon=True).start()

    def _contain_overdue(self, request: _Request) -> None:
        """The deadline passed: if a worker is still grinding on this
        request, zombie it (it exits after finishing) and backfill."""
        worker = request.worker
        if worker is None or worker.current is not request:
            return
        with self._pool_lock:
            if worker.zombie or worker not in self._workers:
                return
            worker.zombie = True
            WORKERS.dec()
            self._workers.remove(worker)
            self._zombies.append(worker)
            self._spawn_worker_locked()
        REPLACED.inc()
        obs_log.emit("server.worker.zombie", level="warn",
                     worker=worker.name,
                     **request.context.ids())


def _bounded_int(value, cap: int) -> Optional[int]:
    if value is None:
        return None
    try:
        return max(1, min(int(value), cap))
    except (TypeError, ValueError):
        return None


def _percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(pct / 100.0 * len(sorted_values))) - 1))
    return round(sorted_values[rank], 3)


def _span_breakdown(tracer: "trace.Tracer",
                    max_spans: int = 48) -> List[dict]:
    """A compact pre-order span-tree summary for the slow-request log:
    depth-tagged, attribute-free, capped so a pathological expansion
    cannot bloat the rolling log."""
    breakdown: List[dict] = []
    pending = [(root, 0) for root in reversed(tracer.roots)]
    while pending and len(breakdown) < max_spans:
        span, depth = pending.pop()
        breakdown.append({
            "kind": span.kind,
            "name": span.name,
            "depth": depth,
            "dur_ms": round(span.duration * 1000.0, 3),
            "self_ms": round(span.self_time * 1000.0, 3),
        })
        pending.extend((child, depth + 1)
                       for child in reversed(span.children))
    return breakdown


def _phase_self_ms(tracer: "trace.Tracer") -> Dict[str, float]:
    """Self milliseconds per phase name over the whole span tree."""
    rows = obs_profile.self_times(tracer.spans_of_kind("phase"))
    return {name: round(seconds * 1000.0, 3)
            for name, (seconds, _) in sorted(rows.items())}
