"""Forked workers and the one-thread loop that drives ``--jobs N``.

Module compiles are CPU-bound pure Python, so under the GIL threads
cannot make a build faster; the only parallel substrate is processes.
Where ``os.fork`` exists, ``--jobs N`` builds with them: each worker
is a **fork of the already warmed parent** — grammar, macro/
metaprogram namespace, LALR table cache, and the builder itself all
arrive by copy-on-write, so a child compiles a module exactly the way
the parent would have, with no re-setup protocol and no way to drift
from the serial configuration.

:func:`run_dag` walks the import DAG in topological order on the
calling thread.  Every module is one job; a job is **ready** when all
of its direct dependencies have completed, and the ready list is kept
in topological-index order.  A ready job goes only to an *idle*
worker, which is always blocked reading its job pipe, so a send never
deadlocks; the loop then waits on the busy workers' reply pipes with
:mod:`selectors`, and each reply stores the job's value and releases
its dependents.  No thread is ever started, so forking happens in a
single-threaded process by construction.

Determinism is not a property of the schedule — completion order is
whatever the OS gives us — but of what the jobs are allowed to
observe: a job starts only after its deps *finished*, so every compile
sees exactly the dependency surfaces a serial build would have shown
it; and everything order-sensitive that aggregates the values (the
``--module-report``, the ``--expand`` artifact, the program's tables)
is assembled by the builder's serial topological walk afterwards.

**Failure barrier.**  The first failure — an error shipped back from
the child, or a child that dies — halts dispatch: jobs already in
flight finish, nothing new starts.  The failed job and every job
stranded behind it get no value, so the builder's serial walk
recompiles those modules *on the real diagnostic engine*, and the
rendered error is the one a ``--jobs 1`` build produces.  Fork is
unsafe in threaded processes, so the daemon never runs this loop —
its module builds are serial.
"""

from __future__ import annotations

import bisect
import os
import pickle
import selectors
import struct
import sys
import time
from typing import Callable, Dict, List, Mapping, Sequence

from repro.obs.metrics import REGISTRY

PARALLELISM = REGISTRY.histogram(
    "maya_modules_parallelism",
    "Module-build tasks in flight, sampled at each task start "
    "(1.0 everywhere means the DAG or the pool serialized the build).")
TASK_WAIT_MS = REGISTRY.histogram(
    "maya_modules_task_wait_ms",
    "Per-module wait between becoming ready (deps done) and starting "
    "to compile — scheduler/pool queueing, not compile time.")
TASK_RUN_MS = REGISTRY.histogram(
    "maya_modules_task_run_ms",
    "Per-module task run time on a forked worker, from dispatch to "
    "reply.")

_HEADER = struct.Struct("!I")
_MAX_FRAME = 512 * 1024 * 1024


def resolve_jobs(value=None) -> int:
    """The effective ``--jobs`` count.

    Precedence: explicit value, then ``MAYA_JOBS``, then 1 (serial —
    parallelism is opt-in).  It sizes in-process builds only: the
    daemon, being multithreaded, cannot fork and always builds
    serially.
    ``0`` or ``"auto"`` mean one job per CPU.
    """
    if value is None:
        value = os.environ.get("MAYA_JOBS") or 1
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            value = 0
        else:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"bad jobs value {value!r} "
                                 f"(want an integer or 'auto')")
    if value == 0:
        value = os.cpu_count() or 1
    return max(1, int(value))


def fork_available() -> bool:
    return hasattr(os, "fork") and sys.platform != "win32"


class WorkerGone(Exception):
    """The child died mid-job (crash, kill, unpicklable reply)."""


class ChildJobError(Exception):
    """A job failed inside the child; message carries the rendering."""


def _send(fd: int, payload: object) -> None:
    blob = pickle.dumps(payload, protocol=4)
    frame = memoryview(_HEADER.pack(len(blob)) + blob)
    while frame:
        frame = frame[os.write(fd, frame):]


def _recv(fd: int) -> object:
    header = _read_exact(fd, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise WorkerGone(f"oversized frame ({length} bytes)")
    return pickle.loads(_read_exact(fd, length))


def _read_exact(fd: int, count: int) -> bytes:
    chunks: List[bytes] = []
    while count:
        chunk = os.read(fd, count)
        if not chunk:
            raise WorkerGone("pipe closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _describe(error: BaseException) -> str:
    text = str(error) or type(error).__name__
    rendered = getattr(error, "render", None)
    if callable(rendered):
        try:
            text = rendered()
        except Exception:
            pass
    return f"{type(error).__name__}: {text}"


class Worker:
    """One forked child serving ``run_job`` plus the parent-side pipe
    ends: :meth:`send` a job, then :meth:`recv` its value."""

    def __init__(self, run_job: Callable[[object], object],
                 siblings: Sequence["Worker"] = ()) -> None:
        job_read, self._job_write = os.pipe()
        self.reply_fd, reply_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # Child: serve jobs until EOF, then vanish without running
            # parent atexit/cleanup hooks.
            os.close(self._job_write)
            os.close(self.reply_fd)
            # Also drop inherited copies of earlier siblings' parent
            # ends: a leaked write end would keep that sibling's child
            # from ever seeing EOF at shutdown.
            for worker in siblings:
                for fd in (worker._job_write, worker.reply_fd):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
            status = 0
            try:
                while True:
                    try:
                        job = _recv(job_read)
                    except WorkerGone:
                        break
                    try:
                        reply = ("ok", run_job(job))
                    except BaseException as error:  # ship, don't die
                        reply = ("error", _describe(error))
                    _send(reply_write, reply)
            except BaseException:
                status = 1
            os._exit(status)
        os.close(job_read)
        os.close(reply_write)
        self.alive = True

    def send(self, job: object) -> None:
        try:
            _send(self._job_write, job)
        except OSError as error:
            self.close()
            raise WorkerGone(str(error))

    def recv(self) -> object:
        try:
            kind, value = _recv(self.reply_fd)
        except (WorkerGone, OSError) as error:
            self.close()
            raise WorkerGone(str(error))
        if kind == "error":
            raise ChildJobError(value)
        return value

    def close(self) -> None:
        if not self.alive:
            return
        self.alive = False
        for fd in (self._job_write, self.reply_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


def run_dag(order: Sequence[str], deps: Mapping[str, Sequence[str]],
            done: Dict[str, object],
            run: Callable[[str, Dict[str, object]], object],
            jobs: int) -> Dict[str, BaseException]:
    """Run ``run(name, dep_values)`` for every name in ``order`` (a
    topological order) on up to ``jobs`` forked workers.

    ``done`` maps the names already built to their values; every dep
    of a name in ``order`` is in ``done`` or in ``order``.  Each value
    a worker returns is stored into ``done``.  Workers inherit ``done``
    at fork, so a job ships only the values of deps built since.
    Returns the failures by name: after the first, nothing new is
    dispatched, and every name that failed or was never reached stays
    out of ``done``.
    """
    index = {name: position for position, name in enumerate(order)}
    waiting = {name: 0 for name in order}
    dependents: Dict[str, List[str]] = {name: [] for name in order}
    for name in order:
        for dep in deps[name]:
            if dep in index:
                waiting[name] += 1
                dependents[dep].append(name)
    now = time.perf_counter()
    ready_at = {name: now for name in order if not waiting[name]}
    ready = sorted(index[name] for name in ready_at)

    def serve(job):  # runs in the child
        name, shipped = job
        done.update(shipped)
        return run(name, {dep: done[dep] for dep in deps[name]})

    workers: List[Worker] = []
    failed: Dict[str, BaseException] = {}
    try:
        for _ in range(min(jobs, len(order))):
            workers.append(Worker(serve, workers))
        idle = list(workers)
        busy: Dict[int, tuple] = {}  # reply fd -> (worker, name, start)
        with selectors.DefaultSelector() as selector:
            while True:
                while ready and idle and not failed:
                    name = order[ready.pop(0)]
                    worker = idle.pop()
                    shipped = {dep: done[dep] for dep in deps[name]
                               if dep in index}
                    started = time.perf_counter()
                    TASK_WAIT_MS.observe((started - ready_at[name]) * 1000.0)
                    try:
                        worker.send((name, shipped))
                    except Exception as error:
                        failed[name] = error
                        break
                    busy[worker.reply_fd] = (worker, name, started)
                    selector.register(worker.reply_fd, selectors.EVENT_READ)
                    PARALLELISM.observe(float(len(busy)))
                if not busy:
                    return failed
                for key, _ in selector.select():
                    worker, name, started = busy.pop(key.fd)
                    selector.unregister(key.fd)
                    try:
                        done[name] = worker.recv()
                    except Exception as error:
                        failed[name] = error
                    TASK_RUN_MS.observe(
                        (time.perf_counter() - started) * 1000.0)
                    if worker.alive:
                        idle.append(worker)
                    if name in failed:
                        continue
                    now = time.perf_counter()
                    for dependent in dependents[name]:
                        waiting[dependent] -= 1
                        if not waiting[dependent]:
                            ready_at[dependent] = now
                            bisect.insort(ready, index[dependent])
    finally:
        for worker in workers:
            worker.close()
