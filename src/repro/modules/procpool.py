"""A fork-based worker pool: real CPU parallelism for module compiles.

Module compiles are CPU-bound pure Python, so under the GIL threads
cannot make a build faster; the only parallel substrate is processes.
Where ``os.fork`` exists, ``--jobs N`` builds with them: each worker
is a **fork of the already warmed parent** — grammar, macro/
metaprogram namespace, LALR table cache, and the builder itself all
arrive by copy-on-write, so a child compiles a module exactly the way
the parent would have, with no re-setup protocol and no way to drift
from the serial configuration.

The unit of work is one module; the reply is one cache-entry payload
(the same JSON shape the on-disk module cache stores, deep artifact
included).  The parent never shares mutable compiler state with a
child — it *integrates* the returned entries serially in topo order,
through the same code path a warm cache hit takes, which is what makes
``--jobs N`` output byte-identical to ``--jobs 1``: by the time
artifacts are assembled, a fork-compiled module is indistinguishable
from a disk-cached one.

A worker that dies (or returns garbage) fails only its current module;
the scheduler's failure barrier then leaves that module to the
builder's serial walk, which recompiles it in the parent for the
authoritative diagnostic.  Fork is unsafe in threaded processes, so
the daemon never uses this pool — its module builds are serial.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import threading
from typing import List, Sequence

_HEADER = struct.Struct("!I")
_MAX_FRAME = 512 * 1024 * 1024


def fork_available() -> bool:
    return hasattr(os, "fork") and sys.platform != "win32"


class WorkerGone(Exception):
    """The child died mid-job (crash, kill, unpicklable reply)."""


def _send(fd: int, payload: object) -> None:
    blob = pickle.dumps(payload, protocol=4)
    os.write(fd, _HEADER.pack(len(blob)) + blob)


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


class _ForkWorker:
    """One forked child plus the parent-side pipe ends."""

    def __init__(self, run_job,
                 siblings: Sequence["_ForkWorker"] = ()) -> None:
        job_read, self._job_write = os.pipe()
        self._reply_read, reply_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # Child: serve jobs until EOF, then vanish without running
            # parent atexit/cleanup hooks.
            os.close(self._job_write)
            os.close(self._reply_read)
            # Also drop inherited copies of earlier siblings' parent
            # ends: a leaked write end would keep that sibling's child
            # from ever seeing EOF at shutdown.
            for worker in siblings:
                for fd in (worker._job_write, worker._reply_read):
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

    def call(self, job: object) -> object:
        if not self.alive:
            raise WorkerGone("worker already retired")
        try:
            _send(self._job_write, job)
            kind, value = _recv(self._reply_read)
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
        for fd in (self._job_write, self._reply_read):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


class ChildJobError(Exception):
    """A job failed inside the child; message carries the rendering."""


def _describe(error: BaseException) -> str:
    text = str(error) or type(error).__name__
    rendered = getattr(error, "render", None)
    if callable(rendered):
        try:
            text = rendered()
        except Exception:
            pass
    return f"{type(error).__name__}: {text}"


class ForkPool:
    """``jobs`` forked workers behind a thread-safe checkout."""

    def __init__(self, jobs: int, run_job) -> None:
        # Fork strictly before any scheduler thread exists: forking a
        # multithreaded process duplicates held locks.
        self._workers: List[_ForkWorker] = []
        for _ in range(jobs):
            self._workers.append(_ForkWorker(run_job,
                                             siblings=self._workers))
        self._idle: List[_ForkWorker] = list(self._workers)
        self._lock = threading.Lock()
        self._free = threading.Semaphore(jobs)

    def call(self, job: object) -> object:
        self._free.acquire()
        with self._lock:
            worker = self._idle.pop()
        try:
            return worker.call(job)
        finally:
            with self._lock:
                if worker.alive:
                    self._idle.append(worker)
                    self._free.release()
                # A dead worker's slot stays retired; the scheduler is
                # already halting on the failure it caused.

    def close(self) -> None:
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
