"""The DAG scheduler behind parallel module builds.

With ``--jobs N > 1`` the builder compiles its cache misses on forked
worker processes (:mod:`repro.modules.procpool`), and this scheduler
decides when: every module is one *task*, a task becomes **ready**
when all of its direct dependencies have completed, and ready tasks
run concurrently on a bounded pool of drain loops — threads that
dispatch jobs to the workers and block on their pipes, so the GIL is
released while the children compile.  Determinism is not a property
of the schedule — completion order is whatever the OS gives us — but
of what the tasks are allowed to observe:

* a task only starts after its deps *finished*, so every compile sees
  exactly the dependency interfaces and exports a serial build would
  have shown it;
* per-module outputs (expanded bytes, exports, cache entries) are pure
  functions of (source, options, dep exports) — fresh-name counters
  restart per unit, grammar copies are per-module;
* everything order-sensitive that *aggregates* those outputs (the
  ``--module-report``, the concatenated ``--expand`` artifact, the
  program's unit/class tables) is assembled by the builder's serial
  topological walk after the pool drains.

**Failure barrier.**  The first task error stops dispatch (in-flight
tasks finish, nothing new starts).  The failed module — and every
module stranded downstream of it — has no cache entry, so the
builder's serial walk recompiles it *on the real diagnostic engine*:
the rendered error — message, carets, notes, exit — is the one a
``--jobs 1`` build of the same sources produces.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

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
    "Per-module task run time under the DAG scheduler.")


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


class Task:
    """One module's slot in the schedule."""

    __slots__ = ("name", "index", "waiting", "dependents", "state",
                 "result", "error", "ready_at")

    PENDING, READY, RUNNING, DONE, FAILED, SKIPPED = range(6)

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index          # topo position: the dispatch tiebreak
        self.waiting = 0            # incomplete direct deps
        self.dependents: List[Task] = []
        self.state = Task.PENDING
        self.result = None
        self.error: Optional[BaseException] = None
        self.ready_at = 0.0


class DagScheduler:
    """Runs one task per module, deps-before-dependents, bounded."""

    def __init__(self, order: Sequence[str],
                 deps: Dict[str, Sequence[str]],
                 run: Callable[[str], object]):
        self._run = run
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self.tasks: Dict[str, Task] = {
            name: Task(name, index) for index, name in enumerate(order)
        }
        for name in order:
            task = self.tasks[name]
            for dep in deps[name]:
                dep_task = self.tasks[dep]
                if dep_task.state != Task.DONE:
                    task.waiting += 1
                    dep_task.dependents.append(task)
        now = time.perf_counter()
        for task in self.tasks.values():
            if task.waiting == 0:
                task.state = Task.READY
                task.ready_at = now
        self._ready: List[Task] = sorted(
            (t for t in self.tasks.values() if t.state == Task.READY),
            key=lambda t: t.index)
        self._unfinished = len(self.tasks)
        self._running = 0
        self._halted = False

    # -- the drain loop (every pool thread runs this) ----------------------

    def drain(self) -> None:
        """Claim and run ready tasks until no more work will appear."""
        while True:
            with self._lock:
                task = self._claim_locked()
                if task is None:
                    return
                self._running += 1
                running = self._running
            PARALLELISM.observe(float(running))
            started = time.perf_counter()
            TASK_WAIT_MS.observe((started - task.ready_at) * 1000.0)
            error: Optional[BaseException] = None
            result = None
            try:
                result = self._run(task.name)
            except BaseException as caught:  # contained: recompiled serially
                error = caught
            TASK_RUN_MS.observe((time.perf_counter() - started) * 1000.0)
            with self._lock:
                self._running -= 1
                self._finish_locked(task, result, error)

    def _claim_locked(self) -> Optional[Task]:
        while True:
            if self._unfinished == 0:
                self._wake.notify_all()
                return None
            if self._ready and not self._halted:
                task = self._ready.pop(0)
                task.state = Task.RUNNING
                return task
            if self._running == 0:
                # Nothing running, nothing ready: the remaining tasks
                # are downstream of a failure (or dispatch halted).
                self._skip_stranded_locked()
                self._wake.notify_all()
                return None
            self._wake.wait()

    def _finish_locked(self, task: Task, result, error) -> None:
        if error is None:
            task.state = Task.DONE
            task.result = result
            now = time.perf_counter()
            for dependent in task.dependents:
                dependent.waiting -= 1
                if dependent.waiting == 0 \
                        and dependent.state == Task.PENDING:
                    dependent.state = Task.READY
                    dependent.ready_at = now
                    self._insort(dependent)
        else:
            task.state = Task.FAILED
            task.error = error
            # First failure halts dispatch: stay close to the serial
            # build, which stops at its first failing module.
            self._halted = True
        self._unfinished -= 1
        self._wake.notify_all()

    def _skip_stranded_locked(self) -> None:
        for task in self.tasks.values():
            if task.state in (Task.PENDING, Task.READY):
                task.state = Task.SKIPPED
                self._unfinished -= 1

    def _insort(self, task: Task) -> None:
        for position, queued in enumerate(self._ready):
            if task.index < queued.index:
                self._ready.insert(position, task)
                return
        self._ready.append(task)

    # -- pool fronts -------------------------------------------------------

    def run_threaded(self, jobs: int) -> None:
        """Drain with the calling thread plus up to ``jobs - 1``
        helper threads."""
        helpers: List[threading.Thread] = []
        for _ in range(max(0, min(jobs, len(self.tasks)) - 1)):
            thread = threading.Thread(target=self.drain,
                                      name="maya-module-build",
                                      daemon=True)
            thread.start()
            helpers.append(thread)
        try:
            self.drain()
        finally:
            for thread in helpers:
                thread.join()

    # -- outcomes ----------------------------------------------------------

    def failed(self) -> List[Task]:
        """Failed tasks, in topo order (the earliest is the one a serial
        build would have stopped at)."""
        return sorted((t for t in self.tasks.values()
                       if t.state == Task.FAILED),
                      key=lambda t: t.index)

    def results(self) -> Dict[str, object]:
        return {name: task.result for name, task in self.tasks.items()
                if task.state == Task.DONE}
