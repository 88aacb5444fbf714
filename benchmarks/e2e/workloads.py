"""The four workloads.  Each sets up :data:`SETUPS` times, runs a fixed
number of ops, and checks every answer against an oracle that does not
use the compiler under test.

The op count comes from ``--seconds`` alone: each workload runs in
whole rounds, and a round's nominal length (``*_ROUND_S``, measured on
a 2-CPU x86-64 host at the commit that added the benchmark) divides
the seconds into a round count.  How fast the code under test runs
never changes the count, so a parent and a change run the same inputs.

A workload returns an :class:`Outcome`.  In an untraced run it carries
the op wall times and the process-level costs, each with the moment it
was measured, and the host-speed probes taken between ops
(:mod:`probe`), which scale them.  A traced run has a quarter of the
rounds, and runs each of their ops once traced and once untraced in
seeded order (so run order cannot bias the overhead figure); it also
carries an :class:`Account` of the traced ops' per-layer self times.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import inputs
from layers import LayerClock, registry_counts
from probe import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Set-ups per run; ``setup_s`` is their median.  The cheaper the
#: set-up, the more of them.  A smoke run (under :data:`SMOKE_S`
#: seconds) sets up once.
SETUPS = {"cli_cold": 3, "daemon_mix": 5, "modules_edit": 3, "run_hot": 15}
SMOKE_S = 5.0
#: Host-speed probes taken before each set-up and between daemon
#: chunks (one is taken before every other op).
GAP_PROBES = 4
#: Workloads run wholly on the probe's CPU, children included.  On
#: daemon_mix only the daemon runs there (its workers share one
#: interpreter lock, so it keeps one CPU busy at most), and the load
#: generator runs on the other CPUs.
ONE_CPU = ("cli_cold", "modules_edit", "run_hot")
#: A single op that takes this long is a hang, not a measurement.
OP_TIMEOUT_S = 120.0


def setup_split(workload: str, seconds: float):
    """``(leading, trailing)``: how many set-ups run before the ops
    (the last one serves them) and how many after.  The host's speed
    drifts over seconds, and set-ups at both ends of the run keep one
    slow moment from setting the median."""
    count = SETUPS[workload] if seconds >= SMOKE_S else 1
    return (count + 1) // 2, count // 2


def round_count(seconds: float, round_s: float, traced: bool) -> int:
    """Whole rounds for a run of ``seconds``; a traced run has a
    quarter of them (each op then runs traced and untraced)."""
    rounds = max(1, round(seconds / round_s))
    return max(1, rounds // 4) if traced else rounds


class Outcome:
    """What one run measured.  Each untraced cost carries its moment
    (``time.monotonic()`` at the middle of the measurement), so it can
    be scaled by the host's speed at that moment."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.setups = []        # (seconds, moment) per set-up
        self.walls = []         # (seconds, moment) per untraced op
        self.traced_walls = []  # seconds per traced op
        self.pairs = []         # ((wall, moment) traced, untraced) of
        #                         the ops of a traced run that pair up
        self._unpaired = {}
        self.attempted = 0
        self.failed = 0
        self.gaps = []          # generator lateness per op, seconds
        self.cpus = []          # (CPU seconds, ops, moment): one per
        #                         untraced op, or per daemon chunk
        self.rates = []         # (ok answers/s, moment) per closed-loop
        #                         daemon chunk; daemon_mix only
        self.peak_rss_mb = 0.0
        self.account = Account()
        self.artifact_hit_pct = 0.0
        self.absent = []        # layer wrap targets not found

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @contextlib.contextmanager
    def timed_setup(self):
        """Probe the host, then time one set-up."""
        self.speed.sample(GAP_PROBES)
        started = time.monotonic()
        yield
        ended = time.monotonic()
        self.setups.append((ended - started, (started + ended) / 2))

    def add_wall(self, wall: float, tracing: bool, pair=None,
                 at: float = None) -> None:
        """Record an op's wall time, measured around moment ``at``; two
        ops sharing a ``pair`` key (the same work, once traced and once
        not) make a pair for the tracing overhead."""
        if tracing:
            self.traced_walls.append(wall)
        else:
            self.walls.append((wall, at))
        if pair is None:
            return
        other = self._unpaired.pop(pair, None)
        if other is None:
            self._unpaired[pair] = (wall, at)
        else:
            self.pairs.append(((wall, at), other) if tracing
                              else (other, (wall, at)))


class Account:
    """Per-layer self times and counts summed over traced ops.

    Every ``*_ms`` entry is a disjoint share of the op wall time; the
    rest of the wall time is ``unattributed_ms``.
    """

    def __init__(self):
        self.ops = 0
        self.wall_s = 0.0
        self.ms = {}
        self.counts = {}

    def add_op(self, wall_s: float) -> None:
        self.ops += 1
        self.wall_s += wall_s

    def add_ms(self, name: str, ms: float) -> None:
        self.ms[name] = self.ms.get(name, 0.0) + ms

    def add_count(self, name: str, count: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + count

    def add_layers(self, totals: dict, before: dict = None) -> None:
        """Add a :meth:`LayerClock.totals` dict (minus ``before``)."""
        for name, (seconds, calls) in totals.items():
            if before and name in before:
                seconds -= before[name][0]
                calls -= before[name][1]
            if name == "lexer.tokens":
                self.add_count(name, calls)
                continue
            self.add_ms(f"{name}.self_ms", seconds * 1000.0)
            self.add_count(f"{name}.calls", calls)

    def add_registry(self, after: dict, before: dict) -> None:
        for name, value in after.items():
            self.add_count(name, value - before.get(name, 0))

    def per_op(self) -> dict:
        """Per-op means, plus the wall time and unattributed rest."""
        ops = max(self.ops, 1)
        values = {name: ms / ops for name, ms in self.ms.items()}
        values.update((name, count / ops)
                      for name, count in self.counts.items())
        wall_ms = self.wall_s * 1000.0 / ops
        values["op_wall_ms"] = wall_ms
        values["unattributed_ms"] = wall_ms - sum(self.ms.values()) / ops
        return values


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive)."""
    data = sorted(values)
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def isolate(work: Path) -> dict:
    """Environment for processes under test: no ``MAYA_*`` settings,
    and every cache location a later change might default to inside
    ``work``.  Bytecode caching stays on, as for a user."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MAYA_")
           and key != "PYTHONDONTWRITEBYTECODE"}
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "xdg-cache"),
                     ("MAYA_CACHE_DIR", "maya-cache")):
        path = work / sub
        path.mkdir(parents=True, exist_ok=True)
        env[var] = str(path)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _closed_loop_rounds(rng, items, traced: bool, rounds: int):
    """``rounds`` seeded rounds over ``items``, as ``(item, tracing,
    pair key)``; a traced run runs each item once traced and once
    untraced per round.  Every item is equally represented."""
    for round_no in range(rounds):
        batch = [(item, tracing, (round_no, index))
                 for index, item in enumerate(items)
                 for tracing in ((True, False) if traced else (False,))]
        rng.shuffle(batch)
        yield from batch


def _gap(outcome: Outcome, previous_end, start) -> None:
    """In a closed loop, the generator is late by the time between
    one op's end and the next op's start."""
    if previous_end is not None:
        outcome.gaps.append(start - previous_end)


@contextlib.contextmanager
def _timed_op(outcome: Outcome, clock: LayerClock, tracing: bool, pair):
    """Probe the host, then time one in-process op: wall and CPU when
    untraced; wall, layers and registry deltas when traced."""
    outcome.speed.sample()
    op = types.SimpleNamespace()
    if tracing:
        clock.install()
        registry_before = registry_counts()
    cpu_started = time.process_time()
    op.started = time.monotonic()
    try:
        yield op
    finally:
        op.ended = time.monotonic()
        cpu = time.process_time() - cpu_started
        if tracing:
            clock.uninstall()
    wall = op.ended - op.started
    at = (op.started + op.ended) / 2
    if tracing:
        outcome.account.add_op(wall)
        outcome.account.add_registry(registry_counts(), registry_before)
    else:
        outcome.cpus.append((cpu, 1, at))
    outcome.add_wall(wall, tracing, pair, at)


# -- cli_cold ---------------------------------------------------------------

CLI_PROGRAMS = (("Hello", ()), ("Shapes", ("--multijava",)), ("Plain", ()))
#: One ``mayac`` process per program.
CLI_ROUND_S = 2.2


def cli_cold(rng, seconds: float, traced: bool, work: Path,
             speed: HostSpeed) -> Outcome:
    """Cold ``mayac --run`` processes, one at a time."""
    outcome = Outcome(speed)
    expected = {name: (HERE / "expected" / f"{name}.out").read_text()
                for name, _ in CLI_PROGRAMS}
    dump = work / "layers.json"

    def invoke(program, env, tracing=False):
        name, flags = program
        args = [*flags, "--run", name,
                str(HERE / "programs" / f"{name}.maya")]
        dump.unlink(missing_ok=True)
        started = time.monotonic()
        command = [sys.executable, "-m", "repro.mayac", *args]
        if tracing:
            command = [sys.executable, str(HERE / "launch.py"),
                       "--dump", str(dump), "--spawned", repr(started),
                       "mayac", *args]
        proc = subprocess.run(command, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        ended = time.monotonic()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return started, ended, \
            proc.returncode == 0 and proc.stdout == expected[name]

    def set_up(index):
        with outcome.timed_setup():
            env = isolate(work / f"setup{index}")
            for program in CLI_PROGRAMS:
                if not invoke(program, env)[2]:
                    raise RuntimeError(f"warm-up of {program[0]} failed")
        return env

    leading, trailing = setup_split("cli_cold", seconds)
    for index in range(leading):
        env = set_up(index)

    previous_end = None
    for program, tracing, pair in _closed_loop_rounds(
            rng, CLI_PROGRAMS, traced,
            round_count(seconds, CLI_ROUND_S, traced)):
        outcome.speed.sample()
        # One child at a time, so the children's rusage grows by
        # exactly this op's CPU.
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        started, ended, ok = invoke(program, env, tracing)
        usage_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        outcome.record(ok)
        _gap(outcome, previous_end, started)
        previous_end = ended
        at = (started + ended) / 2
        outcome.add_wall(ended - started, tracing, pair, at)
        if not tracing:
            outcome.cpus.append((usage_after.ru_utime + usage_after.ru_stime
                                 - usage.ru_utime - usage.ru_stime, 1, at))
        if not tracing or not ok:
            continue
        record = json.loads(dump.read_text())
        account = outcome.account
        account.add_op(ended - started)
        account.add_ms("process.startup_ms", record["startup_s"] * 1000.0)
        account.add_ms("process.import_ms", record["import_s"] * 1000.0)
        account.add_ms("process.exit_ms", (ended - record["at"]) * 1000.0)
        account.add_layers(record["layers"])
        account.add_registry(record["registry"], {})
        outcome.absent = record["absent"]

    outcome.speed.sample(GAP_PROBES)
    outcome.peak_rss_mb = \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for index in range(leading, leading + trailing):
        set_up(index)
    return outcome


# -- daemon_mix -------------------------------------------------------------

#: Open-loop arrival rate, requests per second.
DAEMON_RATE = 20.0
#: Shares of an untraced run's seconds that size the open-loop phase
#: and the closed-loop phase that measures capacity.
OPEN_LOOP_SHARE = 0.75
CLOSED_LOOP_SHARE = 0.25
#: Closed-loop requests per second, which sizes the capacity phase.
NOMINAL_CAPACITY_RPS = 80.0
#: Requests per chunk of the open and the closed loop (half a second
#: each, at the rates above).  Between chunks every request has been
#: answered and the daemon is idle, and the host is probed.
OPEN_CHUNK = 10
CLOSED_CHUNK = 40
#: Client threads and connections, as many as the host's CPUs.
CLIENTS = 2


class Daemon:
    """One ``mayad`` process on an ephemeral port, pinned to ``cpu``."""

    def __init__(self, work: Path, traced: bool, cpu: int):
        from repro.server.client import MayaClient

        work.mkdir(parents=True, exist_ok=True)
        port_file = work / "address"
        self.dump = work / "layers.json"
        args = ["--port", "0", "--workers", str(CLIENTS),
                "--port-file", str(port_file)]
        started = time.monotonic()
        command = [sys.executable, "-m", "repro.server", *args]
        if traced:
            command = [sys.executable, str(HERE / "launch.py"),
                       "--dump", str(self.dump), "--spawned",
                       repr(started), "mayad", *args]
        self._log = open(work / "mayad.log", "wb")
        self.proc = subprocess.Popen(
            command, env=isolate(work), cwd=ROOT, stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        try:
            text = ""
            while not text.endswith("\n"):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"mayad exited during start-up; see {work}")
                if time.monotonic() - started > OP_TIMEOUT_S:
                    raise RuntimeError("mayad did not start")
                time.sleep(0.005)
                text = port_file.read_text() if port_file.exists() else ""
            self.address = text.strip()
            MayaClient(self.address, retries=0).ping()
        except BaseException:
            self.stop()
            raise

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status",
                  encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def layer_snapshot(self) -> dict:
        """Ask a traced daemon's launcher for its totals so far."""
        if self.dump.exists():
            self.dump.unlink()
        self.proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + 30.0
        while not self.dump.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced mayad did not dump its totals")
            time.sleep(0.01)
        return json.loads(self.dump.read_text())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _normalized(response: dict) -> str:
    """A response without the fields that describe the request rather
    than its answer (ids, timings, and the artifact-cache hit flag)."""
    return json.dumps({key: value for key, value in response.items()
                       if key not in ("request_id", "trace_id", "stats",
                                      "cached")},
                      sort_keys=True)


#: One answered compile call.  ``index`` numbers the request; a request
#: sent to several daemons gives one call each, ``position`` 0, 1, ...
Call = collections.namedtuple(
    "Call", "due sent done request target response index position")


def _drive(stream, clients, targets, count: int, rate=None, first=0):
    """Send ``count`` requests, numbered from ``first``, from
    ``CLIENTS`` threads, each to the daemons ``targets()`` names, one
    after the other.

    With a ``rate``, the *i*-th request is due at ``start + i / rate``
    (an open loop: a slow daemon makes later requests late, and latency
    counts from the due time).  Without one, each thread sends its next
    request as soon as the last one is answered (a closed loop).
    Returns the :class:`Call` list and the start time.
    """
    from repro.server.client import DaemonError

    lock = threading.Lock()
    records = []
    # An open loop starts a little ahead, so no request is due before
    # its thread is running.
    start = time.monotonic() + (0.05 if rate else 0.0)
    issued = [0]

    def sender(thread: int):
        while True:
            with lock:
                index = issued[0]
                if index >= count:
                    return
                issued[0] += 1
                request = stream.next()
                order = targets()
            due = start + index / rate if rate else time.monotonic()
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            _, filename, source, _, _ = request
            for position, target in enumerate(order):
                sent = time.monotonic()
                try:
                    response = clients[target][thread].compile(
                        source, filename=filename, expand=True)
                except DaemonError:
                    response = None
                done = time.monotonic()
                with lock:
                    records.append(Call(due, sent, done, request, target,
                                        response, first + index, position))

    threads = [threading.Thread(target=sender, args=(thread,))
               for thread in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, start


def _chunks(outcome: Outcome, count: int, chunk: int):
    """``(size, number of its first request)`` of each chunk of
    ``count`` requests; the host is probed before each chunk and after
    the last."""
    for number in range(0, count, chunk):
        outcome.speed.sample(GAP_PROBES)
        yield min(chunk, count - number), number
    outcome.speed.sample(GAP_PROBES)


def _ok(call: Call) -> bool:
    return call.response is not None \
        and call.response.get("status") == "ok"


def daemon_mix(rng, seconds: float, traced: bool, work: Path,
               speed: HostSpeed) -> Outcome:
    """A warm ``mayad`` under an open loop, then a closed loop."""
    from repro.server.client import MayaClient

    outcome = Outcome(speed)
    open_count = max(2, round(seconds * OPEN_LOOP_SHARE * DAEMON_RATE))
    closed_count = max(2, round(seconds * CLOSED_LOOP_SHARE
                                * NOMINAL_CAPACITY_RPS))

    def set_up(index) -> Daemon:
        with outcome.timed_setup():
            return Daemon(work / f"setup{index}", False, speed.cpu)

    leading, trailing = setup_split("daemon_mix", seconds)
    daemons = []
    try:
        for index in range(leading):
            if daemons:
                daemons.pop().stop()
            daemons.append(set_up(index))
        if traced:
            daemons.append(Daemon(work / "traced", True, speed.cpu))
        clients = [[MayaClient(daemon.address, retries=0)
                    for _ in range(CLIENTS)] for daemon in daemons]
        stream = inputs.RequestStream(rng)
        first = {}

        if traced:
            # Half the open loop's requests, each sent to the untraced
            # and the traced daemon in seeded order: the pair gives
            # the overhead on one input, adjacent in time.
            def both():
                order = [0, 1]
                rng.shuffle(order)
                return order

            before = daemons[1].layer_snapshot()
            records, _ = _drive(stream, clients, both,
                                max(1, open_count // 2), DAEMON_RATE)
            after = daemons[1].layer_snapshot()
            _account_daemon(outcome, records, before, after)
            _check_daemon(outcome, records, first, track_latency=True,
                          paired=True)
        else:
            daemon = daemons[0]
            only = (lambda: (0,))
            records, saturated = [], []
            for size, number in _chunks(outcome, open_count, OPEN_CHUNK):
                cpu_before = daemon.cpu_s()
                calls, start = _drive(stream, clients, only, size,
                                      DAEMON_RATE, number)
                end = max(call.done for call in calls)
                outcome.cpus.append((daemon.cpu_s() - cpu_before, size,
                                     (start + end) / 2))
                records += calls
            for size, number in _chunks(outcome, closed_count,
                                        CLOSED_CHUNK):
                calls, start = _drive(stream, clients, only, size,
                                      first=open_count + number)
                end = max(call.done for call in calls)
                outcome.rates.append((sum(map(_ok, calls)) / (end - start),
                                      (start + end) / 2))
                saturated += calls
            outcome.peak_rss_mb = daemon.peak_rss_mb()
            _check_daemon(outcome, records, first, track_latency=True)
            _check_daemon(outcome, saturated, first, track_latency=False)
        for daemon in daemons:
            daemon.stop()
        for index in range(leading, leading + trailing):
            set_up(index).stop()
    finally:
        for daemon in daemons:
            daemon.stop()
    return outcome


def _check_daemon(outcome: Outcome, records, first: dict,
                  track_latency: bool, paired: bool = False) -> None:
    """Every answer is ``ok`` with the generated class and no
    diagnostics; every repeat is byte-identical to the first answer
    for its source (``first`` maps (daemon, source) to that answer).

    Latency counts from the due time; a request sent to both daemons
    of a traced run counts each call from its own send, paired."""
    for call in sorted(records, key=lambda call: (call.index,
                                                   call.position)):
        key, _, _, class_name, _ = call.request
        response = call.response
        ok = (_ok(call) and not response.get("diagnostics")
              and response.get("classes") == [class_name])
        if ok:
            answer = _normalized(response)
            ok = first.setdefault((call.target, key), answer) == answer
        outcome.record(ok)
        if not track_latency:
            continue
        if call.position == 0:
            outcome.gaps.append(call.sent - call.due)
        if paired:
            outcome.add_wall(call.done - call.sent,
                             tracing=call.target == 1, pair=call.index,
                             at=(call.sent + call.done) / 2)
        else:
            outcome.add_wall(call.done - call.due, tracing=False,
                             at=(call.due + call.done) / 2)


def _account_daemon(outcome: Outcome, records, before, after) -> None:
    """Split each traced-daemon compile's round trip into client/socket
    transport, daemon time outside the compile, and the compile's
    layers; the compile time no wrapped layer covers is the worker's
    self time.

    Artifact-cache hits never reach a worker and their stats carry no
    timings, so the breakdown covers misses only; hits count in
    ``server.artifact_hit_pct``.  Every share is a difference of
    boundary timestamps, so ``unattributed_ms`` is 0 by construction
    here, not a measured remainder.
    """
    account = outcome.account
    compile_ms = hits = answered = 0
    for call in records:
        if call.target != 1 or call.response is None:
            continue
        answered += 1
        stats = call.response.get("stats") or {}
        if stats.get("cached"):
            hits += 1
            continue
        round_trip_ms = (call.done - call.sent) * 1000.0
        total_ms = stats.get("total_ms", 0.0)
        account.add_op(call.done - call.sent)
        account.add_ms("server.transport_ms", round_trip_ms - total_ms)
        account.add_ms("server.queue_wait_ms",
                       total_ms - stats.get("compile_ms", 0.0))
        compile_ms += stats.get("compile_ms", 0.0)
    layers = Account()
    layers.add_layers(after["layers"], before["layers"])
    layer_ms = sum(layers.ms.values())
    for name, ms in layers.ms.items():
        account.add_ms(name, ms)
    for name, count in layers.counts.items():
        account.add_count(name, count)
    account.add_registry(after["registry"], before["registry"])
    account.add_ms("server.worker.self_ms", compile_ms - layer_ms)
    outcome.artifact_hit_pct = 100.0 * hits / max(answered, 1)
    outcome.absent = after["absent"]


# -- modules_edit -----------------------------------------------------------

#: One block of ten edits, each followed by an incremental build.
EDIT_ROUND_S = 5.0


def modules_edit(rng, seconds: float, traced: bool, work: Path,
                 speed: HostSpeed) -> Outcome:
    """Seeded edits to a 22-module project, each followed by the
    incremental build ``mayac --run`` does."""
    from repro.interp import Interpreter
    from repro.modules import MemorySources, ModuleBuilder

    outcome = Outcome(speed)
    plan = inputs.EditPlan(rng)

    def build(sources, cache_dir):
        builder = ModuleBuilder(MemorySources(sources),
                                cache_dir=cache_dir)
        return builder.build([inputs.MAIN], need_bodies=True)

    def correct(result, rebuilt) -> bool:
        interp = Interpreter(result.program)
        interp.run_static("Main")
        return (set(result.recompiled) == rebuilt
                and interp.output == inputs.project_output(plan.constants))

    def set_up(index) -> str:
        cache_dir = str(work / f"modules{index}")
        with outcome.timed_setup():
            result = build(plan.sources(), cache_dir)
        if not correct(result, set(inputs.module_names())):
            raise RuntimeError("clean build of the project is wrong")
        return cache_dir

    leading, trailing = setup_split("modules_edit", seconds)
    for index in range(leading):
        cache_dir = set_up(index)

    clock = LayerClock()
    previous_end = None
    # A round is one block of the edit plan.  When traced, each slot
    # runs twice, traced and untraced, editing the same module, so the
    # two builds recompile the same cone and pair up.
    partner = {}
    for _, tracing, pair in _closed_loop_rounds(
            rng, [None] * inputs.EditPlan.BLOCK, traced,
            round_count(seconds, EDIT_ROUND_S, traced)):
        if pair in partner:
            edited = plan.edit(partner.pop(pair))
        else:
            edited = plan.next()
            if traced:
                partner[pair] = edited
        sources = plan.sources()
        with _timed_op(outcome, clock, tracing, pair) as op:
            result = build(sources, cache_dir)
        _gap(outcome, previous_end, op.started)
        previous_end = op.ended
        outcome.record(correct(result, inputs.rebuilt_by_edit(edited)))
    outcome.speed.sample(GAP_PROBES)
    outcome.peak_rss_mb = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.account.add_layers(clock.totals())
    outcome.absent = clock.absent

    # The last incremental build must equal a clean serial build of the
    # same sources, byte for byte.
    if build(plan.sources(), None).expanded() != result.expanded():
        outcome.failed += 1
    for index in range(leading, leading + trailing):
        set_up(index)
    return outcome


# -- run_hot ----------------------------------------------------------------

#: One run of each of the four programs.
RUN_ROUND_S = 0.8


def run_hot(rng, seconds: float, traced: bool, work: Path,
            speed: HostSpeed) -> Outcome:
    """The E14 programs, compiled in set-up, each run on a fresh
    ``Interpreter`` with the default backend."""
    from repro import MayaCompiler
    from repro.interp import Interpreter
    from repro.macros import install_macro_library
    from repro.multijava import install_multijava

    outcome = Outcome(speed)
    seeded = rng.getstate()

    def set_up():
        with outcome.timed_setup():
            rng.setstate(seeded)
            programs = []
            for name, source, multijava, expected in \
                    inputs.run_programs(rng):
                compiler = MayaCompiler()
                install_macro_library(compiler)
                if multijava:
                    install_multijava(compiler)
                programs.append((compiler.compile(source, f"{name}.maya"),
                                 expected))
        return programs

    leading, trailing = setup_split("run_hot", seconds)
    for _ in range(leading):
        programs = set_up()

    clock = LayerClock()
    previous_end = None
    for (program, expected), tracing, pair in _closed_loop_rounds(
            rng, programs, traced,
            round_count(seconds, RUN_ROUND_S, traced)):
        with _timed_op(outcome, clock, tracing, pair) as op:
            value = Interpreter(program).run_static("Demo")
        _gap(outcome, previous_end, op.started)
        previous_end = op.ended
        outcome.record(value == expected)
    outcome.speed.sample(GAP_PROBES)
    outcome.peak_rss_mb = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.account.add_layers(clock.totals())
    outcome.absent = clock.absent
    for _ in range(trailing):
        set_up()
    return outcome


WORKLOADS = {
    "cli_cold": cli_cold,
    "daemon_mix": daemon_mix,
    "modules_edit": modules_edit,
    "run_hot": run_hot,
}
