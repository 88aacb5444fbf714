"""The host's speed, measured beside the ops.

The benchmark runs on shared hosts whose speed drifts by half or more
over seconds to minutes: other tenants' load on the same cores slows
every process on a CPU alike.  On a 2-CPU host, the same program run
back to back took 140 ms and then 220 ms a few seconds later, and a
fixed piece of pure-Python work slowed in the same seconds.  A run's
raw times therefore mostly measure when it ran.

A :func:`probe` is a fixed piece of pure-Python work of the kind the
compiler does -- allocating small objects, dict and string operations,
attribute reads, a sort, a pickle round trip -- with the cyclic
collector paused.  It runs
in a child process of its own that imports nothing from ``repro``, so
neither the code under test nor the state it leaves in the benchmark's
process (heap, collector) can change its time.  Workloads probe between
ops, while nothing else runs.

:meth:`HostSpeed.factor` is :data:`REFERENCE_S` over the median of the
probes nearest a moment.  Every end-to-end time is multiplied by the
factor at its op and every rate divided by it, so the values read as
they would on the reference host.  A change that makes the code under
test slower still reads slower by the same share.  The raw values are
kept in ``--out``.

    python probe.py CPU    # the child, pinned to CPU: reads a count per
                           # line, answers with that many (moment,
                           # seconds) probes
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The probe's time on the reference host: the lower quartile of 2,000
#: back-to-back probes on a 2-CPU x86-64 VM (Intel Xeon, 2.1 GHz),
#: Python 3.11.  Scaled values are expressed at this speed.
REFERENCE_S = 0.0108
#: How many probes, nearest in time, give the speed at one moment.
NEAREST = 5


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind, kids, value):
        self.kind = kind
        self.kids = kids
        self.value = value


def probe() -> float:
    """Seconds one fixed piece of compiler-like work takes now.

    The pickle round trip of a few megabytes matters: contention slows
    a small loop that lives in the L1 cache more than it slows the
    compiler, which chases pointers through a large heap.  Against
    incremental builds interleaved with probes for five minutes, the
    loop alone slowed 1.5 times as much (in log terms) as the builds,
    and the round trip 1.1 times as much.
    """
    started = time.perf_counter()
    table = {}
    for i in range(3000):
        key = f"k{i % 700}"
        table.setdefault(key, []).append(_Node(key, [i, i + 1], i * 3))
    total = 0
    for nodes in table.values():
        for node in nodes:
            total += node.value + len(node.kids) + hash(node.kind) % 7
    sorted(table, key=lambda key: (len(key), key))
    rows = [{"name": f"n{i}", "kids": (i, i + 1, str(i)), "value": [i] * 3}
            for i in range(5000)]
    for row in pickle.loads(pickle.dumps(rows, protocol=5)):
        total += row["kids"][0] + len(row["name"])
    return time.perf_counter() - started


class HostSpeed:
    """Probes taken by a child process over a run, and the speed factor
    at any moment of it (``time.monotonic()``, which every process on
    the host shares).  Use it as a context manager, which stops the
    child.

    The CPUs of a shared host drift apart, by up to 1.7x within a
    second, so the probe measures one CPU, :attr:`cpu`, and the process
    under test must run there.
    """

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        self._at = []
        self._took = []
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def sample(self, count: int = 1) -> None:
        """Take ``count`` probes, one after the other."""
        self._child.stdin.write(f"{count}\n")
        self._child.stdin.flush()
        for at, took in json.loads(self._child.stdout.readline()):
            self._at.append(at)
            self._took.append(took)

    def factor(self, when: float) -> float:
        """:data:`REFERENCE_S` over the median of the :data:`NEAREST`
        probes around ``when``; below 1 when the host runs slow."""
        index = bisect.bisect(self._at, when)
        low = max(0, min(index - NEAREST // 2, len(self._at) - NEAREST))
        return REFERENCE_S / statistics.median(self._took[low:low + NEAREST])

    def median_s(self) -> float:
        return statistics.median(self._took)


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    gc.disable()
    for line in sys.stdin:
        probes = []
        for _ in range(int(line)):
            started = time.monotonic()
            took = probe()
            probes.append((started + took / 2, took))
        print(json.dumps(probes), flush=True)


if __name__ == "__main__":
    main()
