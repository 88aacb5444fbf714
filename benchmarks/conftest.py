"""Shared benchmark helpers.

The ``bench_*.py`` files check the paper's and the design's same-host
timing claims: each times two legs of the same job on the host that
runs it, as interleaved pairs (``paired``), and asserts a bar on the
ratio.  Absolute times are ``benchmarks/e2e``'s (``BENCHMARK.json``),
and host-independent counts and ratios are tier-1 tests under
``tests/``.  ``report`` prints the rows each benchmark reproduces, so
EXPERIMENTS.md can quote them.
"""

import atexit
import gc
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: The benchmarks' persistent LALR table store: a scratch directory
#: for the run, so a "cold" measurement never restores tables an
#: earlier run left under ``~/.cache``, and nothing is written there.
TABLE_STORE = tempfile.mkdtemp(prefix="maya-bench-cache-")
os.environ["MAYA_CACHE_DIR"] = TABLE_STORE
atexit.register(shutil.rmtree, TABLE_STORE, ignore_errors=True)

from repro import MayaCompiler
from repro.lalr.tables import enable_disk_cache
from repro.macros import install_macro_library
from repro.multijava import install_multijava

enable_disk_cache(TABLE_STORE)  # in case repro was imported first

#: Pairs per measured ratio.
PAIRS = 3


def make_compiler(macros: bool = False, multijava: bool = False) -> MayaCompiler:
    compiler = MayaCompiler()
    if macros:
        install_macro_library(compiler)
    if multijava:
        install_multijava(compiler)
    return compiler


class Paired(NamedTuple):
    """One same-host timing ratio, measured as interleaved pairs."""

    ratio: float  # median of the per-pair slow/fast ratios
    slow_ms: float  # median slow leg
    fast_ms: float  # median fast leg, per run
    results: List[Tuple[object, object]]  # (slow, fast) leg results


def paired(slow: Callable[[int], object], fast: Callable[[int], object],
           pairs: int = PAIRS, batch: int = 1) -> Paired:
    """Time ``slow(i)`` and then ``fast(i)`` back to back for each pair
    ``i``, so both legs of a pair see the same host state.  Each leg
    starts from a collected heap, so neither pays to collect the other's
    cyclic garbage.  ``fast`` runs ``batch`` times a pair and is charged
    per run; its last result is kept.  Check the returned leg results
    after timing, so checks cost no measured time."""
    ratios, slow_ms, fast_ms, results = [], [], [], []
    for index in range(pairs):
        gc.collect()
        started = time.perf_counter()
        slow_result = slow(index)
        slow_s = time.perf_counter() - started
        gc.collect()
        started = time.perf_counter()
        for _ in range(batch):
            fast_result = fast(index)
        fast_s = (time.perf_counter() - started) / batch
        ratios.append(slow_s / fast_s)
        slow_ms.append(slow_s * 1e3)
        fast_ms.append(fast_s * 1e3)
        results.append((slow_result, fast_result))
    return Paired(statistics.median(ratios), statistics.median(slow_ms),
                  statistics.median(fast_ms), results)


def report(title: str, rows, header=None) -> None:
    print()
    print(f"== {title} ==")
    if header:
        print("  " + " | ".join(str(h) for h in header))
    for row in rows:
        print("  " + " | ".join(str(cell) for cell in row))
