"""Module-build performance: incremental, parallel, and deep-restore.

* **E16 — incremental rebuild**: edit one leaf of a ≥20-module project
  and rebuild from a warm cache; exactly one module recompiles.  Bar:
  ≥5x over clean.
* **E17a — parallel clean build**: a 100-module fan-out built with
  ``jobs=1`` vs ``jobs=cpu_count`` (fork workers; the serial walk where
  ``os.fork`` is unavailable).  The ≥2x bar is asserted only on
  multi-core hosts with fork — on one CPU there is nothing to win and
  the honest ratio is ~1x — but the measured value is always recorded,
  and byte-equality always asserted.
  Deep-chain and diamond shapes are reported alongside for scheduling
  shape coverage (a 30-deep chain has zero exploitable parallelism; a
  diamond has exactly two lanes).
* **E17b — warm deep restore**: a warm ``need_bodies`` build with the
  deep (pickled checked-AST) artifact vs the same build forced down
  the expanded-source recompile path.  Bar: ≥2x.

Every ratio lands in ``BENCH_modules.json`` under ``*_speedup`` names,
so ``compare.py``'s higher-is-better rule gates regressions; every
path asserts byte-identical combined artifacts first — no speedup
bought with wrong output.
"""

import os
import shutil
import statistics
import tempfile
import time

from conftest import record_metric, report

from repro.modules import MemorySources, ModuleBuilder
from repro.modules.procpool import fork_available

LAYERS = 7
WIDTH = 3
ROUNDS = 3
MIN_SPEEDUP = 5.0
WIDE_MODULES = 100
CHAIN_DEPTH = 30
MIN_PARALLEL_SPEEDUP = 2.0
MIN_RESTORE_SPEEDUP = 2.0


def synthetic_project():
    """A layered DAG of ``LAYERS * WIDTH`` library modules plus one
    application root — 22 modules with WIDTH=3, LAYERS=7.

    ``lib.L<i>x<j>`` imports every module of the previous layer, so the
    dependency cone of an upper-layer edit is wide; ``app.Main`` (the
    edit target) imports the top layer and is depended on by nothing.
    """
    sources = {}
    for layer in range(LAYERS):
        for slot in range(WIDTH):
            name = f"lib.L{layer}x{slot}"
            imports, terms = "", [f"{layer + slot + 1}"]
            if layer:
                for dep in range(WIDTH):
                    imports += f"import lib.L{layer - 1}x{dep};\n"
                    terms.append(f"L{layer - 1}x{dep}.value()")
            helpers = "\n".join(
                f"    static int h{k}(int n) {{\n"
                f"        int total = 0;\n"
                f"        for (int i = 0; i < n; i++) {{\n"
                f"            if (i % {k + 2} == 0) {{ total += i; }}\n"
                f"            else {{ total -= {k}; }}\n"
                f"        }}\n"
                f"        return total;\n"
                f"    }}" for k in range(12))
            sources[name] = (
                f"{imports}"
                f"class L{layer}x{slot} {{\n"
                f"{helpers}\n"
                f"    static int value() "
                f"{{ return {' + '.join(terms)} + "
                f"L{layer}x{slot}.h0(3); }}\n"
                f"}}\n")
    top = "".join(f"import lib.L{LAYERS - 1}x{slot};\n"
                  for slot in range(WIDTH))
    calls = " + ".join(f"L{LAYERS - 1}x{slot}.value()"
                       for slot in range(WIDTH))
    sources["app.Main"] = (
        f"{top}class Main {{ static void main() "
        f"{{ System.out.println({calls}); }} }}\n")
    return sources


def build_ms(sources, cache_dir):
    started = time.perf_counter()
    result = ModuleBuilder(MemorySources(sources),
                           cache_dir=cache_dir).build(["app.Main"])
    return (time.perf_counter() - started) * 1000.0, result


def test_incremental_rebuild_speedup():
    sources = synthetic_project()
    clean_ms, incremental_ms = [], []
    scratch = tempfile.mkdtemp(prefix="bench-modules-")
    try:
        for round_no in range(ROUNDS):
            cache = f"{scratch}/round{round_no}"
            cold_ms, cold = build_ms(sources, cache)
            assert len(cold.order) >= 20
            assert cold.recompiled == cold.order

            edited = dict(sources)
            edited["app.Main"] = sources["app.Main"].replace(
                "System.out.println", f"/* edit {round_no} */ "
                                      "System.out.println")
            warm_ms, warm = build_ms(edited, cache)
            assert warm.recompiled == ["app.Main"]
            assert len(warm.reused) == len(cold.order) - 1

            # No speedup bought with wrong bytes: the incremental
            # artifact must match a from-scratch build of the edit.
            clean_of_edit = ModuleBuilder(
                MemorySources(edited)).build(["app.Main"])
            assert warm.expanded() == clean_of_edit.expanded()

            clean_ms.append(cold_ms)
            incremental_ms.append(warm_ms)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    clean = statistics.median(clean_ms)
    incremental = statistics.median(incremental_ms)
    speedup = clean / incremental
    modules = LAYERS * WIDTH + 1
    report(
        f"E16: leaf edit in a {modules}-module project "
        f"(median of {ROUNDS})",
        [["clean rebuild", f"{clean:.1f} ms", f"{modules} compiled"],
         ["incremental rebuild", f"{incremental:.1f} ms",
          f"1 compiled, {modules - 1} reused"],
         ["speedup", f"{speedup:.1f}x", f"bar: >= {MIN_SPEEDUP:.0f}x"]],
        header=["path", "median", "modules"])
    record_metric("modules_clean_build_ms", round(clean, 3), "ms")
    record_metric("modules_incremental_build_ms", round(incremental, 3),
                  "ms")
    record_metric("modules_incremental_speedup", round(speedup, 3), "x")
    assert speedup >= MIN_SPEEDUP, \
        f"incremental rebuild only {speedup:.1f}x faster than clean"


def _body(name: str, terms, helpers: int = 6) -> str:
    """One synthetic class with enough method-body work that a module
    compile is dominated by real lex/parse/check, not fixed overhead."""
    methods = "\n".join(
        f"    static int h{k}(int n) {{\n"
        f"        int total = 0;\n"
        f"        for (int i = 0; i < n; i++) {{\n"
        f"            if (i % {k + 2} == 0) {{ total += i; }}\n"
        f"            else {{ total -= {k}; }}\n"
        f"        }}\n"
        f"        return total;\n"
        f"    }}" for k in range(helpers))
    value = " + ".join(list(terms) + [f"{name}.h0(3)"])
    return (f"class {name} {{\n{methods}\n"
            f"    static int value() {{ return {value}; }}\n}}\n")


def wide_project(width: int = WIDE_MODULES):
    """``width`` mutually independent leaves plus one root importing
    them all: the maximally parallel shape."""
    sources = {}
    for slot in range(width):
        sources[f"lib.W{slot}"] = _body(f"W{slot}", [str(slot)])
    imports = "".join(f"import lib.W{slot};\n" for slot in range(width))
    calls = " + ".join(f"W{slot}.value()" for slot in range(width))
    sources["app.Main"] = (
        f"{imports}class Main {{ static void main() "
        f"{{ System.out.println({calls}); }} }}\n")
    return sources


def chain_project(depth: int = CHAIN_DEPTH):
    """A ``depth``-long single chain: zero exploitable parallelism —
    the scheduler must degrade to serial without added cost."""
    sources = {"lib.C0": _body("C0", ["1"])}
    for link in range(1, depth):
        sources[f"lib.C{link}"] = (
            f"import lib.C{link - 1};\n"
            + _body(f"C{link}", [f"C{link - 1}.value()"]))
    sources["app.Main"] = (
        f"import lib.C{depth - 1};\nclass Main {{ static void main() "
        f"{{ System.out.println(C{depth - 1}.value()); }} }}\n")
    return sources


def diamond_project():
    """Root → two independent lanes of 10 → joined tip: exactly two
    lanes of parallelism with a barrier at each end."""
    sources = {"lib.Base": _body("Base", ["1"])}
    for lane in ("A", "B"):
        prev = "Base"
        for step in range(10):
            name = f"{lane}{step}"
            sources[f"lib.{name}"] = (
                f"import lib.{prev};\n"
                + _body(name, [f"{prev}.value()"]))
            prev = name
    sources["app.Main"] = (
        "import lib.A9;\nimport lib.B9;\n"
        "class Main { static void main() "
        "{ System.out.println(A9.value() + B9.value()); } }\n")
    return sources


def _timed_build(sources, jobs: int, cache_dir=None,
                 need_bodies: bool = False, deep_restore: bool = True):
    builder = ModuleBuilder(MemorySources(sources), cache_dir=cache_dir,
                            jobs=jobs, deep_restore=deep_restore)
    started = time.perf_counter()
    result = builder.build(["app.Main"], need_bodies=need_bodies)
    return (time.perf_counter() - started) * 1000.0, result


def test_parallel_clean_speedup():
    """E17a: fan a clean build over the import DAG."""
    cpus = os.cpu_count() or 1
    jobs = max(2, min(cpus, 8))
    fork = fork_available()

    shapes = []
    wide = wide_project()
    serial_ms, parallel_ms = [], []
    for _ in range(ROUNDS):
        one_ms, one = _timed_build(wide, 1)
        many_ms, many = _timed_build(wide, jobs)
        assert many.expanded() == one.expanded()
        assert many.report() == one.report()
        serial_ms.append(one_ms)
        parallel_ms.append(many_ms)
    serial = statistics.median(serial_ms)
    parallel = statistics.median(parallel_ms)
    speedup = serial / parallel
    shapes.append([f"wide ({WIDE_MODULES}+1 modules)",
                   f"{serial:.0f} ms", f"{parallel:.0f} ms",
                   f"{speedup:.2f}x"])

    for label, sources in (("deep (30-chain)", chain_project()),
                           ("diamond (2 lanes x 10)", diamond_project())):
        one_ms, one = _timed_build(sources, 1)
        many_ms, many = _timed_build(sources, jobs)
        assert many.expanded() == one.expanded()
        shapes.append([label, f"{one_ms:.0f} ms", f"{many_ms:.0f} ms",
                       f"{one_ms / many_ms:.2f}x"])

    report(
        f"E17a: parallel clean builds, jobs=1 vs jobs={jobs} "
        f"({'fork workers' if fork else 'serial: no fork'}, {cpus} CPUs, "
        f"median of {ROUNDS} for wide)",
        shapes,
        header=["shape", "jobs=1", f"jobs={jobs}", "speedup"])
    record_metric("modules_parallel_clean_speedup", round(speedup, 3), "x")
    record_metric("modules_parallel_wide_jobs1_ms", round(serial, 3), "ms")
    record_metric("modules_parallel_wide_jobsN_ms", round(parallel, 3),
                  "ms")
    if cpus >= 2 and fork:
        assert speedup >= MIN_PARALLEL_SPEEDUP, \
            f"wide clean build only {speedup:.2f}x with {cpus} CPUs"
    else:
        # One CPU (or no fork): nothing to win under the GIL; the bar
        # is scheduling overhead staying small, not a speedup.
        assert speedup >= 0.5, \
            f"parallel scheduling overhead too high ({speedup:.2f}x)"


def test_warm_restore_speedup():
    """E17b: deep (checked-AST) restore vs expanded-source recompile
    on a warm ``need_bodies`` build."""
    sources = synthetic_project()
    scratch = tempfile.mkdtemp(prefix="bench-deep-")
    shallow_ms, deep_ms = [], []
    try:
        _timed_build(sources, 1, cache_dir=scratch)  # warm it
        baseline = None
        for _ in range(ROUNDS):
            cold_ms, cold = _timed_build(sources, 1, cache_dir=scratch,
                                         need_bodies=True,
                                         deep_restore=False)
            warm_ms, warm = _timed_build(sources, 1, cache_dir=scratch,
                                         need_bodies=True,
                                         deep_restore=True)
            assert cold.reused == cold.order
            assert warm.reused == warm.order
            assert warm.expanded() == cold.expanded()
            if baseline is None:
                baseline = cold.expanded()
            assert warm.expanded() == baseline
            shallow_ms.append(cold_ms)
            deep_ms.append(warm_ms)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    shallow = statistics.median(shallow_ms)
    deep = statistics.median(deep_ms)
    speedup = shallow / deep
    modules = LAYERS * WIDTH + 1
    report(
        f"E17b: warm materialization of a {modules}-module project "
        f"(median of {ROUNDS})",
        [["expanded-source recompile", f"{shallow:.1f} ms",
          "lex+parse+check per module"],
         ["deep AST restore", f"{deep:.1f} ms",
          "unpickle+shape+check only"],
         ["speedup", f"{speedup:.1f}x",
          f"bar: >= {MIN_RESTORE_SPEEDUP:.0f}x"]],
        header=["path", "median", "work"])
    record_metric("modules_warm_shallow_ms", round(shallow, 3), "ms")
    record_metric("modules_warm_deep_ms", round(deep, 3), "ms")
    record_metric("modules_warm_restore_speedup", round(speedup, 3), "x")
    assert speedup >= MIN_RESTORE_SPEEDUP, \
        f"deep restore only {speedup:.1f}x over expanded-source recompile"
