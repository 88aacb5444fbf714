"""Module-build performance: incremental, parallel, and deep-restore.

Each speedup is a same-host ratio measured as interleaved pairs, and
every path asserts byte-identical combined artifacts: no speedup
bought with wrong output.

* **E16 — incremental rebuild**: edit one leaf of a ≥20-module project
  and rebuild from a warm cache; exactly one module recompiles.  Bar:
  ≥5x over clean.
* **E17a — parallel clean build**: a 100-module fan-out built with
  ``jobs=1`` vs ``jobs=cpu_count`` (fork workers; the serial walk where
  ``os.fork`` is unavailable).  The ≥2x bar holds on multi-core hosts
  with fork; on one CPU there is nothing to win and the bar is
  scheduling overhead staying small (≥0.5x).  Deep-chain and diamond
  shapes are reported alongside for scheduling shape coverage (a
  30-deep chain has zero exploitable parallelism; a diamond has
  exactly two lanes).
* **E17b — warm deep restore**: build a runnable program and run
  ``Main`` on a fresh interpreter, once from a clean build into a fresh
  cache and once from a warm cache, whose hits restore the pickled
  checked ASTs.  Bar: ≥2x.
"""

import os
import shutil
import tempfile

from conftest import paired, report

from repro.interp import Interpreter
from repro.modules import MemorySources, ModuleBuilder
from repro.modules.procpool import fork_available

LAYERS = 7
WIDTH = 3
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


def _build(sources, jobs: int = 1, cache_dir=None,
           need_bodies: bool = False):
    builder = ModuleBuilder(MemorySources(sources), cache_dir=cache_dir,
                            jobs=jobs)
    return builder.build(["app.Main"], need_bodies=need_bodies)


def _edited(sources, index: int):
    edited = dict(sources)
    edited["app.Main"] = sources["app.Main"].replace(
        "System.out.println", f"/* edit {index} */ System.out.println")
    return edited


def test_incremental_rebuild_speedup():
    sources = synthetic_project()
    scratch = tempfile.mkdtemp(prefix="bench-modules-")
    try:
        # Each pair: a clean build into a fresh cache, then the
        # incremental build of a leaf edit against it.
        measured = paired(
            lambda index: _build(sources, cache_dir=f"{scratch}/{index}"),
            lambda index: _build(_edited(sources, index),
                                 cache_dir=f"{scratch}/{index}"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for index, (cold, warm) in enumerate(measured.results):
        assert len(cold.order) >= 20
        assert cold.recompiled == cold.order
        assert warm.recompiled == ["app.Main"]
        assert len(warm.reused) == len(cold.order) - 1
        # The incremental artifact must match a from-scratch build of
        # the edit.
        assert warm.expanded() == _build(_edited(sources, index)).expanded()

    modules = LAYERS * WIDTH + 1
    report(
        f"E16: leaf edit in a {modules}-module project "
        f"(median of {len(measured.results)} pairs)",
        [["clean rebuild", f"{measured.slow_ms:.1f} ms",
          f"{modules} compiled"],
         ["incremental rebuild", f"{measured.fast_ms:.1f} ms",
          f"1 compiled, {modules - 1} reused"],
         ["speedup", f"{measured.ratio:.1f}x",
          f"bar: >= {MIN_SPEEDUP:.0f}x"]],
        header=["path", "median", "modules"])
    assert measured.ratio >= MIN_SPEEDUP, \
        f"incremental rebuild only {measured.ratio:.1f}x faster than clean"


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


def test_parallel_clean_speedup():
    """E17a: fan a clean build over the import DAG."""
    cpus = os.cpu_count() or 1
    jobs = max(2, min(cpus, 8))
    fork = fork_available()

    shapes = []
    for label, sources, pairs in (
            (f"wide ({WIDE_MODULES}+1 modules)", wide_project(), 3),
            ("deep (30-chain)", chain_project(), 1),
            ("diamond (2 lanes x 10)", diamond_project(), 1)):
        measured = paired(lambda _: _build(sources, 1),
                          lambda _: _build(sources, jobs), pairs=pairs)
        for one, many in measured.results:
            assert many.expanded() == one.expanded()
            assert many.report() == one.report()
        shapes.append((label, measured))
    speedup = shapes[0][1].ratio

    report(
        f"E17a: parallel clean builds, jobs=1 vs jobs={jobs} "
        f"({'fork workers' if fork else 'serial: no fork'}, {cpus} CPUs, "
        f"median of 3 pairs for wide)",
        [[label, f"{measured.slow_ms:.0f} ms", f"{measured.fast_ms:.0f} ms",
          f"{measured.ratio:.2f}x"] for label, measured in shapes],
        header=["shape", "jobs=1", f"jobs={jobs}", "speedup"])
    if cpus >= 2 and fork:
        assert speedup >= MIN_PARALLEL_SPEEDUP, \
            f"wide clean build only {speedup:.2f}x with {cpus} CPUs"
    else:
        # One CPU (or no fork): nothing to win under the GIL; the bar
        # is scheduling overhead staying small, not a speedup.
        assert speedup >= 0.5, \
            f"parallel scheduling overhead too high ({speedup:.2f}x)"


def _run_main(sources, cache_dir):
    """Build a runnable program and run ``Main`` on a fresh
    interpreter: the build and the program's stdout."""
    build = _build(sources, cache_dir=cache_dir, need_bodies=True)
    interp = Interpreter(build.program)
    interp.run_static("Main")
    return build, interp.output


def test_warm_restore_speedup():
    """E17b: clean build + run vs warm deep-restore build + run."""
    sources = synthetic_project()
    scratch = tempfile.mkdtemp(prefix="bench-deep-")
    try:
        _build(sources, cache_dir=f"{scratch}/warm")  # warm it
        measured = paired(
            lambda index: _run_main(sources, f"{scratch}/clean{index}"),
            lambda _: _run_main(sources, f"{scratch}/warm"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for (clean, clean_out), (deep, deep_out) in measured.results:
        assert clean.recompiled == clean.order
        assert deep.reused == deep.order
        assert deep.expanded() == clean.expanded()
        assert deep_out == clean_out and len(clean_out) == 1

    modules = LAYERS * WIDTH + 1
    report(
        f"E17b: runnable build + run of a {modules}-module project "
        f"(median of {len(measured.results)} pairs)",
        [["clean build", f"{measured.slow_ms:.1f} ms",
          "lex+parse+expand+check every module"],
         ["warm deep restore", f"{measured.fast_ms:.1f} ms",
          "unpickle+shape; called bodies checked at first call"],
         ["speedup", f"{measured.ratio:.1f}x",
          f"bar: >= {MIN_RESTORE_SPEEDUP:.0f}x"]],
        header=["path", "median", "work"])
    assert measured.ratio >= MIN_RESTORE_SPEEDUP, \
        f"warm deep restore only {measured.ratio:.1f}x over a clean build"
