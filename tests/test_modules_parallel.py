"""The parallel module-build machinery, unit by unit.

Covers the one-thread DAG loop's ordering and failure barrier (with
trivial forked jobs), the ``--jobs`` resolution rules, exact metric
totals (one forked build, and many serial builders racing on threads
the way daemon workers do), failure parity between serial and forked
builds (same exception, same message), forking only for two or more
cache misses, a worker dying mid-job, the serial fallback where
``os.fork`` is unavailable, the deep (checked-AST) warm path, and the
forked worker itself.
"""

import os
import threading
import time

import pytest

from repro.core.env import CompileEnv
from repro.diag import DiagnosticError
from repro.interp import Interpreter
from repro.modules import (MemorySources, ModuleBuilder, load_unit,
                           procpool, snapshot_unit, SnapshotError)
from repro.modules.procpool import (ChildJobError, Worker, fork_available,
                                    resolve_jobs, run_dag)
from repro.obs.metrics import REGISTRY


def _counter(name):
    return REGISTRY.get(name).value


def project(width=4, prefix="lib"):
    """``width`` independent leaves plus a root importing them all."""
    sources = {
        f"{prefix}.M{i}": f"class M{i} {{ static int v() "
                          f"{{ return {i + 1}; }} }}"
        for i in range(width)
    }
    imports = "".join(f"import {prefix}.M{i};\n" for i in range(width))
    calls = " + ".join(f"M{i}.v()" for i in range(width))
    sources["app.Main"] = (
        f"{imports}class Main {{ static int run() "
        f"{{ return {calls}; }} }}")
    return sources


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("MAYA_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("MAYA_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("MAYA_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_auto_and_zero_mean_cpu_count(self):
        expect = os.cpu_count() or 1
        assert resolve_jobs("auto") == expect
        assert resolve_jobs(0) == expect

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            resolve_jobs("lots")

    def test_negative_clamps_to_one(self):
        assert resolve_jobs(-4) == 1


def _append(path, line):
    """Append one line with a single ``O_APPEND`` write, so lines from
    concurrent worker processes never interleave."""
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, (line + "\n").encode("utf-8"))
    finally:
        os.close(fd)


def _lines(path):
    return path.read_text().splitlines()


def _count_forks(monkeypatch):
    """Wrap ``os.fork`` so the returned list grows once per fork."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestDagScheduler:
    """:func:`run_dag` with trivial jobs; the workers log to files."""

    def test_deps_always_complete_first(self, tmp_path):
        order = ["a", "b", "c", "d", "e"]
        deps = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"],
                "e": ["d"]}
        log = tmp_path / "log"

        def run(name, dep_values):
            _append(log, f"start {name}")
            assert dep_values == {dep: dep.upper() for dep in deps[name]}
            _append(log, f"end {name}")
            return name.upper()

        done = {}
        assert run_dag(order, deps, done, run, 3) == {}
        assert done == {n: n.upper() for n in order}
        events = _lines(log)
        for name, wants in deps.items():
            for dep in wants:
                assert events.index(f"end {dep}") \
                    < events.index(f"start {name}")

    def test_single_job_runs_in_topo_order(self, tmp_path):
        order = ["m0", "m1", "m2", "m3"]
        deps = {"m0": [], "m1": [], "m2": ["m0"], "m3": []}
        log = tmp_path / "log"
        run_dag(order, deps, {}, lambda name, _: _append(log, name), 1)
        assert _lines(log) == order

    def test_tasks_genuinely_overlap(self, tmp_path):
        # Two independent jobs that each wait for the other to start:
        # only a schedule that actually runs them concurrently passes.
        def run(name, _):
            (tmp_path / name).touch()
            other = tmp_path / ("y" if name == "x" else "x")
            deadline = time.monotonic() + 10
            while not other.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{name} ran alone")
                time.sleep(0.005)
            return name

        done = {}
        assert run_dag(["x", "y"], {"x": [], "y": []}, done, run, 2) == {}
        assert done == {"x": "x", "y": "y"}

    def test_failure_halts_and_strands_dependents(self):
        order = ["a", "b", "c", "z"]
        deps = {"a": [], "b": ["a"], "c": ["b"], "z": []}

        def run(name, _):
            if name == "b":
                raise RuntimeError("b exploded")
            return name

        done = {}
        failed = run_dag(order, deps, done, run, 2)
        assert list(failed) == ["b"]
        assert isinstance(failed["b"], ChildJobError)
        assert "b exploded" in str(failed["b"])
        assert done["a"] == "a"
        assert "b" not in done and "c" not in done


class TestParallelBuilder:
    def test_exact_counter_totals_one_build(self, tmp_path):
        sources = project(width=6)
        compiled0 = _counter("maya_modules_compiled_total")
        clean = ModuleBuilder(MemorySources(sources),
                              cache_dir=str(tmp_path),
                              jobs=4).build(["app.Main"])
        assert _counter("maya_modules_compiled_total") - compiled0 \
            == len(clean.order) == 7

        reused0 = _counter("maya_modules_reused_total")
        deep0 = _counter("maya_modules_deep_restored_total")
        fallback0 = _counter("maya_modules_deep_fallback_total")
        warm = ModuleBuilder(MemorySources(sources),
                             cache_dir=str(tmp_path),
                             jobs=4).build(["app.Main"], need_bodies=True)
        assert warm.reused == warm.order
        assert _counter("maya_modules_reused_total") - reused0 == 7
        # Every warm materialization took the deep path.
        assert _counter("maya_modules_deep_restored_total") - deep0 == 7
        assert _counter("maya_modules_deep_fallback_total") == fallback0

    def test_exact_counter_totals_many_racing_builders(self, tmp_path):
        # Hammer the shared counters from many concurrent serial builds
        # (the daemon's pattern: one build per worker thread — never
        # forked, since forking a multithreaded process is unsafe) and
        # assert *exact* totals: a lost update or a double-count shows
        # up as an off-by-N.
        builders = 6
        sources = [project(width=3, prefix=f"race{i}")
                   for i in range(builders)]
        compiled0 = _counter("maya_modules_compiled_total")
        errors = []

        def build(i):
            try:
                ModuleBuilder(MemorySources(sources[i]),
                              cache_dir=str(tmp_path / str(i)),
                              env=CompileEnv(),
                              jobs=1).build(["app.Main"])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(builders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert _counter("maya_modules_compiled_total") - compiled0 \
            == builders * 4

    def test_failure_parity_with_serial(self, tmp_path):
        sources = project(width=3)
        sources["app.Main"] = (
            "import lib.M0;\n"
            "class Main { static int run() { return M0.nope(); } }")

        def message(jobs):
            with pytest.raises(DiagnosticError) as caught:
                ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                              jobs=jobs).build(["app.Main"])
            return str(caught.value)

        serial = message(1)
        assert "nope" in serial
        assert message(4) == serial

    def test_no_fork_falls_back_to_the_serial_walk(self, monkeypatch):
        # Without os.fork, jobs=4 is the serial walk: same bytes, and
        # no helper thread is ever started.
        sources = project(width=5)
        serial = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                               jobs=1).build(["app.Main"])
        monkeypatch.setattr(procpool, "fork_available", lambda: False)
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before = threading.active_count()
        fallback = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                                 jobs=4).build(["app.Main"])
        assert threading.active_count() == before
        assert started == []
        assert fallback.expanded() == serial.expanded()
        assert fallback.report() == serial.report()
        if not fork_available():
            return
        # With os.fork, jobs=4 forks its workers and still starts no
        # thread: one thread drives them.
        monkeypatch.setattr(procpool, "fork_available", fork_available)
        forks = _count_forks(monkeypatch)
        forked = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                               jobs=4).build(["app.Main"])
        assert len(forks) == 4
        assert started == []
        assert forked.expanded() == serial.expanded()
        assert forked.report() == serial.report()

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_forks_only_for_two_or_more_misses(self, tmp_path,
                                               monkeypatch):
        sources = project(width=6)

        def both(sources):
            # The same build at jobs=1 and jobs=4, each on its own
            # cache; returns the jobs=4 result and its fork count.
            serial = ModuleBuilder(MemorySources(sources),
                                   cache_dir=str(tmp_path / "one"),
                                   jobs=1).build(["app.Main"])
            forks = _count_forks(monkeypatch)
            parallel = ModuleBuilder(MemorySources(sources),
                                     cache_dir=str(tmp_path / "four"),
                                     jobs=4).build(["app.Main"])
            monkeypatch.undo()
            assert parallel.expanded() == serial.expanded()
            assert parallel.report() == serial.report()
            return parallel, len(forks)

        clean, forks = both(sources)
        assert len(clean.recompiled) == 7 and forks == 4
        warm, forks = both(sources)
        assert warm.recompiled == [] and forks == 0
        # Editing the root misses it alone: nothing to overlap.
        edited = dict(sources)
        edited["app.Main"] += "\n// edited\n"
        one, forks = both(edited)
        assert one.recompiled == ["app.Main"] and forks == 0
        # A leaf edit misses the leaf and the root: one worker each.
        edited["lib.M0"] += "\n// edited\n"
        two, forks = both(edited)
        assert two.recompiled == ["lib.M0", "app.Main"] and forks == 2

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_worker_dying_mid_job_is_recompiled_serially(self,
                                                         monkeypatch):
        sources = project(width=5)
        serial = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                               jobs=1).build(["app.Main"])
        parent = os.getpid()
        recompile = ModuleBuilder._recompile

        def dying_recompile(builder, info, builds):
            if os.getpid() != parent and info.name == "lib.M2":
                os._exit(1)
            return recompile(builder, info, builds)

        monkeypatch.setattr(ModuleBuilder, "_recompile", dying_recompile)
        parallel = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                                 jobs=4).build(["app.Main"])
        assert parallel.expanded() == serial.expanded()
        assert parallel.report() == serial.report()
        assert "lib.M2" in parallel.recompiled
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every worker was reaped

    def test_program_tables_are_canonical_after_parallel_build(self):
        sources = project(width=5)
        serial = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                               jobs=1).build(["app.Main"],
                                             need_bodies=True)
        parallel = ModuleBuilder(MemorySources(sources), env=CompileEnv(),
                                 jobs=4).build(["app.Main"],
                                               need_bodies=True)
        assert list(parallel.program.classes) \
            == list(serial.program.classes)
        assert parallel.program.source() == serial.program.source()

    def test_parallel_warm_program_runs(self, tmp_path):
        sources = project(width=4)
        ModuleBuilder(MemorySources(sources),
                      cache_dir=str(tmp_path)).build(["app.Main"])
        warm = ModuleBuilder(MemorySources(sources),
                             cache_dir=str(tmp_path),
                             jobs=4).build(["app.Main"],
                                           need_bodies=True)
        value = Interpreter(warm.program).run_static("Main", "run")
        assert value == 1 + 2 + 3 + 4


class TestDeepRestore:
    def test_snapshot_roundtrip_unparses_identically(self):
        from repro.ast import to_source
        from repro.core.compiler import MayaCompiler

        compiler = MayaCompiler()
        program = compiler.compile(
            "class Pair { int a; int b;\n"
            "  Pair(int a, int b) { this.a = a; this.b = b; }\n"
            "  int sum() { int t = this.a + this.b; return t; } }")
        unit = program.units[-1]
        blob = snapshot_unit(unit)
        assert blob is not None
        assert snapshot_unit(unit) == blob  # canonical bytes
        restored = load_unit(blob)
        assert to_source(restored) == to_source(unit)

    def test_corrupt_blob_raises_snapshot_error(self):
        from repro.core.compiler import MayaCompiler

        program = MayaCompiler().compile("class One { }")
        blob = snapshot_unit(program.units[-1])
        with pytest.raises(SnapshotError):
            load_unit(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError):
            load_unit(b"\x80\x04not a snapshot")

    def test_deep_and_shallow_materialization_agree(self, tmp_path):
        sources = project(width=3)
        ModuleBuilder(MemorySources(sources),
                      cache_dir=str(tmp_path)).build(["app.Main"])

        deep0 = _counter("maya_modules_deep_restored_total")
        deep = ModuleBuilder(MemorySources(sources),
                             cache_dir=str(tmp_path)
                             ).build(["app.Main"], need_bodies=True)
        assert _counter("maya_modules_deep_restored_total") - deep0 == 4

        fallback0 = _counter("maya_modules_deep_fallback_total")
        shallow = ModuleBuilder(MemorySources(sources),
                                cache_dir=str(tmp_path),
                                deep_restore=False
                                ).build(["app.Main"], need_bodies=True)
        assert _counter("maya_modules_deep_fallback_total") \
            - fallback0 == 4

        assert deep.expanded() == shallow.expanded()
        assert deep.program.source() == shallow.program.source()
        assert Interpreter(deep.program).run_static("Main", "run") \
            == Interpreter(shallow.program).run_static("Main", "run")

    def test_macro_heavy_module_deep_restores_and_runs(self, tmp_path):
        # Mayan-expanded trees must survive the snapshot: expansion
        # happens at recompile, the deep artifact is the *expanded*
        # checked tree.
        from repro.macros import install_macro_library

        sources = {
            "lib.Loops": """
                use maya.util.ForEach;
                class Loops {
                    static void dump(String[] items) {
                        items.foreach(String s) {
                            System.out.println(s);
                        }
                    }
                }
            """,
            "app.Main": """
                import lib.Loops;
                class Main {
                    static void main() {
                        String[] data = new String[2];
                        data[0] = "alpha"; data[1] = "beta";
                        Loops.dump(data);
                    }
                }
            """,
        }

        def builder():
            built = ModuleBuilder(MemorySources(sources),
                                  cache_dir=str(tmp_path))
            install_macro_library(built.compiler)
            return built

        builder().build(["app.Main"])
        deep0 = _counter("maya_modules_deep_restored_total")
        warm = builder().build(["app.Main"], need_bodies=True)
        assert warm.reused == warm.order
        assert _counter("maya_modules_deep_restored_total") - deep0 == 2
        interp = Interpreter(warm.program)
        interp.run_static("Main")
        assert interp.output == ["alpha", "beta"]


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestForkPool:
    """One forked :class:`Worker`, driven directly."""

    def test_jobs_round_trip(self):
        worker = Worker(lambda job: job * 2)
        try:
            worker.send(21)
            assert worker.recv() == 42
            worker.send("ab")
            assert worker.recv() == "abab"
        finally:
            worker.close()

    def test_child_errors_ship_without_killing_the_pool(self):
        def run_job(job):
            if job == "bad":
                raise ValueError("job went sideways")
            return "ok"

        worker = Worker(run_job)
        try:
            worker.send("bad")
            with pytest.raises(ChildJobError) as caught:
                worker.recv()
            assert "job went sideways" in str(caught.value)
            # The worker survives a shipped error and serves on.
            worker.send("fine")
            assert worker.recv() == "ok"
        finally:
            worker.close()

    def test_close_is_idempotent(self):
        worker = Worker(lambda job: job)
        worker.close()
        worker.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)  # reaped by the first
