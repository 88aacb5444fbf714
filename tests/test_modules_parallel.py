"""The parallel module-build machinery, unit by unit.

Covers the DAG scheduler's ordering and failure barrier, the
``--jobs`` resolution rules, exact metric totals (one forked build, and
many serial builders racing on threads the way daemon workers do),
failure parity between serial and forked builds (same exception, same
message), the serial fallback where ``os.fork`` is unavailable, the
deep (checked-AST) warm path, and the fork worker pool.
"""

import os
import threading

import pytest

from repro.core.env import CompileEnv
from repro.diag import DiagnosticError
from repro.interp import Interpreter
from repro.modules import (MemorySources, ModuleBuilder, load_unit,
                           procpool, snapshot_unit, SnapshotError)
from repro.modules.procpool import ChildJobError, ForkPool, fork_available
from repro.modules.schedule import DagScheduler, resolve_jobs
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


class TestDagScheduler:
    def test_deps_always_complete_first(self):
        order = ["a", "b", "c", "d", "e"]
        deps = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"],
                "e": ["d"]}
        started, lock = [], threading.Lock()

        def run(name):
            with lock:
                started.append(name)
            return name.upper()

        scheduler = DagScheduler(order, deps, run)
        scheduler.run_threaded(3)
        position = {name: i for i, name in enumerate(started)}
        for name, wants in deps.items():
            for dep in wants:
                assert position[dep] < position[name]
        assert scheduler.results() == {n: n.upper() for n in order}
        assert scheduler.failed() == []

    def test_single_job_runs_in_topo_order(self):
        order = ["m0", "m1", "m2", "m3"]
        deps = {"m0": [], "m1": [], "m2": ["m0"], "m3": []}
        ran = []
        DagScheduler(order, deps, ran.append).run_threaded(1)
        assert ran == order

    def test_tasks_genuinely_overlap(self):
        # Two independent tasks that each wait for the other to start:
        # only a schedule that actually runs them concurrently passes.
        barrier = threading.Barrier(2, timeout=10)

        def run(name):
            barrier.wait()

        DagScheduler(["x", "y"], {"x": [], "y": []}, run).run_threaded(2)

    def test_failure_halts_and_strands_dependents(self):
        order = ["a", "b", "c", "z"]
        deps = {"a": [], "b": ["a"], "c": ["b"], "z": []}
        boom = RuntimeError("b exploded")

        def run(name):
            if name == "b":
                raise boom
            return name

        scheduler = DagScheduler(order, deps, run)
        scheduler.run_threaded(2)
        failed = scheduler.failed()
        assert [task.name for task in failed] == ["b"]
        assert failed[0].error is boom
        states = {name: task.state for name, task in scheduler.tasks.items()}
        assert states["a"] == scheduler.tasks["a"].DONE
        assert states["c"] == scheduler.tasks["c"].SKIPPED


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
    def test_jobs_round_trip(self):
        with ForkPool(2, lambda job: job * 2) as pool:
            assert pool.call(21) == 42
            assert pool.call("ab") == "abab"

    def test_child_errors_ship_without_killing_the_pool(self):
        def run_job(job):
            if job == "bad":
                raise ValueError("job went sideways")
            return "ok"

        with ForkPool(1, run_job) as pool:
            with pytest.raises(ChildJobError) as caught:
                pool.call("bad")
            assert "job went sideways" in str(caught.value)
            # The worker survives a shipped error and serves on.
            assert pool.call("fine") == "ok"

    def test_close_is_idempotent(self):
        pool = ForkPool(2, lambda job: job)
        pool.close()
        pool.close()
