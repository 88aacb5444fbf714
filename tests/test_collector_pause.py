"""``ModuleBuilder.build`` pauses the automatic collector.

A module build makes no cyclic garbage (its program owns its parts one
way), so it runs with the automatic collector off and restores the
collector's prior state when it returns or raises.  The pause is for
the main thread only: a daemon worker never touches the process-wide
switch.  The survivors the build allocated are scanned once, by the
first collection after it, which falls in the caller's next work (for
``mayac --run``, the run).

* **Contract** — the state is restored on every exit and nests; a
  build off the main thread never disables the collector; no
  collection starts inside a main-thread build.
* **Premise** — a clean and a warm edit build of the ``modules_edit``
  project leave 0 cyclic objects while their result is alive, serial
  and forked.  An edge that makes a build cyclic fails here rather
  than leaking silently under the pause.
* **Telemetry** — under ``mayac --trace-out`` no ``gc`` span falls
  inside a build's spans, the deferred collection shows as a ``gc``
  span of the run, and ``--profile`` keeps its ``gc`` row.
"""

import gc
import importlib.util
import json
import random
import sys
import threading
from pathlib import Path

import pytest

from repro import trace
from repro.core.compiler import MayaCompiler
from repro.mayac import main as mayac_main
from repro.modules import MemorySources, ModuleBuilder
from repro.modules import build as module_build
from repro.modules.procpool import fork_available
from tests.conftest import cyclic_garbage
from tests.test_modules import CHAIN, _write_project

ROOT = Path(__file__).resolve().parent.parent


def _e2e_inputs():
    spec = importlib.util.spec_from_file_location(
        "e2e_inputs", ROOT / "benchmarks" / "e2e" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The ``modules_edit`` project: 22 modules, seven layers of three,
#: each importing the whole layer below, plus ``app.Main``.
INPUTS = _e2e_inputs()


def _build(sources, cache_dir=None, jobs=1, need_bodies=True):
    return ModuleBuilder(MemorySources(sources), jobs=jobs,
                         cache_dir=str(cache_dir) if cache_dir else None
                         ).build(["app.Main"], need_bodies=need_bodies)


@pytest.fixture
def collector_on():
    """The automatic collector on at the start, and on again after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


class _Interrupted(Exception):
    pass


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------


class TestRestore:
    def test_after_a_build_that_succeeds(self, collector_on):
        _build(CHAIN)
        assert gc.isenabled()

    def test_after_a_build_that_fails_to_compile(self, collector_on):
        broken = dict(CHAIN, **{"lib.Mid": "class Mid { int f() { "
                                           "return \"no\"; } }"})
        with pytest.raises(Exception):
            _build(broken)
        assert gc.isenabled()

    def test_after_a_build_interrupted_inside_the_compile(
            self, collector_on, monkeypatch):
        seen = []

        def interrupted(*args, **kwargs):
            seen.append(gc.isenabled())
            raise _Interrupted

        monkeypatch.setattr(MayaCompiler, "compile_unit", interrupted)
        with pytest.raises(_Interrupted):
            _build(CHAIN)
        assert seen == [False]
        assert gc.isenabled()

    def test_a_build_started_with_the_collector_off_leaves_it_off(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _build(CHAIN)
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    def test_nested_pauses_restore_the_outer_state(self, collector_on):
        with trace.collector_paused():
            with trace.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestMainThreadOnly:
    def test_a_pause_off_the_main_thread_leaves_the_collector_on(
            self, collector_on):
        seen = []

        def worker():
            with trace.collector_paused():
                seen.append(gc.isenabled())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == [True]

    def test_a_daemon_module_request_never_disables_the_collector(
            self, collector_on, monkeypatch, tmp_path):
        """A multi-file ``mayad`` request builds on a worker thread;
        sampled inside that build, the collector is still on."""
        from repro.server import DaemonConfig, MayaClient, MayaDaemon

        samples = []
        build_modules = ModuleBuilder._build_modules

        def sampled(self, *args, **kwargs):
            samples.append((threading.current_thread()
                            is threading.main_thread(), gc.isenabled()))
            return build_modules(self, *args, **kwargs)

        monkeypatch.setattr(ModuleBuilder, "_build_modules", sampled)
        server = MayaDaemon(DaemonConfig(
            workers=2, queue_size=8, prewarm=False,
            module_cache_dir=str(tmp_path / "modules"))).start()
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile_modules(CHAIN, ["app.Main"],
                                              run="Main", cache=False)
        finally:
            server.stop()
        assert response["status"] == "ok"
        assert samples == [(False, True)]


def test_no_collection_starts_inside_a_main_thread_build(
        collector_on, tmp_path):
    """A ``gc.callbacks`` census over a clean and a warm edit build:
    every collection that starts with ``ModuleBuilder.build`` on the
    stack is counted.  The default thresholds would start about 27
    per warm build without the pause."""
    build_code = ModuleBuilder.build.__code__
    inside = []

    def on_gc(phase, info):
        if phase != "start":
            return
        frame = sys._getframe()
        while frame is not None:
            if frame.f_code is build_code:
                inside.append(info["generation"])
                return
            frame = frame.f_back

    plan = INPUTS.EditPlan(random.Random(1))
    gc.callbacks.append(on_gc)
    try:
        _build(plan.sources(), tmp_path)
        plan.edit(INPUTS.lib(3, 1))
        result = _build(plan.sources(), tmp_path)
    finally:
        gc.callbacks.remove(on_gc)
    assert set(result.recompiled) == \
        INPUTS.rebuilt_by_edit(INPUTS.lib(3, 1))
    assert inside == []
    assert not hasattr(module_build, "gc")


# ---------------------------------------------------------------------------
# Premise: a build makes no cyclic garbage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_builds_leave_no_cyclic_garbage_while_their_result_lives(
        jobs, tmp_path):
    if jobs > 1 and not fork_available():
        pytest.skip("forked builds need os.fork")
    plan = INPUTS.EditPlan(random.Random(2))
    clean = cyclic_garbage(
        lambda: _build(plan.sources(), tmp_path, jobs=jobs), keep=True)
    plan.edit(INPUTS.lib(3, 1))
    warm = cyclic_garbage(
        lambda: _build(plan.sources(), tmp_path, jobs=jobs), keep=True)
    assert (clean, warm) == (0, 0)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


def _spans(path: Path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {r["id"]: r for r in records if r["type"] == "span"}


def _ancestors(span, spans):
    while span["parent"] is not None:
        span = spans[span["parent"]]
        yield span


def test_a_traced_warm_run_spans_the_deferred_collection_in_the_run(
        collector_on, tmp_path, capsys):
    """Warm ``mayac --run --trace-out`` of the ``modules_edit``
    project, with a small generation-0 threshold so that a build the
    collector could enter would show ``gc`` spans among its own."""
    plan = INPUTS.EditPlan(random.Random(3))
    project = _write_project(tmp_path / "src", plan.sources())
    main = project / "app" / "Main.maya"
    argv = ["--module-path", str(project),
            "--module-cache", str(tmp_path / "cache"), "--run", "Main"]
    assert mayac_main(argv + [str(main)]) == 0
    edited = plan.edit(INPUTS.lib(5, 0))
    _write_project(project, plan.sources())
    out = tmp_path / "trace.jsonl"
    threshold = gc.get_threshold()
    gc.set_threshold(100, *threshold[1:])
    try:
        assert mayac_main(argv + ["--trace-out", str(out), str(main)]) == 0
    finally:
        gc.set_threshold(*threshold)
    capsys.readouterr()

    spans = _spans(out)
    root, = [s for s in spans.values() if s["parent"] is None]
    compiles = [s for s in spans.values() if s["kind"] == "compile"]
    assert len(compiles) == 22
    assert sum(not s["attrs"].get("restored") for s in compiles) == \
        len(INPUTS.rebuilt_by_edit(edited))
    build_start = min(s["start_ms"] for s in compiles)
    build_end = max(s["start_ms"] + s["dur_ms"] for s in compiles)
    collections = [s for s in spans.values() if s["kind"] == "gc"]
    for span in collections:
        assert all(a["kind"] != "compile" for a in _ancestors(span, spans))
        assert not build_start < span["start_ms"] < build_end
    deferred = min((s for s in collections if s["start_ms"] >= build_end),
                   key=lambda s: s["start_ms"])
    assert deferred["parent"] == root["id"] or \
        spans[deferred["parent"]]["name"] == "interp"

    assert mayac_main(argv + ["--profile", str(main)]) == 0
    profile = capsys.readouterr().err
    assert any(line.split()[:1] == ["gc"]
               for line in profile.splitlines())
