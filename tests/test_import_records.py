"""Recorded imports: a warm build lexes only the modules whose source
changed (repro.modules.cache).  Each module's cache entry records the
imports its source was scanned to, so discovery reads one file per
module and lexes only where the source or the scanner changed.

Covers what the recorded imports save and what they must not change:

* **Savings** — after an ``app.Main`` edit of the 22-module layered
  project, discovery scans one module and serves 21 from their
  entries, and the build counts one hit or miss per module.
* **The ladder** — a corrupt entry is quarantined, counted once,
  rescanned and recompiled; an entry of other source text, or one
  written by another scanner, is a plain miss, and is replaced.
* **Diagnostics** — a missing module, an import cycle and a
  conflicting export replay whose import comes from an entry render
  exactly what a build without a cache renders.
* **No collection** — a cached build asks the cyclic collector for
  nothing: a dropped build is freed by reference counting.
"""

import gc

import pytest

from repro import faults
from repro.core.env import MayaError
from repro.modules import MemorySources, ModuleBuilder
from repro.modules import build as module_build
from repro.modules import cache as module_cache
from repro.modules import graph as module_graph
from tests.conftest import cache_events
from tests.test_lazy_restore import layered_project
from tests.test_modules import CHAIN, _SyntaxExtension


def _builder(sources, cache_dir=None):
    return ModuleBuilder(MemorySources(sources),
                         cache_dir=str(cache_dir) if cache_dir else None)


def _events():
    return {event: cache_events("modules.disk", event)
            for event in ("hit", "miss", "corrupt")}


def _added(before):
    after = _events()
    return {event: after[event] - before[event] for event in after}


def _entries(cache_dir, name=""):
    return sorted(cache_dir.glob(f"module-{name}*.json"))


@pytest.fixture
def count_scans(monkeypatch):
    """The modules ``scan_imports`` lexes, in call order."""
    scanned = []
    real = module_graph.scan_imports

    def counting(source, filename="<module>"):
        scanned.append(filename)
        return real(source, filename)

    monkeypatch.setattr(module_graph, "scan_imports", counting)
    return scanned


# ---------------------------------------------------------------------------
# Savings
# ---------------------------------------------------------------------------


def test_an_app_main_edit_lexes_one_module(tmp_path, count_scans):
    _builder(layered_project(1), tmp_path).build(["app.Main"])
    assert len(count_scans) == 22
    assert len(_entries(tmp_path)) == 22
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        [path.name for path in _entries(tmp_path)]
    del count_scans[:]
    before = _events()
    result = _builder(layered_project(2), tmp_path).build(["app.Main"])
    assert result.recompiled == ["app.Main"]
    assert count_scans == ["app/Main.maya"]
    assert _added(before) == {"hit": 21, "miss": 1, "corrupt": 0}


def test_counts_follow_the_build_after_a_layer_0_edit(tmp_path):
    """One hit per module reused, one miss per module recompiled."""
    sources = layered_project()
    _builder(sources, tmp_path).build(["app.Main"], need_bodies=True)
    edited = dict(sources)
    edited["lib.L0x0"] = edited["lib.L0x0"].replace("return 0;",
                                                    "return 7;")
    assert edited["lib.L0x0"] != sources["lib.L0x0"]
    before = _events()
    result = _builder(edited, tmp_path).build(["app.Main"],
                                              need_bodies=True)
    # The edited module, the 18 modules of layers 1 to 6, and app.Main.
    assert len(result.recompiled) == 20
    assert _added(before) == {"hit": len(result.reused),
                              "miss": len(result.recompiled),
                              "corrupt": 0}


def test_records_equal_a_fresh_scan(tmp_path):
    sources = layered_project()
    _builder(sources, tmp_path).build(["app.Main"])
    warm = _builder(sources, tmp_path).build(["app.Main"])
    clean = _builder(sources).build(["app.Main"])
    for name, info in clean.graph.modules.items():
        recorded = warm.graph.modules[name]
        assert [(imp.parts, imp.on_demand, imp.location)
                for imp in recorded.imports] == \
            [(imp.parts, imp.on_demand, imp.location)
             for imp in info.imports]
        assert recorded.deps == info.deps


def test_no_cache_directory_lexes_every_module(count_scans):
    before = _events()
    _builder(CHAIN).build(["app.Main"])
    _builder(CHAIN).build(["app.Main"])
    assert len(count_scans) == 6
    assert _events() == before


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------


def test_corrupt_record_is_quarantined_counted_and_rescanned(
        tmp_path, count_scans):
    sources = layered_project()
    _builder(sources, tmp_path).build(["app.Main"], need_bodies=True)
    (victim,) = _entries(tmp_path, "lib.L3x1-")
    victim.write_bytes(victim.read_bytes()[:-7])
    del count_scans[:]
    before = _events()
    result = _builder(sources, tmp_path).build(["app.Main"],
                                               need_bodies=True)
    assert count_scans == ["lib/L3x1.maya"]
    assert _added(before) == {"hit": 21, "miss": 1, "corrupt": 1}
    # Keys never depend on the cache's health: only the module whose
    # entry was bad recompiles.
    assert result.recompiled == ["lib.L3x1"]
    assert result.expanded() == \
        _builder(sources).build(["app.Main"]).expanded()
    assert [path.name for path in tmp_path.glob("*.quarantine")] == \
        [victim.name + ".quarantine"]
    # The recompile wrote a good entry again.
    del count_scans[:]
    assert _builder(sources, tmp_path).build(["app.Main"]).recompiled == []
    assert count_scans == []


def test_injected_faults_fall_back_to_a_rescan(tmp_path, count_scans):
    _builder(CHAIN, tmp_path).build(["app.Main"])
    del count_scans[:]
    before = _events()
    try:
        faults.configure("cache.module.load:raise:times=1")
        result = _builder(CHAIN, tmp_path).build(["app.Main"])
    finally:
        faults.reset()
    # The root's entry is read first, and its read fails.
    assert count_scans == ["app/Main.maya"]
    assert result.recompiled == ["app.Main"]
    assert _added(before) == {"hit": 2, "miss": 1, "corrupt": 0}
    assert not list(tmp_path.glob("*.quarantine"))


def test_record_of_other_source_text_is_a_miss_and_replaced(
        tmp_path, count_scans):
    _builder(CHAIN, tmp_path).build(["app.Main"])
    (entry,) = _entries(tmp_path, "lib.Mid-")
    old = entry.read_bytes()
    edited = dict(CHAIN)
    edited["lib.Mid"] = "import lib.Base;\n" + CHAIN["lib.Mid"]
    del count_scans[:]
    before = _events()
    _builder(edited, tmp_path).build(["app.Main"])
    assert count_scans == ["lib/Mid.maya"]
    # lib.Mid's source changed, and with it app.Main's key.
    assert _added(before) == {"hit": 1, "miss": 2, "corrupt": 0}
    assert _entries(tmp_path, "lib.Mid-") == [entry]
    assert entry.read_bytes() != old
    assert not list(tmp_path.glob("*.quarantine"))
    del count_scans[:]
    _builder(edited, tmp_path).build(["app.Main"])
    assert count_scans == []


def test_another_scanner_never_serves_its_records(tmp_path, count_scans,
                                                  monkeypatch):
    """The scanner token is in every key: entries another scanner
    wrote are plain misses, recompiled and rewritten in place."""
    _builder(CHAIN, tmp_path).build(["app.Main"])
    written = {path: path.read_bytes() for path in _entries(tmp_path)}
    monkeypatch.setattr(module_cache, "_scanner_token",
                        lambda: "0123456789abcdef")
    del count_scans[:]
    before = _events()
    result = _builder(CHAIN, tmp_path).build(["app.Main"])
    assert len(count_scans) == 3
    assert result.recompiled == result.order
    assert _added(before) == {"hit": 0, "miss": 3, "corrupt": 0}
    assert sorted(tmp_path.iterdir()) == sorted(written)
    for path, data in written.items():
        assert path.read_bytes() != data
        assert b'"scanner": "0123456789abcdef"' in path.read_bytes()
    del count_scans[:]
    assert _builder(CHAIN, tmp_path).build(["app.Main"]).recompiled == []
    assert count_scans == []


# ---------------------------------------------------------------------------
# Diagnostics located from recorded imports
# ---------------------------------------------------------------------------


def _rendered(builder):
    with pytest.raises(MayaError) as exc:
        builder.build(["app.Main"])
    return builder.env.diag.render(exc.value.diagnostic)


def test_missing_module_from_a_record(tmp_path, count_scans):
    sources = {"app.Main": "\n  import lib.Gone;\nclass Main { }\n",
               "lib.Gone": "class Gone { }\n"}
    _builder(sources, tmp_path).build(["app.Main"])
    del sources["lib.Gone"]
    del count_scans[:]
    rendered = _rendered(_builder(sources, tmp_path))
    assert count_scans == []
    assert "cannot find module 'lib.Gone'" in rendered
    assert "app/Main.maya:2:3" in rendered
    assert rendered == _rendered(_builder(sources))


def test_cycle_closing_at_an_unedited_module(tmp_path, count_scans):
    sources = {"app.Main": "import lib.B;\nimport lib.A;\nclass Main { }\n",
               "lib.A": "\n  import lib.B;\nclass A { }\n",
               "lib.B": "class B { }\n"}
    _builder(sources, tmp_path).build(["app.Main"])
    sources["lib.B"] = "import lib.A;\nclass B { }\n"
    del count_scans[:]
    rendered = _rendered(_builder(sources, tmp_path))
    assert count_scans == ["lib/B.maya"]
    assert "import cycle: lib.B -> lib.A -> lib.B" in rendered
    assert "lib/A.maya:2:3" in rendered
    assert rendered == _rendered(_builder(sources))


def _conflict_builder(cache_dir=None, conflicting=True):
    builder = _builder({
        "ext.A": "use ext.Gadget;\nclass A { }\n",
        "ext.B": ("use ext.Widget;\n" if conflicting else "")
        + "class B { }\n",
        "app.Main": "import ext.A;\n\n    import ext.B;\nclass Main { }\n",
    }, cache_dir)
    builder.env.provide("ext.Gadget", _SyntaxExtension("gadget Statement"))
    builder.env.provide("ext.Widget",
                        _SyntaxExtension("gadget gadget Statement"))
    return builder


def test_conflicting_replay_from_a_record(tmp_path, count_scans):
    """ext.B starts exporting a conflicting extension; app.Main, whose
    imports come from its entry, reports it at its import."""
    _conflict_builder(tmp_path, conflicting=False).build(["app.Main"])
    del count_scans[:]
    rendered = _rendered(_conflict_builder(tmp_path))
    assert count_scans == ["ext/B.maya"]
    assert "importing module 'ext.B' breaks the grammar" in rendered
    assert "app/Main.maya:3:5" in rendered
    assert rendered == _rendered(_conflict_builder())


# ---------------------------------------------------------------------------
# No collection
# ---------------------------------------------------------------------------


def test_build_runs_no_collection(tmp_path):
    """A dropped build is freed by reference counting, so a cached
    build collects nothing itself.  With the automatic collector off,
    any collection that starts is one the build asked for."""
    builders = [_builder(CHAIN, tmp_path) for _ in range(3)]
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.disable()
    gc.callbacks.append(on_gc)
    try:
        for builder in builders:
            builder.build(["app.Main"], need_bodies=True)
    finally:
        gc.callbacks.remove(on_gc)
        if was_enabled:
            gc.enable()
    assert started == []
    assert not hasattr(module_build, "gc")
