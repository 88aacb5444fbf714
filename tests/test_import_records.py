"""Import records: a warm build lexes only the modules whose source
changed (repro.modules.cache, ``<cache_dir>/imports/``).

Covers what the records save and what they must not change:

* **Savings** — after an ``app.Main`` edit of the 22-module layered
  project, discovery scans one module and serves 21 from records.
* **The ladder** — a corrupt record is quarantined, counted under
  ``modules.imports`` and rescanned, with the module entries' own
  counters untouched; a record of other source text, or one written
  by another scanner, is a plain miss and is replaced.
* **Diagnostics** — a missing module, an import cycle and a
  conflicting export replay whose import comes from a record render
  exactly what a build without a cache renders.
* **Pruning** — storing a record deletes the module's records that
  another scanner wrote, and counts each deletion.
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
from tests.conftest import cache_events, corrupt_entries
from tests.test_lazy_restore import layered_project
from tests.test_modules import CHAIN, _SyntaxExtension


def _builder(sources, cache_dir=None):
    return ModuleBuilder(MemorySources(sources),
                         cache_dir=str(cache_dir) if cache_dir else None)


def _events(cache):
    return {event: cache_events(cache, event)
            for event in ("hit", "miss", "corrupt")}


def _records(cache_dir, name=""):
    return sorted((cache_dir / "imports").glob(f"imports-{name}*.json"))


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
    assert len(_records(tmp_path)) == 22
    del count_scans[:]
    before = _events("modules.imports")
    result = _builder(layered_project(2), tmp_path).build(["app.Main"])
    assert result.recompiled == ["app.Main"]
    assert count_scans == ["app/Main.maya"]
    after = _events("modules.imports")
    assert after["hit"] == before["hit"] + 21
    assert after["miss"] == before["miss"] + 1
    assert after["corrupt"] == before["corrupt"]


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
    before = _events("modules.imports")
    _builder(CHAIN).build(["app.Main"])
    _builder(CHAIN).build(["app.Main"])
    assert len(count_scans) == 6
    assert _events("modules.imports") == before


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------


def test_corrupt_record_is_quarantined_counted_and_rescanned(
        tmp_path, count_scans):
    sources = layered_project()
    _builder(sources, tmp_path).build(["app.Main"], need_bodies=True)
    (victim,) = _records(tmp_path, "lib.L3x1-")
    victim.write_bytes(victim.read_bytes()[:-7])
    del count_scans[:]
    imports, disk = _events("modules.imports"), _events("modules.disk")
    result = _builder(sources, tmp_path).build(["app.Main"],
                                               need_bodies=True)
    assert count_scans == ["lib/L3x1.maya"]
    after = _events("modules.imports")
    assert after["corrupt"] == imports["corrupt"] + 1
    assert after["hit"] == imports["hit"] + 21
    after_disk = _events("modules.disk")
    assert after_disk["hit"] == disk["hit"] + 22
    assert (after_disk["miss"], after_disk["corrupt"]) == \
        (disk["miss"], disk["corrupt"])
    assert result.recompiled == []
    assert result.expanded() == \
        _builder(sources).build(["app.Main"]).expanded()
    assert len(list((tmp_path / "imports").glob("*.quarantine"))) == 1
    assert not list(tmp_path.glob("*.quarantine"))
    # The rescan wrote a good record again.
    del count_scans[:]
    _builder(sources, tmp_path).build(["app.Main"])
    assert count_scans == []


def test_injected_faults_fall_back_to_a_rescan(tmp_path, count_scans):
    _builder(CHAIN, tmp_path).build(["app.Main"])
    del count_scans[:]
    before = _events("modules.imports")
    try:
        faults.configure("cache.module.imports:corrupt:times=1,"
                         "cache.module.imports:raise:times=1")
        result = _builder(CHAIN, tmp_path).build(["app.Main"])
    finally:
        faults.reset()
    assert result.recompiled == []
    assert len(count_scans) == 2
    after = _events("modules.imports")
    assert after["corrupt"] == before["corrupt"] + 1
    assert after["miss"] == before["miss"] + 2
    assert after["hit"] == before["hit"] + 1


def test_record_of_other_source_text_is_a_miss_and_replaced(
        tmp_path, count_scans):
    _builder(CHAIN, tmp_path).build(["app.Main"])
    (record,) = _records(tmp_path, "lib.Mid-")
    old = record.read_bytes()
    edited = dict(CHAIN)
    edited["lib.Mid"] = "import lib.Base;\n" + CHAIN["lib.Mid"]
    del count_scans[:]
    before = _events("modules.imports")
    _builder(edited, tmp_path).build(["app.Main"])
    assert count_scans == ["lib/Mid.maya"]
    after = _events("modules.imports")
    assert (after["hit"], after["miss"], after["corrupt"]) == \
        (before["hit"] + 2, before["miss"] + 1, before["corrupt"])
    assert _records(tmp_path, "lib.Mid-") == [record]
    assert record.read_bytes() != old
    assert not list((tmp_path / "imports").glob("*.quarantine"))
    del count_scans[:]
    _builder(edited, tmp_path).build(["app.Main"])
    assert count_scans == []


def test_another_scanner_never_serves_its_records(tmp_path, count_scans,
                                                  monkeypatch):
    _builder(CHAIN, tmp_path).build(["app.Main"])
    monkeypatch.setattr(module_cache, "_scanner_token",
                        lambda: "0123456789abcdef")
    del count_scans[:]
    before = corrupt_entries("modules.imports")
    pruned = cache_events("modules.imports", "pruned")
    _builder(CHAIN, tmp_path).build(["app.Main"])
    assert len(count_scans) == 3
    assert corrupt_entries("modules.imports") == before
    # The other scanner's records are deleted as the new ones land.
    assert len(_records(tmp_path)) == 3
    assert all("0123456789abcdef" in path.name
               for path in _records(tmp_path))
    assert cache_events("modules.imports", "pruned") == pruned + 3


# ---------------------------------------------------------------------------
# Diagnostics located from records
# ---------------------------------------------------------------------------


def _rendered(builder):
    with pytest.raises(MayaError) as exc:
        builder.build(["app.Main"])
    return builder.env.diag.render(exc.value.diagnostic)


def test_missing_module_from_a_record(tmp_path):
    sources = {"app.Main": "\n  import lib.Gone;\nclass Main { }\n",
               "lib.Gone": "class Gone { }\n"}
    _builder(sources, tmp_path).build(["app.Main"])
    del sources["lib.Gone"]
    hits = cache_events("modules.imports", "hit")
    rendered = _rendered(_builder(sources, tmp_path))
    assert cache_events("modules.imports", "hit") == hits + 1
    assert "cannot find module 'lib.Gone'" in rendered
    assert "app/Main.maya:2:3" in rendered
    assert rendered == _rendered(_builder(sources))


def test_cycle_closing_at_an_unedited_module(tmp_path):
    sources = {"app.Main": "import lib.B;\nimport lib.A;\nclass Main { }\n",
               "lib.A": "\n  import lib.B;\nclass A { }\n",
               "lib.B": "class B { }\n"}
    _builder(sources, tmp_path).build(["app.Main"])
    sources["lib.B"] = "import lib.A;\nclass B { }\n"
    hits = cache_events("modules.imports", "hit")
    rendered = _rendered(_builder(sources, tmp_path))
    assert cache_events("modules.imports", "hit") == hits + 2
    assert "import cycle: lib.B -> lib.A -> lib.B" in rendered
    assert "lib/A.maya:2:3" in rendered
    assert rendered == _rendered(_builder(sources))


def _conflict_builder(cache_dir=None):
    builder = _builder({
        "ext.A": "use ext.Gadget;\nclass A { }\n",
        "ext.B": "use ext.Widget;\nclass B { }\n",
        "app.Main": "import ext.A;\n\n    import ext.B;\nclass Main { }\n",
    }, cache_dir)
    builder.env.provide("ext.Gadget", _SyntaxExtension("gadget Statement"))
    builder.env.provide("ext.Widget",
                        _SyntaxExtension("gadget gadget Statement"))
    return builder


def test_conflicting_replay_from_a_record(tmp_path):
    first = _rendered(_conflict_builder(tmp_path))
    hits = cache_events("modules.imports", "hit")
    rendered = _rendered(_conflict_builder(tmp_path))
    assert cache_events("modules.imports", "hit") == hits + 3
    assert "importing module 'ext.B' breaks the grammar" in rendered
    assert "app/Main.maya:3:5" in rendered
    assert rendered == first == _rendered(_conflict_builder())


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
