"""Multi-file programs and incremental recompilation (repro.modules).

Covers the whole module pipeline: import scanning, graph discovery and
its located failure modes (cycle / missing module / self-import, each
snapshot-tested against ``tests/golden/``), grammar-delta export across
import edges, the incremental cache's reuse/invalidation behaviour and
its quarantine-corrupt-entries ladder, the ``mayac`` module mode, and
the daemon's multi-file compile requests.
"""

import json
import pathlib

import pytest

from repro.core.env import MayaError
from repro.diag import DiagnosticError
from repro.dispatch.mayan import MetaProgram
from repro.interp import Interpreter
from repro.mayac import main as mayac_main
from repro.modules import (CACHE_FORMAT, MemorySources, ModuleBuilder,
                           ModuleCache, ModuleEntry, ModuleGraph,
                           module_key, options_signature, scan_imports)
from repro.obs.metrics import REGISTRY
from tests.conftest import corrupt_entries

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def make_builder(sources, cache_dir=None, options=None):
    return ModuleBuilder(MemorySources(sources),
                         cache_dir=str(cache_dir) if cache_dir else None,
                         options=options)


def counter(name):
    return REGISTRY.get(name).value


# ---------------------------------------------------------------------------
# Import scanning (token-level, no parse)
# ---------------------------------------------------------------------------


class TestScanImports:
    def test_single_type_and_on_demand(self):
        imports = scan_imports("""
            import geometry.Shapes;
            import java.util.*;
            class Demo { }
        """)
        assert [(i.name, i.on_demand) for i in imports] == \
            [("geometry.Shapes", False), ("java.util", True)]

    def test_imports_inside_bodies_are_not_top_level(self):
        # The stream lexer collapses {...} into one BraceTree token, so
        # an ``import``-looking sequence inside a body cannot leak out.
        imports = scan_imports("""
            import real.Dep;
            class Demo {
                void poke() { String s = "import fake.Dep;"; }
            }
        """)
        assert [i.name for i in imports] == ["real.Dep"]

    def test_locations_point_at_the_import_keyword(self):
        imports = scan_imports("import a.B;\nimport c.D;\n", "mod.maya")
        assert imports[0].location.line == 1
        assert imports[1].location.line == 2
        assert imports[1].location.column == 1


# ---------------------------------------------------------------------------
# Graph discovery and ordering
# ---------------------------------------------------------------------------


CHAIN = {
    "lib.Base": "class Base { static int base() { return 1; } }",
    "lib.Mid": """
        import lib.Base;
        class Mid { static int mid() { return Base.base() + 10; } }
    """,
    "app.Main": """
        import lib.Mid;
        class Main {
            static void main() { System.out.println(Mid.mid()); }
        }
    """,
}

DIAMOND = {
    "lib.Base": "class Base { static int base() { return 1; } }",
    "lib.Left": """
        import lib.Base;
        class Left { static int left() { return Base.base() + 10; } }
    """,
    "lib.Right": """
        import lib.Base;
        class Right { static int right() { return Base.base() + 100; } }
    """,
    "app.Main": """
        import lib.Left;
        import lib.Right;
        class Main {
            static void main() {
                System.out.println(Left.left() + Right.right());
            }
        }
    """,
}


class TestGraphDiscovery:
    def test_deps_in_import_order(self):
        graph = ModuleGraph.discover(["app.Main"], MemorySources(DIAMOND))
        assert graph.modules["app.Main"].deps == ["lib.Left", "lib.Right"]
        assert graph.modules["lib.Left"].deps == ["lib.Base"]

    def test_topological_order_is_deps_first(self):
        graph = ModuleGraph.discover(["app.Main"], MemorySources(DIAMOND))
        order = graph.order()
        assert order == ["lib.Base", "lib.Left", "lib.Right", "app.Main"]
        assert graph.order() is order  # memoized

    def test_dependents_are_transitive_importers(self):
        graph = ModuleGraph.discover(["app.Main"], MemorySources(DIAMOND))
        assert graph.dependents_of("lib.Base") == \
            ["app.Main", "lib.Left", "lib.Right"]
        assert graph.dependents_of("lib.Left") == ["app.Main"]
        assert graph.dependents_of("app.Main") == []

    def test_builtin_imports_are_not_edges(self):
        env_registry = ModuleBuilder(MemorySources({})).env.registry
        graph = ModuleGraph.discover(["app.Main"], MemorySources({
            "app.Main": """
                import java.util.Vector;
                import java.util.*;
                class Main { }
            """,
        }), registry=env_registry)
        assert graph.modules["app.Main"].deps == []

    def test_on_demand_imports_are_never_module_edges(self):
        sources = dict(CHAIN)
        sources["app.Main"] = """
            import lib.*;
            class Main { }
        """
        graph = ModuleGraph.discover(["app.Main"], MemorySources(sources))
        assert graph.modules["app.Main"].deps == []

    def test_missing_module_is_a_located_error(self):
        with pytest.raises(MayaError, match="cannot find module "
                                            "'lib.Nowhere'") as exc:
            ModuleGraph.discover(["app.Main"], MemorySources({
                "app.Main": "import lib.Nowhere;\nclass Main { }\n",
            }))
        assert exc.value.location.line == 1

    def test_self_import_rejected(self):
        with pytest.raises(MayaError, match="imports itself"):
            ModuleGraph.discover(["app.Main"], MemorySources({
                "app.Main": "import app.Main;\nclass Main { }\n",
            }))

    def test_import_cycle_names_the_whole_cycle(self):
        with pytest.raises(MayaError, match="import cycle: app.Main -> "
                                            "lib.Tools -> app.Main"):
            ModuleGraph.discover(["app.Main"], MemorySources({
                "app.Main": "import lib.Tools;\nclass Main { }\n",
                "lib.Tools": "import app.Main;\nclass Tools { }\n",
            }))


# ---------------------------------------------------------------------------
# Clean and incremental builds
# ---------------------------------------------------------------------------


class TestIncrementalBuild:
    def test_clean_build_compiles_everything_and_runs(self, tmp_path):
        result = make_builder(CHAIN, tmp_path).build(["app.Main"],
                                                     need_bodies=True)
        assert result.recompiled == result.order
        assert result.reused == []
        interp = Interpreter(result.program)
        interp.run_static("Main")
        assert interp.output == ["11"]

    def test_warm_rebuild_reuses_everything_byte_identically(self, tmp_path):
        first = make_builder(CHAIN, tmp_path).build(["app.Main"])
        second = make_builder(CHAIN, tmp_path).build(["app.Main"])
        assert second.recompiled == []
        assert second.reused == second.order
        assert second.expanded() == first.expanded()

    def test_warm_rebuild_with_bodies_still_runs(self, tmp_path):
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        result = make_builder(CHAIN, tmp_path).build(["app.Main"],
                                                     need_bodies=True)
        assert result.recompiled == []
        interp = Interpreter(result.program)
        interp.run_static("Main")
        assert interp.output == ["11"]

    def test_root_edit_recompiles_only_the_root(self, tmp_path):
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        edited = dict(CHAIN)
        edited["app.Main"] = CHAIN["app.Main"].replace(
            "Mid.mid()", "Mid.mid() + 1000")
        result = make_builder(edited, tmp_path).build(["app.Main"])
        assert result.recompiled == ["app.Main"]
        assert result.reused == ["lib.Base", "lib.Mid"]

    def test_base_edit_invalidates_the_whole_downstream_cone(self, tmp_path):
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        edited = dict(CHAIN)
        edited["lib.Base"] = edited["lib.Base"].replace("return 1",
                                                        "return 2")
        result = make_builder(edited, tmp_path).build(["app.Main"],
                                                      need_bodies=True)
        assert result.recompiled == ["lib.Base", "lib.Mid", "app.Main"]
        interp = Interpreter(result.program)
        interp.run_static("Main")
        assert interp.output == ["12"]

    def test_sibling_branches_are_not_invalidated(self, tmp_path):
        make_builder(DIAMOND, tmp_path).build(["app.Main"])
        edited = dict(DIAMOND)
        edited["lib.Left"] = edited["lib.Left"].replace("+ 10", "+ 20")
        result = make_builder(edited, tmp_path).build(["app.Main"])
        assert result.recompiled == ["lib.Left", "app.Main"]
        assert result.reused == ["lib.Base", "lib.Right"]

    def test_incremental_equals_clean_after_edit(self, tmp_path):
        make_builder(DIAMOND, tmp_path).build(["app.Main"])
        edited = dict(DIAMOND)
        edited["lib.Right"] = edited["lib.Right"].replace("+ 100", "+ 200")
        incremental = make_builder(edited, tmp_path).build(["app.Main"])
        clean = make_builder(edited).build(["app.Main"])
        assert incremental.expanded() == clean.expanded()

    def test_option_change_invalidates_the_cache(self, tmp_path):
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        result = make_builder(CHAIN, tmp_path,
                              options={"provenance": True}) \
            .build(["app.Main"])
        assert result.recompiled == result.order

    def test_build_counters_track_outcomes(self, tmp_path):
        compiled = counter("maya_modules_compiled_total")
        reused = counter("maya_modules_reused_total")
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        assert counter("maya_modules_compiled_total") == compiled + 3
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        assert counter("maya_modules_reused_total") == reused + 3


# ---------------------------------------------------------------------------
# Grammar deltas across import edges
# ---------------------------------------------------------------------------


FOREACH_LIB = {
    "lib.Loops": """
        use maya.util.ForEach;
        class Loops {
            static void dump(String[] items) {
                items.foreach(String s) { System.out.println(s); }
            }
        }
    """,
    "app.Main": """
        import lib.Loops;
        class Main {
            static void main() {
                String[] data = new String[2];
                data[0] = "alpha"; data[1] = "beta";
                data.foreach(String s) { Loops.dump(data); }
            }
        }
    """,
}


class TestExportsAcrossEdges:
    def test_imported_mayan_reaches_the_importer(self, tmp_path):
        # app.Main never says ``use`` — the foreach syntax arrives over
        # the import edge via lib.Loops's export list.
        result = make_builder(FOREACH_LIB, tmp_path) \
            .build(["app.Main"], need_bodies=True)
        interp = Interpreter(result.program)
        interp.run_static("Main")
        assert interp.output == ["alpha", "beta"] * 2

    def test_exports_accumulate_transitively(self, tmp_path):
        sources = dict(FOREACH_LIB)
        sources["app.Main"] = "import lib.Loops;\nclass Main { }\n"
        sources["top.App"] = "import app.Main;\nclass App { }\n"
        result = make_builder(sources, tmp_path) \
            .build(["top.App"])
        assert result.builds["lib.Loops"].exports == ["maya.util.ForEach"]
        assert result.builds["app.Main"].exports == ["maya.util.ForEach"]
        assert result.builds["top.App"].exports == ["maya.util.ForEach"]

    def test_extension_does_not_leak_to_non_importers(self, tmp_path):
        # A sibling module that does NOT import lib.Loops must not see
        # the foreach production: per-module grammar copies isolate it.
        sources = dict(FOREACH_LIB)
        sources["app.Main"] = """
            class Main {
                static void main() {
                    String[] data = new String[1];
                    data.foreach(String s) { System.out.println(s); }
                }
            }
        """
        with pytest.raises(DiagnosticError):
            make_builder(sources, tmp_path) \
                .build(["lib.Loops", "app.Main"])

    def test_reused_module_still_exports_its_delta(self, tmp_path):
        # lib.Loops replays from the cache; its export list must still
        # reach a recompiling importer.
        make_builder(FOREACH_LIB, tmp_path).build(["app.Main"])
        edited = dict(FOREACH_LIB)
        edited["app.Main"] = edited["app.Main"].replace("alpha", "gamma")
        result = make_builder(edited, tmp_path) \
            .build(["app.Main"], need_bodies=True)
        assert result.recompiled == ["app.Main"]
        interp = Interpreter(result.program)
        interp.run_static("Main")
        assert interp.output == ["gamma", "beta"] * 2


# ---------------------------------------------------------------------------
# The cache itself: keys, entries, and the quarantine ladder
# ---------------------------------------------------------------------------


class TestModuleCache:
    def test_key_covers_the_transitive_cone(self):
        sig = options_signature({})
        base = module_key("lib.Base", "class Base { }", sig, [])
        edited = module_key("lib.Base", "class Base { int x; }", sig, [])
        assert base != edited
        downstream = module_key("app.Main", "import lib.Base;", sig,
                                [("lib.Base", base)])
        downstream2 = module_key("app.Main", "import lib.Base;", sig,
                                 [("lib.Base", edited)])
        assert downstream != downstream2  # dep edit flows downstream

    def test_options_signature_ignores_irrelevant_keys(self):
        assert options_signature({"run": "Main", "expand": True}) == \
            options_signature({})
        assert options_signature({"multijava": True}) != \
            options_signature({})

    def test_hit_needs_the_same_configuration(self, tmp_path):
        # Modules built with the macro library must not be reused by a
        # build without it: the incremental build fails as a clean one.
        make_builder(FOREACH_LIB, tmp_path).build(["app.Main"])
        no_macros = {"no_macros": True}
        with pytest.raises(DiagnosticError) as clean:
            make_builder(FOREACH_LIB, options=no_macros).build(["app.Main"])
        with pytest.raises(DiagnosticError) as incremental:
            make_builder(FOREACH_LIB, tmp_path, options=no_macros) \
                .build(["app.Main"])
        assert "unknown metaprogram 'maya.util.ForEach'" \
            in str(clean.value)
        assert str(incremental.value) == str(clean.value)

    def test_entry_roundtrip(self):
        entry = ModuleEntry("lib.Base", "k" * 64, "class Base { }",
                            [], ["maya.util.ForEach"])
        back = ModuleEntry.from_payload(entry.payload())
        assert back.payload() == entry.payload()
        assert back.payload()["format"] == CACHE_FORMAT

    def test_disabled_cache_is_falsy_and_inert(self):
        cache = ModuleCache(None)
        assert not cache
        assert cache.load("lib.Base") is None
        cache.store(ModuleEntry("lib.Base", "k", "", [], []))

    def test_snapshot_format_bump_rekeys_instead_of_falling_back(
            self, tmp_path, monkeypatch):
        # A cache written by code with another snapshot format holds
        # deep blobs this code refuses to load.  Its keys must not
        # match, or each such entry would restore as corrupt: a plain
        # miss, not a quarantine.
        from repro.modules import cache as module_cache
        from repro.modules import snapshot
        with monkeypatch.context() as old_format:
            old_format.setattr(snapshot, "SNAPSHOT_FORMAT", 1)
            old_format.setattr(module_cache, "SNAPSHOT_FORMAT", 1)
            make_builder(CHAIN, tmp_path).build(["app.Main"],
                                                need_bodies=True)
        rebuilt = make_builder(CHAIN, tmp_path).build(["app.Main"],
                                                      need_bodies=True)
        assert rebuilt.recompiled == rebuilt.order
        restored = counter("maya_modules_deep_restored_total")
        compiled = counter("maya_modules_compiled_total")
        warm = make_builder(CHAIN, tmp_path).build(["app.Main"],
                                                   need_bodies=True)
        assert warm.recompiled == []
        assert counter("maya_modules_compiled_total") == compiled
        assert counter("maya_modules_deep_restored_total") == restored + 3

    def test_stale_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        before = corrupt_entries("modules.disk")
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        edited = dict(CHAIN)
        edited["lib.Base"] = edited["lib.Base"] + "\n// edited\n"
        make_builder(edited, tmp_path).build(["app.Main"])
        assert corrupt_entries("modules.disk") == before
        assert not list(tmp_path.glob("*.quarantine"))

    def test_corrupt_entry_is_quarantined_counted_and_rebuilt(
            self, tmp_path):
        before = corrupt_entries("modules.disk")
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        victim = next(p for p in tmp_path.iterdir()
                      if "lib.Base" in p.name)
        victim.write_text("{ not json", encoding="utf-8")
        result = make_builder(CHAIN, tmp_path).build(["app.Main"])
        # lib.Base misses (corrupt) which invalidates nothing else —
        # downstream keys never depended on the cache's health.
        assert result.recompiled == ["lib.Base"]
        assert corrupt_entries("modules.disk") == before + 1
        assert len(list(tmp_path.glob("*.quarantine"))) == 1
        # The regenerated entry is good again.
        third = make_builder(CHAIN, tmp_path).build(["app.Main"])
        assert third.recompiled == []

    @staticmethod
    def _load_written(tmp_path, **fields):
        """Write a lib.Base entry with ``fields`` over a well-formed
        payload, through the store so the checksum holds, and load it
        for reuse under its own key."""
        cache = ModuleCache(str(tmp_path))
        key = "k" * 64
        payload = ModuleEntry("lib.Base", key, "", [], []).payload()
        payload.update(fields)
        cache._store.store(cache._name("lib.Base"),
                           json.dumps(payload).encode("utf-8"))
        return cache.reuse("lib.Base", key, cache.load("lib.Base"))

    def test_wrong_shape_payload_is_corrupt(self, tmp_path):
        before = corrupt_entries("modules.disk")
        assert self._load_written(tmp_path, expanded=42) is None
        assert corrupt_entries("modules.disk") == before + 1


    @pytest.mark.parametrize("module, field, value", [
        ("lib.Base", "exports", "a.B"),
        ("lib.Base", "name", 7),
        ("lib.Mid", "imports", [[["lib", "Base"], "no", 2, 9]]),
    ], ids=["exports string", "name number", "import record"])
    def test_misshapen_entry_is_quarantined_and_recompiled(
            self, tmp_path, module, field, value):
        """A hand-written entry under its real key with a valid
        checksum, one field of the wrong shape: never replayed."""
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        cache = ModuleCache(str(tmp_path))
        path = tmp_path / cache._name(module)
        payload = json.loads(path.read_bytes().partition(b"\n")[2])
        payload[field] = value
        cache._store.store(path.name, json.dumps(payload).encode("utf-8"))
        before = corrupt_entries("modules.disk")
        result = make_builder(CHAIN, tmp_path).build(["app.Main"],
                                                     need_bodies=True)
        assert result.recompiled == [module]
        assert corrupt_entries("modules.disk") == before + 1
        assert [p.name for p in tmp_path.glob("*.quarantine")] == \
            [path.name + ".quarantine"]
        assert result.expanded() == \
            make_builder(CHAIN).build(["app.Main"]).expanded()
        assert make_builder(CHAIN, tmp_path).build(["app.Main"]) \
            .recompiled == []

    @pytest.mark.parametrize("iface", [
        [{"name": "lib.Base", "is_interface": False}],
        [["lib.Base", None, [], False, [], [["property", "x", [], "int",
                                              []]]]],
        [["lib.Base", None, [], False, []]],
    ], ids=["format-3 record", "unknown member kind", "record arity"])
    def test_wrong_shape_skeleton_is_corrupt(self, tmp_path, iface):
        before = corrupt_entries("modules.disk")
        assert self._load_written(tmp_path, iface=iface) is None
        assert corrupt_entries("modules.disk") == before + 1

    def test_format_3_entry_is_a_plain_miss(self, tmp_path):
        """Entries an older build wrote, with nested-dict skeletons, are
        stale: every module recompiles and its entry is overwritten,
        and nothing is quarantined.  The key is left current, so the
        format check alone turns them away."""
        before = corrupt_entries("modules.disk")
        make_builder(CHAIN, tmp_path).build(["app.Main"])
        cache = ModuleCache(str(tmp_path))
        for path in tmp_path.glob("module-*.json"):
            payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
            payload["format"] = 3
            payload["iface"] = [{
                "name": name, "is_interface": is_interface,
                "modifiers": modifiers, "superclass": superclass,
                "interfaces": interfaces, "fields": [], "constructors": [],
                "methods": [{"name": member, "params": [],
                             "return": [type_.split("."), 0],
                             "modifiers": member_modifiers}
                            for _, member, _, type_, member_modifiers
                            in members]}
                for name, superclass, interfaces, is_interface, modifiers,
                members in payload["iface"]]
            cache._store.store(path.name, json.dumps(
                payload, sort_keys=True).encode("utf-8"))
        rebuilt = make_builder(CHAIN, tmp_path).build(["app.Main"])
        assert rebuilt.recompiled == rebuilt.order
        assert corrupt_entries("modules.disk") == before
        assert not list(tmp_path.glob("*.quarantine"))
        again = make_builder(CHAIN, tmp_path).build(["app.Main"])
        assert again.recompiled == []
        assert again.expanded() == rebuilt.expanded()

# ---------------------------------------------------------------------------
# Golden caret diagnostics for the module-graph failure modes
# ---------------------------------------------------------------------------


class _SyntaxExtension(MetaProgram):
    """A metaprogram adding one Statement production — two of these
    with overlapping patterns make the combined grammar non-LALR."""

    def __init__(self, pattern):
        super().__init__()
        self.pattern = pattern

    def run(self, env):
        env.add_production("Statement", self.pattern)


def _conflict_builder():
    builder = make_builder({
        "ext.A": "use ext.Gadget;\nclass A { }\n",
        "ext.B": "use ext.Widget;\nclass B { }\n",
        "app.Main": "import ext.A;\nimport ext.B;\nclass Main { }\n",
    })
    builder.env.provide("ext.Gadget", _SyntaxExtension("gadget Statement"))
    builder.env.provide("ext.Widget",
                        _SyntaxExtension("gadget gadget Statement"))
    return builder


def _cycle_builder():
    return make_builder({
        "app.Main": "import lib.Tools;\nclass Main { }\n",
        "lib.Tools": "import lib.Extra;\nclass Tools { }\n",
        "lib.Extra": "import app.Main;\nclass Extra { }\n",
    })


def _missing_builder():
    return make_builder({
        "app.Main": "import lib.Nowhere;\nclass Main { }\n",
    })


DIAGNOSTIC_CASES = {
    "module_cycle": _cycle_builder,
    "module_missing": _missing_builder,
    "module_conflict": _conflict_builder,
}


class TestGoldenModuleDiagnostics:
    """Each failure mode renders a caret diagnostic at the ``import``
    site; the rendering is snapshot-tested byte-for-byte."""

    @pytest.mark.parametrize("name", sorted(DIAGNOSTIC_CASES))
    def test_matches_golden(self, name, request):
        builder = DIAGNOSTIC_CASES[name]()
        with pytest.raises(MayaError) as exc:
            builder.build(["app.Main"])
        rendered = builder.env.diag.render(exc.value.diagnostic) + "\n"
        golden = GOLDEN_DIR / f"{name}.txt"
        if request.config.getoption("--update-goldens"):
            golden.write_text(rendered, encoding="utf-8")
            pytest.skip(f"updated {golden.name}")
        assert golden.exists(), \
            f"golden {golden.name} missing; run with --update-goldens"
        assert rendered == golden.read_text(encoding="utf-8")

    def test_conflict_blames_the_second_import(self):
        builder = _conflict_builder()
        with pytest.raises(MayaError) as exc:
            builder.build(["app.Main"])
        assert "importing module 'ext.B' breaks the grammar" \
            in str(exc.value)
        assert exc.value.location.line == 2  # the ``import ext.B;`` line

    def test_cycle_blames_the_closing_edge(self):
        with pytest.raises(MayaError) as exc:
            _cycle_builder().build(["app.Main"])
        span = exc.value.diagnostic.span
        assert span.filename == "lib/Extra.maya"


# ---------------------------------------------------------------------------
# mayac module mode
# ---------------------------------------------------------------------------


def _write_project(root, sources):
    for name, text in sources.items():
        path = root.joinpath(*name.split(".")).with_suffix(".maya")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


class TestMayacModuleMode:
    def test_build_run_and_report(self, tmp_path, capsys):
        project = _write_project(tmp_path / "src", CHAIN)
        cache = tmp_path / "cache"
        argv = ["--module-path", str(project), "--module-cache",
                str(cache), "--module-report", "--run", "Main",
                str(project / "app" / "Main.maya")]
        assert mayac_main(argv) == 0
        captured = capsys.readouterr()
        assert "11" in captured.out
        assert "3 total, 3 recompiled, 0 reused" in captured.err

        # Second invocation: everything replays from the cache.
        assert mayac_main(argv) == 0
        captured = capsys.readouterr()
        assert "11" in captured.out
        assert "3 total, 0 recompiled, 3 reused" in captured.err

    def test_expand_prints_modules_in_topo_order(self, tmp_path, capsys):
        project = _write_project(tmp_path / "src", CHAIN)
        assert mayac_main(["--module-path", str(project), "--expand",
                           str(project / "app" / "Main.maya")]) == 0
        out = capsys.readouterr().out
        assert out.index("// module lib.Base") \
            < out.index("// module lib.Mid") \
            < out.index("// module app.Main")

    def test_multiple_files_enable_module_mode(self, tmp_path, capsys):
        project = _write_project(tmp_path / "src", {
            "Util": "class Util { static int five() { return 5; } }",
            "Main": """
                import Util;
                class Main {
                    static void main() {
                        System.out.println(Util.five() + 37);
                    }
                }
            """,
        })
        assert mayac_main([str(project / "Main.maya"),
                           str(project / "Util.maya"),
                           "--module-path", str(project),
                           "--run", "Main"]) == 0
        assert "42" in capsys.readouterr().out

    def test_module_errors_render_as_diagnostics(self, tmp_path, capsys):
        project = _write_project(tmp_path / "src", {
            "app.Main": "import lib.Nowhere;\nclass Main { }\n",
        })
        assert mayac_main(["--module-path", str(project),
                           str(project / "app" / "Main.maya")]) == 1
        err = capsys.readouterr().err
        assert "cannot find module 'lib.Nowhere'" in err
        assert "^" in err  # caret rendering, not a traceback


# ---------------------------------------------------------------------------
# Daemon multi-file requests
# ---------------------------------------------------------------------------


class TestDaemonModules:
    def _daemon(self, tmp_path):
        from repro.server import DaemonConfig, MayaDaemon

        return MayaDaemon(DaemonConfig(
            workers=2, queue_size=8, prewarm=False,
            module_cache_dir=str(tmp_path / "modules"))).start()

    def test_compile_run_and_reuse(self, tmp_path):
        from repro.server import MayaClient

        server = self._daemon(tmp_path)
        try:
            client = MayaClient(server.address, retries=0)
            first = client.compile_modules(CHAIN, ["app.Main"],
                                           expand=True, run="Main",
                                           cache=False)
            assert first["status"] == "ok"
            assert first["run"]["output"] == ["11"]
            assert first["modules"]["recompiled"] == \
                ["lib.Base", "lib.Mid", "app.Main"]
            second = client.compile_modules(CHAIN, ["app.Main"],
                                            expand=True, cache=False)
            assert second["status"] == "ok"
            assert second["modules"]["recompiled"] == []
            assert second["modules"]["reused"] == \
                ["lib.Base", "lib.Mid", "app.Main"]
            assert second["expanded"] == first["expanded"]
        finally:
            server.stop()

    def test_module_error_is_a_compile_error_response(self, tmp_path):
        from repro.server import MayaClient

        server = self._daemon(tmp_path)
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile_modules(
                {"app.Main": "import lib.Nowhere;\nclass Main { }\n"},
                ["app.Main"], cache=False)
            assert response["status"] == "compile-error"
            rendered = "\n".join(d.get("rendered") or ""
                                 for d in response["diagnostics"])
            assert "cannot find module 'lib.Nowhere'" in rendered
        finally:
            server.stop()

    def test_malformed_module_requests_are_bad_requests(self, tmp_path):
        from repro.server import MayaClient

        server = self._daemon(tmp_path)
        try:
            client = MayaClient(server.address, retries=0)
            no_roots = client.request("compile", sources=dict(CHAIN),
                                      roots=[], options={})
            assert no_roots["status"] == "bad-request"
            bad_sources = client.request("compile", sources={},
                                         roots=["app.Main"], options={})
            assert bad_sources["status"] == "bad-request"
        finally:
            server.stop()
