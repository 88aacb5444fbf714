"""Lazy deep restore: a reused module's method bodies stay in their
snapshot blobs until the program first calls them.

Covers what the laziness buys and what it must not cost:

* **Cyclic garbage** — what ``gc.collect()`` finds (under
  ``gc.DEBUG_SAVEALL``) once a build is dropped, for a single-file
  compile and for a warm 22-module build, with the automatic collector
  off while it runs.  A program owns its parts one way, so what is
  left is the session's builtin registry, whose types refer to each
  other.  The ceilings are the measured counts plus 10%.  With the
  collector off, 20 warm builds, each followed by a run, leave no more
  than that per build (``LEAK_BUILDS`` runs more).
* **Telemetry** — restored bodies are lazy thunks in ``obs.lazy``'s
  families: created at restore, forced on first call, on both tiers.
* **Hostile entries** — a body blob that does not decode, or a body
  that no longer checks, ends in a located diagnostic naming the
  module and the method, and the module recompiles on the next build.
  A skeleton that is missing, does not decode or does not check is
  quarantined and its module recompiles in the same build, leaving no
  diagnostic; a deadline that expires mid-restore keeps the entry.
  An entry of the previous snapshot format is a plain miss.
* **Unparse** — printing a restored program forces nothing and prints
  what a clean build prints, provenance annotations included.
"""

import gc
import os
import pickle
import random
import time

import pytest

from repro import MayaCompiler
from repro.ast import nodes as n
from repro.diag import DeadlineExceededError
from repro.interp import Interpreter
from repro.mayac import main as mayac_main
from repro.modules import MemorySources, ModuleBuilder, snapshot_unit
from repro.modules.build import format_module_report
from repro.modules.cache import ModuleCache, ModuleEntry
from repro.obs import lazy as obs_lazy
from repro.obs.metrics import REGISTRY
from repro.store import decode, encode
from tests.conftest import corrupt_entries, cyclic_garbage

LAYERS, WIDTH, HELPERS = 7, 3, 12


def _lib(layer, slot):
    return f"lib.L{layer}x{slot}"


def layered_project(main_constant=1):
    """22 modules: seven layers of three, each importing the whole
    layer below, plus ``app.Main`` over the top layer.  Every library
    module has ``HELPERS`` methods nothing calls, and a ``value()``."""
    sources = {}
    for layer in range(LAYERS):
        deps = [_lib(layer - 1, s) for s in range(WIDTH)] if layer else []
        for slot in range(WIDTH):
            name = _lib(layer, slot)
            imports = "".join(f"import {dep};\n" for dep in deps)
            terms = " + ".join([str(layer + slot)]
                               + [f"{dep[4:]}.value()" for dep in deps])
            helpers = "\n".join(
                f"  static int h{k}(int n) {{ int t = 0;\n"
                f"    for (int i = 0; i < n; i++) {{\n"
                f"      if (i % {k + 2} == 0) {{ t += i; }} else {{ t -= {k}; }}\n"
                f"    }}\n    return t; }}" for k in range(HELPERS))
            sources[name] = (f"{imports}class {name[4:]} {{\n{helpers}\n"
                             f"  static int value() {{ return {terms}; }}\n}}\n")
    top = [_lib(LAYERS - 1, s) for s in range(WIDTH)]
    sources["app.Main"] = (
        "".join(f"import {dep};\n" for dep in top)
        + "class Main { static void main() { System.out.println("
        + " + ".join([str(main_constant)]
                     + [f"{dep[4:]}.value()" for dep in top])
        + "); } }\n")
    return sources


def _build(sources, cache_dir):
    return ModuleBuilder(MemorySources(sources), cache_dir=str(cache_dir)
                         ).build(["app.Main"], need_bodies=True)


def _restored(program):
    """``{Class.method: body}`` of every method declaration in the
    program's units."""
    bodies = {}
    for unit in program.units:
        for decl in unit.types:
            for member in getattr(decl, "members", ()):
                if isinstance(member, n.MethodDecl):
                    bodies[f"{decl.name.name}.{member.name.name}"] = \
                        member.body
    return bodies


def _unforced(program):
    return {where for where, body in _restored(program).items()
            if isinstance(body, n.RestoredBody) and not body.is_forced()}


# ---------------------------------------------------------------------------
# Cyclic garbage (ROADMAP item 7's measure)
# ---------------------------------------------------------------------------

#: Measured counts plus 10% (135 objects each: the builtin registry).
#: With cyclic ownership they were 665 and 12,287 (11,110 with the
#: collector on); before lazy restore the module build left 45,628.
SINGLE_FILE_CEILING = 148
WARM_MODULE_BUILD_CEILING = 148

#: Warm builds the collector-off leak guard runs.
LEAK_BUILDS = int(os.environ.get("LEAK_BUILDS", "20"))


def _edited(rng, constant):
    """The layered project with ``Main`` or one library module edited,
    as seeded by ``rng``."""
    sources = layered_project(constant)
    name = rng.choice(["app.Main", _lib(rng.randrange(LAYERS),
                                        rng.randrange(WIDTH))])
    sources[name] = sources[name].replace("return ",
                                          f"return {constant} + ", 1)
    return sources


class TestCyclicGarbage:
    def test_single_file_compile(self):
        source = ("class A { int f(int x) { int y = x + 1; return y * 2; }"
                  " static int g() { return 3; } }")
        MayaCompiler().compile(source)  # warm the process-wide caches
        found = cyclic_garbage(lambda: MayaCompiler().compile(source))
        assert 0 < found <= SINGLE_FILE_CEILING

    def test_warm_module_build_after_a_main_edit(self, tmp_path):
        _build(layered_project(1), tmp_path)
        found = cyclic_garbage(
            lambda: _build(layered_project(2), tmp_path))
        assert 0 < found <= WARM_MODULE_BUILD_CEILING

    def test_warm_builds_leak_nothing_with_the_collector_off(self, tmp_path):
        """No build collects, so with the automatic collector off the
        heap grows by what reference counting cannot free: at most the
        ceiling per build and run."""
        rng = random.Random(31)

        def build_and_run(constant):
            result = _build(_edited(rng, constant), tmp_path)
            Interpreter(result.program).run_static("Main")

        for constant in range(3):  # fill the bounded caches
            build_and_run(constant)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for constant in range(3, 3 + LEAK_BUILDS):
                build_and_run(constant)
            growth = (len(gc.get_objects()) - before) / LEAK_BUILDS
        finally:
            gc.enable()
        assert growth <= WARM_MODULE_BUILD_CEILING


# ---------------------------------------------------------------------------
# Telemetry: restored bodies are lazy thunks
# ---------------------------------------------------------------------------


def _restored_counts(profiler):
    for symbol, created, forced in profiler.by_symbol():
        if symbol == "RestoredBody":
            return created, forced
    return 0, 0


class TestLazyTelemetry:
    @pytest.mark.parametrize("backend", ["pycode", "walk"])
    def test_run_forces_exactly_the_called_methods(self, tmp_path,
                                                   backend):
        sources = layered_project()
        _build(sources, tmp_path)
        profiler = obs_lazy.activate()
        try:
            warm = _build(sources, tmp_path)
            assert warm.reused == warm.order
            every = (LAYERS * WIDTH) * (HELPERS + 1) + 1
            assert _restored_counts(profiler) == (every, 0)
            assert len(_unforced(warm.program)) == every

            interp = Interpreter(warm.program, backend=backend)
            interp.run_static("Main")
            called = {"Main.main"} | {
                f"L{layer}x{slot}.value"
                for layer in range(LAYERS) for slot in range(WIDTH)}
            assert _restored_counts(profiler) == (every, len(called))
            bodies = _restored(warm.program)
            assert set(bodies) - _unforced(warm.program) == called
            assert all(isinstance(bodies[where], n.BlockStmts)
                       for where in called)
        finally:
            obs_lazy.deactivate()
        clean = _build(sources, tmp_path / "clean")
        clean_interp = Interpreter(clean.program, backend=backend)
        clean_interp.run_static("Main")
        assert interp.output == clean_interp.output

    def test_lazy_report_explains_a_warm_module_run(self, tmp_path,
                                                    capsys):
        root = _write_modules(tmp_path)
        argv = ["--module-path", str(tmp_path / "src"), "--module-cache",
                str(tmp_path / "cache"), "--run", "Main", root]
        assert mayac_main(argv) == 0
        capsys.readouterr()
        assert mayac_main(["--lazy-report"] + argv) == 0
        err = capsys.readouterr().err
        # Calc.value and Main.main run; Calc.spare never does.
        assert "RestoredBody           created 3     forced 2     never 1" \
            in err


# ---------------------------------------------------------------------------
# Hostile entries
# ---------------------------------------------------------------------------

CALC = """class Calc {
    static int value() { return 40 + 2; }
    static int spare() { return 7; }
}
"""
MAIN = """import lib.Calc;
class Main {
    static void main() { System.out.println(Calc.value()); }
}
"""


def _write_modules(tmp_path) -> str:
    (tmp_path / "src" / "lib").mkdir(parents=True)
    (tmp_path / "src" / "app").mkdir()
    (tmp_path / "src" / "lib" / "Calc.maya").write_text(CALC)
    root = tmp_path / "src" / "app" / "Main.maya"
    root.write_text(MAIN)
    return str(root)


def _rewrite_body(cache_dir, module, method, blob):
    """Put ``blob`` in place of ``method``'s body blob in ``module``'s
    entry, written through the store so the checksum holds."""
    cache = ModuleCache(str(cache_dir))
    name = cache._name(module)
    payload = decode((cache_dir / name).read_bytes().partition(b"\n")[2])
    fmt, unit = pickle.loads(payload["deep"])
    for decl in unit.types:
        for member in decl.members:
            if isinstance(member, n.MethodDecl) \
                    and member.name.name == method:
                assert isinstance(member.body, bytes)
                member.body = blob
    payload["deep"] = pickle.dumps((fmt, unit), protocol=4)
    cache._store.store(name, encode(payload))


def _restore_deep(cache_dir, module, rewrite):
    """Re-store ``module``'s entry through :meth:`ModuleCache.store`,
    checksum and all, with its deep artifact ``rewrite(deep)``."""
    cache = ModuleCache(str(cache_dir))
    payload = decode((cache_dir / cache._name(module))
                     .read_bytes().partition(b"\n")[2])
    entry = ModuleEntry.from_payload(payload)
    entry.deep = rewrite(entry.deep)
    cache.store(entry)


def _unchecking_skeleton(deep: bytes) -> bytes:
    """The skeleton ``deep`` plus a field whose initializer names
    nothing: it decodes, then fails its check."""
    fmt, unit = pickle.loads(deep)
    field = pickle.loads(snapshot_unit(MayaCompiler().compile(
        "class Q { static int f = 1; }").units[-1]))[1].types[0].members[0]
    field.declarators[0].init = n.NameExpr(("nope",))
    unit.types[0].members.append(field)
    return pickle.dumps((fmt, unit), protocol=4)


#: Ways a skeleton can fail to restore: ``deep`` -> the stored blob.
BAD_SKELETONS = {
    "declined": lambda deep: None,
    "undecodable": lambda deep: b"\x80\x04not a snapshot",
    "unchecked": _unchecking_skeleton,
}


def _counter(name):
    return REGISTRY.get(name).value


def _unbound_name_body() -> bytes:
    """A body blob that decodes but, inside ``Calc.value()``, names a
    parameter the method does not have."""
    unit = MayaCompiler().compile(
        "class Q { static int f(int n) { return n; } }").units[-1]
    _, clone = pickle.loads(snapshot_unit(unit))
    return clone.types[0].members[0].body


class TestHostileEntries:
    @pytest.mark.parametrize("backend", ["pycode", "walk"])
    @pytest.mark.parametrize("blob", ["undecodable", "unchecked"])
    def test_bad_body_is_a_located_diagnostic_then_a_recompile(
            self, tmp_path, capsys, backend, blob):
        root = _write_modules(tmp_path)
        cache = tmp_path / "cache"
        argv = ["--module-path", str(tmp_path / "src"), "--module-cache",
                str(cache), "--module-report", "--backend", backend,
                "--run", "Main", root]
        assert mayac_main(argv) == 0
        assert capsys.readouterr().out == "42\n"

        _rewrite_body(cache, "lib.Calc", "value",
                      b"\x80\x04not a body" if blob == "undecodable"
                      else _unbound_name_body())
        before = corrupt_entries("modules.disk")
        assert mayac_main(argv) == 2
        captured = capsys.readouterr()
        assert "0 recompiled, 2 reused" in captured.err
        assert "Traceback" not in captured.err
        assert "error" in captured.err
        assert "Calc.value" in captured.err
        assert "lib.Calc" in captured.err
        if blob == "undecodable":
            assert "Calc.maya:2:" in captured.err  # at the method
        else:
            assert "unknown name n" in captured.err
        assert corrupt_entries("modules.disk") == before + 1
        assert len(list(cache.glob("*.quarantine"))) == 1

        assert mayac_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "42\n"
        assert "1 recompiled, 1 reused" in captured.err
        assert "recompiled lib.Calc" in captured.err

    @pytest.mark.parametrize("skeleton", sorted(BAD_SKELETONS))
    def test_bad_skeleton_is_quarantined_and_recompiled_silently(
            self, tmp_path, capsys, skeleton):
        root = _write_modules(tmp_path)
        cache = tmp_path / "cache"
        argv = ["--module-path", str(tmp_path / "src"), "--module-cache",
                str(cache), "--module-report", "--run", "Main", root]
        assert mayac_main(argv) == 0
        assert capsys.readouterr().out == "42\n"

        _restore_deep(cache, "lib.Calc", BAD_SKELETONS[skeleton])
        before = corrupt_entries("modules.disk")
        compiled = _counter("maya_modules_compiled_total")
        order = ["lib.Calc", "app.Main"]
        assert mayac_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "42\n"
        # Nothing on stderr but the report: no diagnostic leaks out of
        # the failed restore.
        assert captured.err \
            == format_module_report(order, ["lib.Calc"]) + "\n"
        assert corrupt_entries("modules.disk") == before + 1
        assert _counter("maya_modules_compiled_total") == compiled + 1

        restored = _counter("maya_modules_deep_restored_total")
        assert mayac_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "42\n"
        assert captured.err == format_module_report(order, []) + "\n"
        assert _counter("maya_modules_compiled_total") == compiled + 1
        assert _counter("maya_modules_deep_restored_total") \
            == restored + 2

    def test_bad_skeleton_leaves_no_trace_in_the_build(self, tmp_path):
        sources = {"lib.Calc": CALC, "app.Main": MAIN}
        _build(sources, tmp_path)
        _restore_deep(tmp_path, "lib.Calc", _unchecking_skeleton)
        builder = ModuleBuilder(MemorySources(sources),
                                cache_dir=str(tmp_path))
        warm = builder.build(["app.Main"], need_bodies=True)
        assert warm.recompiled == ["lib.Calc"]
        assert builder.env.diag.diagnostics == []
        assert len(warm.program.units) == 2

    def test_deadline_during_restore_keeps_the_entry(self, tmp_path):
        # A request's expired budget says nothing about the entry.
        sources = {"lib.Calc": CALC, "app.Main": MAIN}
        _build(sources, tmp_path)
        builder = ModuleBuilder(MemorySources(sources),
                                cache_dir=str(tmp_path))
        builder.env.diag.deadline = time.monotonic() - 1
        before = corrupt_entries("modules.disk")
        with pytest.raises(DeadlineExceededError):
            builder.build(["app.Main"], need_bodies=True)
        assert corrupt_entries("modules.disk") == before
        assert _build(sources, tmp_path).recompiled == []

    def test_previous_format_entry_is_a_plain_miss(self, tmp_path,
                                                   monkeypatch):
        # Write the cache as format 2 did: bodies inline in the unit
        # pickle, format 2 in the blob and in every key.
        from repro.modules import cache as module_cache
        from repro.modules import snapshot

        sources = layered_project()
        with monkeypatch.context() as old_format:
            old_format.setattr(snapshot, "SNAPSHOT_FORMAT", 2)
            old_format.setattr(module_cache, "SNAPSHOT_FORMAT", 2)
            old_format.setattr(snapshot, "_methods", lambda unit: ())
            _build(sources, tmp_path)
        before = corrupt_entries("modules.disk")
        misses = REGISTRY.get("maya_cache_events_total") \
            .labels("modules.disk", "miss").value
        rebuilt = _build(sources, tmp_path)
        assert rebuilt.recompiled == rebuilt.order
        assert corrupt_entries("modules.disk") == before
        assert REGISTRY.get("maya_cache_events_total") \
            .labels("modules.disk", "miss").value \
            == misses + len(rebuilt.order)
        assert not list(tmp_path.glob("*.quarantine"))
        assert _build(sources, tmp_path).recompiled == []


# ---------------------------------------------------------------------------
# Unparse of restored units
# ---------------------------------------------------------------------------


def test_source_of_a_restored_program_forces_nothing(tmp_path):
    sources = layered_project()
    clean = _build(sources, tmp_path)
    warm = _build(sources, tmp_path)
    every = len(_unforced(warm.program))
    assert every == len(_restored(warm.program))
    assert warm.program.source() == clean.program.source()
    assert len(_unforced(warm.program)) == every


FOREACH_SOURCES = {
    "lib.Loops": """use maya.util.ForEach;
class Loops {
    static void dump(String[] items) {
        items.foreach(String s) { System.out.println(s); }
    }
}
""",
    "app.Main": """import lib.Loops;
class Main {
    static void main() {
        String[] data = new String[2];
        data[0] = "alpha"; data[1] = "beta";
        Loops.dump(data);
    }
}
""",
}


def test_restored_program_keeps_provenance_annotations(tmp_path):
    def build():
        return ModuleBuilder(MemorySources(FOREACH_SOURCES),
                             cache_dir=str(tmp_path),
                             options={"provenance": True}
                             ).build(["app.Main"], need_bodies=True)

    clean = build()
    warm = build()
    assert warm.reused == warm.order
    annotated = warm.program.source(provenance=True)
    assert annotated == clean.program.source(provenance=True)
    assert "/* from AForEachName @ lib/Loops.maya:4:" in annotated
    # Only a provenance build's snapshot carries origins.
    unit = clean.program.units[0]
    assert b"Origin" in snapshot_unit(unit, provenance=True)
    assert b"Origin" not in snapshot_unit(unit)
