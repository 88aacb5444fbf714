"""Tampered cache entries never run code.

An entry's checksum header catches torn writes and disk rot, not a
deliberate rewrite: whoever rewrites the payload can recompute the
header too.  What stops such an entry is the store's codec, whose
unpickler resolves only the globals its caller allows.  Each case here
rewrites an entry so that decoding it would call something, recomputes
its checksum, and checks that the entry is turned away the way any
corrupt one is (quarantined and counted, or a located diagnostic at
the first call of a body) while the named callable never runs: each
callable would leave a sentinel behind.
"""

import pickle

from repro.core import CompileEnv
from repro.lalr import tables as lalr_tables
from repro.mayac import main as mayac_main
from repro.modules import MemorySources, ModuleBuilder, ModuleCache
from repro.modules.snapshot import SNAPSHOT_FORMAT
from repro.store import decode, encode
from tests.conftest import corrupt_entries
from tests.test_lazy_restore import (_restore_deep, _rewrite_body,
                                     _write_modules)
from tests.test_modules import CHAIN

#: What a tampered ``builtins.exec`` call appends to.
RAN = []

#: What a tampered ``builtins.print`` call would print.
MARKER = "tampered entry ran print"


class _Call:
    """Pickles as a call of ``func(*args)``, naming ``func``."""

    def __init__(self, func, *args):
        self.func, self.args = func, args

    def __reduce__(self):
        return self.func, self.args


def _calling(module: str, name: str, arg: str) -> bytes:
    """A pickle of ``{"format": module.name(arg)}``, naming the global
    exactly as given (``pickle.dumps`` would spell ``os.system`` by the
    module that defines it)."""
    return (b"}(Vformat\nc" + f"{module}\n{name}\n".encode()
            + b"(V" + arg.encode() + b"\ntRu.")


def _quarantined(directory):
    return [path.name for path in directory.glob("*.quarantine")]


def test_module_entry_naming_exec_is_corrupt(tmp_path):
    builder = ModuleBuilder(MemorySources(CHAIN), cache_dir=str(tmp_path))
    builder.build(["app.Main"])
    cache = ModuleCache(str(tmp_path))
    name = cache._name("lib.Base")
    payload = decode((tmp_path / name).read_bytes().partition(b"\n")[2])
    payload["expanded"] = _Call(
        exec, "import tests.test_cache_tamper as t; t.RAN.append(1)")
    cache._store.store(name, encode(payload))
    assert b"builtins" in (tmp_path / name).read_bytes()

    before = corrupt_entries("modules.disk")
    rebuilt = ModuleBuilder(MemorySources(CHAIN), cache_dir=str(tmp_path))
    result = rebuilt.build(["app.Main"])
    assert RAN == []
    assert result.recompiled == ["lib.Base"]
    assert corrupt_entries("modules.disk") == before + 1
    assert _quarantined(tmp_path) == [name + ".quarantine"]


def test_table_entry_naming_os_system_is_corrupt(tmp_path):
    sentinel = tmp_path / "ran"
    store = tmp_path / "store"
    try:
        with lalr_tables.disk_cache_at(str(store)):
            lalr_tables.table_cache_clear()
            CompileEnv().tables()
            (entry,) = store.glob("tables-*.pickle")
            lalr_tables._DISK.store(
                entry.name, _calling("os", "system", f"touch {sentinel}"))
            before = corrupt_entries("lalr.tables.disk")

            lalr_tables.table_cache_clear()
            assert CompileEnv().tables().action
            assert not sentinel.exists()
            assert corrupt_entries("lalr.tables.disk") == before + 1
            assert _quarantined(store) == [entry.name + ".quarantine"]
            # Regenerated in place: the next cold load hits.
            lalr_tables.table_cache_clear()
            assert CompileEnv().tables().action
            assert corrupt_entries("lalr.tables.disk") == before + 1
    finally:
        lalr_tables.table_cache_clear()


def test_deep_blob_naming_print_is_quarantined(tmp_path, capsys):
    root = _write_modules(tmp_path)
    cache = tmp_path / "cache"
    argv = ["--module-path", str(tmp_path / "src"), "--module-cache",
            str(cache), "--module-report", "--run", "Main", root]
    assert mayac_main(argv) == 0
    capsys.readouterr()

    _restore_deep(cache, "lib.Calc", lambda deep: pickle.dumps(
        (SNAPSHOT_FORMAT, _Call(print, MARKER)), protocol=4))
    before = corrupt_entries("modules.disk")
    assert mayac_main(argv) == 0
    captured = capsys.readouterr()
    assert MARKER not in captured.out + captured.err
    assert captured.out == "42\n"
    assert "recompiled lib.Calc" in captured.err
    assert corrupt_entries("modules.disk") == before + 1
    assert len(_quarantined(cache)) == 1


def test_body_blob_naming_print_stops_at_its_first_call(tmp_path, capsys):
    root = _write_modules(tmp_path)
    cache = tmp_path / "cache"
    argv = ["--module-path", str(tmp_path / "src"), "--module-cache",
            str(cache), "--module-report", "--run", "Main", root]
    assert mayac_main(argv) == 0
    capsys.readouterr()

    _rewrite_body(cache, "lib.Calc", "value",
                  pickle.dumps(_Call(print, MARKER), protocol=4))
    before = corrupt_entries("modules.disk")
    assert mayac_main(argv) == 2
    captured = capsys.readouterr()
    assert MARKER not in captured.out + captured.err
    assert "Traceback" not in captured.err
    assert "Calc.value" in captured.err
    assert "Calc.maya:2:" in captured.err  # at the method
    assert corrupt_entries("modules.disk") == before + 1
    assert len(_quarantined(cache)) == 1

    assert mayac_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "42\n"
    assert "recompiled lib.Calc" in captured.err
