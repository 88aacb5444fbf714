"""The on-disk store under the LALR table and module caches.

One suite over both stores, parametrized by what a load finds on disk:

* ``absent``, ``raise`` (an injected I/O fault at the cache's fault
  site) and ``stale`` (a well-formed entry for another format or key)
  are plain misses: nothing is quarantined or counted as corrupt;
* ``truncated``, ``garbage`` and ``bitflip`` are corrupt: the entry is
  quarantined to ``*.quarantine`` and counted under
  ``maya_cache_events_total{event="corrupt"}``.

Either way the build regenerates, its output is byte-equal to a build
without any cache, and the next build hits the rewritten entry.
"""

import random
import sys
import threading

import pytest

from repro import faults
from repro.core import CompileEnv, MayaCompiler
from repro.lalr import tables
from repro.modules import MemorySources, ModuleBuilder
from repro.store import Store
from tests.conftest import cache_events, corrupt_entries

#: Plain Java, so the base grammar's tables are the only ones loaded.
PROGRAM = """
class Sum {
    static int total(int[] xs) {
        int s = 0;
        for (int i = 0; i < xs.length; i++) { s = s + xs[i] * 2; }
        return s > 10 ? s : -s;
    }
}
"""

MODULES = {
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

#: Seeded single-bit flips per store in the ``bitflip`` case.
FLIPS = 24


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


class TableStore:
    """The LALR table cache: the entry is the base grammar's tables."""

    cache = "lalr.tables.disk"
    site = faults.SITE_CACHE_LOAD

    def __init__(self, directory, monkeypatch):
        self.directory = directory
        self.monkeypatch = monkeypatch

    def build(self, cached=True):
        """(expanded output, whether the entry was served from disk)."""
        tables.table_cache_clear()
        hits = cache_events(self.cache, "hit")
        with tables.disk_cache_at(str(self.directory) if cached else None):
            output = MayaCompiler().compile(PROGRAM).source()
        tables.table_cache_clear()
        return output, cache_events(self.cache, "hit") > hits

    def entry(self):
        (path,) = self.directory.glob("tables-*.pickle")
        return path

    def build_stale(self):
        """Fill the cache as code with an older snapshot format would."""
        with self.monkeypatch.context() as old:
            old.setattr(tables, "_SNAPSHOT_FORMAT", 0)
            self.build()


class ModuleStore:
    """The module cache: the entry is lib.Base's, whose key no other
    module's key depends on being healthy."""

    cache = "modules.disk"
    site = faults.SITE_MODULE_CACHE_LOAD

    def __init__(self, directory, monkeypatch):
        self.directory = directory

    def build(self, cached=True, sources=MODULES):
        builder = ModuleBuilder(
            MemorySources(sources),
            cache_dir=str(self.directory) if cached else None)
        result = builder.build(["app.Main"], need_bodies=True)
        return result.expanded(), "lib.Base" not in result.recompiled

    def entry(self):
        (path,) = self.directory.glob("module-lib.Base-*.pickle")
        return path

    def build_stale(self):
        """Fill the cache from an edit of lib.Base since reverted."""
        edited = dict(MODULES)
        edited["lib.Base"] += "\n// edited\n"
        self.build(sources=edited)


def quarantined(directory):
    return sorted(directory.glob("*.quarantine"))


def flip_bit(path, rng):
    data = bytearray(path.read_bytes())
    bit = rng.randrange(len(data) * 8)
    data[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(data))


@pytest.fixture(params=[TableStore, ModuleStore],
                ids=["tables", "modules"])
def store(request, tmp_path, monkeypatch):
    yield request.param(tmp_path, monkeypatch)
    tables.table_cache_clear()


class TestQuarantineLadder:
    @pytest.mark.parametrize("outcome", ["absent", "raise", "stale"])
    def test_plain_miss(self, store, outcome):
        clean, _ = store.build(cached=False)
        if outcome == "stale":
            store.build_stale()
        else:
            store.build()
        if outcome == "absent":
            store.entry().unlink()
        elif outcome == "raise":
            faults.configure(f"{store.site}:raise")
        before = corrupt_entries(store.cache)

        output, hit = store.build()
        assert (output, hit) == (clean, False)
        faults.reset()
        assert corrupt_entries(store.cache) == before
        assert not quarantined(store.directory)
        # The miss left a good entry (a stale one is overwritten).
        assert store.build() == (clean, True)

    @pytest.mark.parametrize("outcome", ["truncated", "garbage"])
    def test_corrupt_entry(self, store, outcome):
        clean, _ = store.build(cached=False)
        store.build()
        entry = store.entry()
        if outcome == "truncated":
            entry.write_bytes(entry.read_bytes()[:-7])
        else:
            entry.write_bytes(b"\x00\xffgarbage, not an entry")
        before = corrupt_entries(store.cache)

        assert store.build() == (clean, False)
        assert quarantined(store.directory) == [
            entry.with_name(entry.name + ".quarantine")]
        assert corrupt_entries(store.cache) == before + 1
        assert store.build() == (clean, True)

    def test_every_bit_flip_is_quarantined(self, store):
        """A flipped bit anywhere in an entry never loads: the checksum
        covers every byte, so each flip ends in quarantine and a
        rebuild byte-equal to a clean one."""
        clean, _ = store.build(cached=False)
        store.build()
        rng = random.Random(20021)
        for _ in range(FLIPS):
            flip_bit(store.entry(), rng)
            before = corrupt_entries(store.cache)
            assert store.build() == (clean, False)
            (bad,) = quarantined(store.directory)
            bad.unlink()
            assert corrupt_entries(store.cache) == before + 1
        assert store.build() == (clean, True)


def test_concurrent_stores_of_one_key_leave_one_good_entry(tmp_path):
    """Daemon workers that generate the same grammar store its tables
    at once; each write has its own scratch file, so the entry they
    leave loads cleanly and no scratch file is left behind."""
    grammar = CompileEnv().grammar
    fingerprint = grammar.fingerprint()
    generated = tables.build_tables(grammar)
    writers = 8
    barrier = threading.Barrier(writers)

    def write():
        barrier.wait(timeout=10)
        tables._disk_store(generated, fingerprint)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tables.disk_cache_at(str(tmp_path)):
            threads = [threading.Thread(target=write)
                       for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            hits = cache_events("lalr.tables.disk", "hit")
            loaded = tables._disk_load(grammar, fingerprint)
    finally:
        sys.setswitchinterval(interval)
    assert loaded is not None
    assert cache_events("lalr.tables.disk", "hit") == hits + 1
    assert loaded.action == generated.action
    assert not quarantined(tmp_path)
    assert not list(tmp_path.glob("*.tmp"))


def test_unreachable_directory_is_a_plain_miss(tmp_path):
    """A store whose directory lies under a regular file can neither
    load nor write: a load is a plain miss, never a corrupt entry, and
    a write leaves nothing behind."""
    blocker = tmp_path / "file"
    blocker.write_bytes(b"not a directory")
    store = Store(str(blocker / "store"), "test.unreachable",
                  faults.SITE_CACHE_LOAD)
    misses = cache_events("test.unreachable", "miss")
    corrupt = corrupt_entries("test.unreachable")
    store.store("entry", b"payload")
    assert store.load("entry", lambda payload: payload) is None
    assert cache_events("test.unreachable", "miss") == misses + 1
    assert corrupt_entries("test.unreachable") == corrupt
    assert blocker.read_bytes() == b"not a directory"
    assert list(tmp_path.iterdir()) == [blocker]
