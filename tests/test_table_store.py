"""The persistent LALR table store, on by default, and a console
``mayac`` that exits without interpreter teardown.

* where the store lives: ``MAYA_CACHE_DIR``, else
  ``$XDG_CACHE_HOME/maya``, else ``~/.cache/maya``;
* what an entry holds: the tables and the FIRST/nullable sets, which a
  restore takes instead of recomputing them (the round trip itself is
  pinned in ``tests/test_lalr.py``);
* what keys an entry: the grammar fingerprint, the snapshot format and
  a digest of the generator's source, so changed generator code never
  restores old tables;
* what a cold ``mayac`` process does with it, and that its hard exit
  loses no output and no exit code.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import CompileEnv
from repro.javalang import base_grammar
from repro.lalr import tables
from repro.mayac import main
from tests.conftest import cache_events, corrupt_entries

ROOT = Path(__file__).resolve().parent.parent
HELLO = str(ROOT / "examples" / "hello.maya")
HELLO_OUT = "hello, maya\nmultimethods on productions\n"


def mayac(*args, cache_dir, **env):
    """One cold ``python -m repro.mayac`` process; ``cache_dir`` is its
    MAYA_CACHE_DIR (None: unset, so XDG/HOME decide).  Its stdout is
    block-buffered, as on any pipe, so a lost flush would show."""
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    environ.pop("MAYA_CACHE_DIR", None)
    environ.pop("PYTHONUNBUFFERED", None)
    if cache_dir is not None:
        environ["MAYA_CACHE_DIR"] = str(cache_dir)
    return subprocess.run([sys.executable, "-m", "repro.mayac", *args],
                          env=environ, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def profile_rows(stderr):
    """The ``self times:`` row names of a ``--profile`` report."""
    lines = stderr.split("self times:\n", 1)[1].splitlines()
    rows = []
    for line in lines:
        if not line.startswith("  ") or line.split()[0] == "total":
            break
        rows.append(line.split()[0])
    return rows


def disk_hits(stderr):
    """The ``lalr.tables.disk`` hits in a ``--profile`` report (the
    process's total, so only a fresh process's report is one run's)."""
    for line in stderr.splitlines():
        if line.split()[:1] == ["lalr.tables.disk"]:
            return int(line.split()[1])
    return 0


class TestLocation:
    def test_order(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.delenv("MAYA_CACHE_DIR", raising=False)
        assert tables.default_cache_dir() == \
            str(tmp_path / "home" / ".cache" / "maya")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert tables.default_cache_dir() == str(tmp_path / "xdg" / "maya")
        monkeypatch.setenv("MAYA_CACHE_DIR", str(tmp_path / "maya"))
        assert tables.default_cache_dir() == str(tmp_path / "maya")

    def test_relative_xdg_is_ignored(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.delenv("MAYA_CACHE_DIR", raising=False)
        assert tables.default_cache_dir() == \
            str(tmp_path / ".cache" / "maya")

    def test_a_cold_process_uses_xdg_then_home(self, tmp_path):
        xdg = tmp_path / "xdg"
        done = mayac("--run", "Hello", HELLO, cache_dir=None,
                     XDG_CACHE_HOME=str(xdg), HOME=str(tmp_path / "home"))
        assert done.stdout == HELLO_OUT
        assert list((xdg / "maya").glob("tables-*.pickle"))
        assert not (tmp_path / "home").exists()


class TestColdProcesses:
    def test_second_run_restores_everything(self, tmp_path):
        """Two cold runs share a store: the first generates and writes
        the base and the ForEach grammar's tables, the second generates
        nothing, restores both, and prints the same bytes."""
        first = mayac("--profile", "--run", "Hello", HELLO,
                      cache_dir=tmp_path)
        assert first.returncode == 0, first.stderr
        assert "lalr.generate" in profile_rows(first.stderr)
        assert len(list(tmp_path.glob("tables-*.pickle"))) == 2

        second = mayac("--profile", "--run", "Hello", HELLO,
                       cache_dir=tmp_path)
        assert second.returncode == 0, second.stderr
        rows = profile_rows(second.stderr)
        assert "lalr.generate" not in rows and "lalr.restore" in rows
        assert disk_hits(second.stderr) == 2
        assert second.stdout == first.stdout == HELLO_OUT

    def test_no_cache_writes_nothing(self, tmp_path):
        done = mayac("--no-cache", "--run", "Hello", HELLO,
                     cache_dir=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, HELLO_OUT, "")
        assert not list(tmp_path.iterdir())

    def test_unreachable_store_changes_nothing(self, tmp_path):
        """A store path under a regular file can be neither read nor
        written: the run is the same, with no traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        done = mayac("--run", "Hello", HELLO,
                     cache_dir=blocker / "maya")
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, HELLO_OUT, "")
        assert blocker.read_text() == "not a directory"

    def test_flags_hold_for_one_run(self, tmp_path, capsys):
        """In process, --no-cache and --table-cache last until main
        returns; the caller's store is in place again afterwards."""
        directory = tables._DISK.directory
        assert main(["--no-cache", HELLO]) == 0
        assert tables._DISK.directory == directory
        assert main(["--table-cache", str(tmp_path), HELLO]) == 0
        assert tables._DISK.directory == directory

    def test_no_cache_and_table_cache_exclude_each_other(self, tmp_path,
                                                         capsys):
        with pytest.raises(SystemExit):
            main(["--no-cache", "--table-cache", str(tmp_path), HELLO])
        assert "not allowed with" in capsys.readouterr().err


class TestNamedRestore:
    def test_warm_profile_shows_the_restore(self, tmp_path, capsys):
        """In process, a warm store's tables load under an
        ``lalr.restore`` phase, and nothing is generated."""
        store = str(tmp_path)
        with tables.disk_cache_at(store):
            tables.table_cache_clear()
            assert main(["--run", "Hello", HELLO]) == 0
            capsys.readouterr()
            tables.table_cache_clear()
            hits = cache_events("lalr.tables.disk", "hit")
            assert main(["--profile", "--run", "Hello", HELLO]) == 0
        tables.table_cache_clear()
        rows = profile_rows(capsys.readouterr().err)
        assert "lalr.restore" in rows and "lalr.generate" not in rows
        assert cache_events("lalr.tables.disk", "hit") == hits + 2


class TestSnapshot:
    def test_restore_skips_the_fixpoint(self, monkeypatch):
        grammar = base_grammar()
        snapshot = tables.build_tables(grammar).snapshot()

        def fail(self):
            raise AssertionError("FIRST sets recomputed on a restore")

        monkeypatch.setattr(tables.EncodedGrammar, "_compute_first", fail)
        tables.ParseTables.from_snapshot(grammar, snapshot)


class TestGeneratorToken:
    def test_changed_generator_is_a_plain_miss(self, tmp_path, monkeypatch):
        """An entry written by other generator code is never restored:
        it is a miss and a regeneration that overwrites the entry in
        place, not a quarantine, and no dead file is left behind."""
        grammar = CompileEnv().grammar
        with tables.disk_cache_at(str(tmp_path)):
            tables.table_cache_clear()
            tables.tables_for(grammar)
            (old,) = tmp_path.glob("tables-*.pickle")
            written = old.read_bytes()
            monkeypatch.setattr(tables, "_generator_token",
                                lambda: "0" * 16)
            hits = cache_events("lalr.tables.disk", "hit")
            corrupt = corrupt_entries("lalr.tables.disk")
            tables.table_cache_clear()
            regenerated = tables.tables_for(grammar)
        tables.table_cache_clear()
        assert regenerated.action
        assert cache_events("lalr.tables.disk", "hit") == hits
        assert corrupt_entries("lalr.tables.disk") == corrupt
        assert not list(tmp_path.glob("*.quarantine"))
        assert list(tmp_path.glob("tables-*.pickle")) == [old]
        assert old.read_bytes() != written

    @pytest.mark.parametrize("module", ["automaton_module",
                                        "encoded_module"])
    def test_token_covers_the_generator_source(self, module, tmp_path,
                                               monkeypatch):
        token = tables._generator_token()
        assert tables._generator_token.__wrapped__() == token
        edited = tmp_path / "edited.py"
        source = Path(getattr(tables, module).__file__).read_text()
        edited.write_text(source + "\n# edited\n")
        monkeypatch.setattr(getattr(tables, module), "__file__",
                            str(edited))
        assert tables._generator_token.__wrapped__() != token


class TestHardExit:
    def test_outputs_are_complete(self, tmp_path):
        """The exit skips teardown but not the output: every file a run
        writes is whole, and a pipe gets all of stdout."""
        program = tmp_path / "Loud.maya"
        program.write_text("""
            class Loud {
                static void main() {
                    for (int i = 0; i < 4000; i++) {
                        System.out.println("line " + i + " of a long run");
                    }
                }
            }
        """)
        out = {name: tmp_path / name
               for name in ("trace.jsonl", "log.jsonl", "metrics.json",
                            "flame.json")}
        done = mayac("--trace-out", str(out["trace.jsonl"]),
                     "--log-out", str(out["log.jsonl"]),
                     "--metrics-out", str(out["metrics.json"]),
                     "--metrics-format", "json",
                     "--flamegraph", str(out["flame.json"]),
                     "--run", "Loud", str(program), cache_dir=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "".join(f"line {i} of a long run\n"
                                      for i in range(4000))
        records = [json.loads(line)
                   for line in out["trace.jsonl"].read_text().splitlines()]
        assert records[-1]["type"] == "metrics"
        events = [json.loads(line)
                  for line in out["log.jsonl"].read_text().splitlines()]
        assert "mayac.compile.done" in {event["name"] for event in events}
        assert json.loads(out["metrics.json"].read_text())["families"]
        assert json.loads(out["flame.json"].read_text())["profiles"]

    def test_exit_codes_survive(self, tmp_path):
        bad = tmp_path / "Bad.maya"
        bad.write_text('class Bad { int f() { return "no"; } }')
        boom = tmp_path / "Boom.maya"
        boom.write_text("""
            class Boom {
                static void main() {
                    System.out.println("before");
                    int[] xs = new int[1];
                    xs[3] = 1;
                }
            }
        """)
        compile_error = mayac(str(bad), cache_dir=tmp_path)
        assert compile_error.returncode == 1
        assert "mayac: 1 error" in compile_error.stderr
        runtime_error = mayac("--run", "Boom", str(boom), cache_dir=tmp_path)
        assert runtime_error.returncode == 2
        assert runtime_error.stdout == "before\n"
        assert "runtime error" in runtime_error.stderr


class TestDaemon:
    @pytest.mark.parametrize("flags, stored", [((), True),
                                               (("--no-cache",), False)])
    def test_prewarm_fills_the_store_unless_no_cache(self, tmp_path, flags,
                                                     stored):
        """mayad's prewarm generates the base and macro grammars'
        tables into the default store; ``--no-cache`` writes nothing."""
        store = tmp_path / "store"
        port_file = tmp_path / "port"
        environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                       MAYA_CACHE_DIR=str(store))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", "1", "--port-file", str(port_file), *flags],
            env=environ, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() and daemon.poll() is None:
                assert time.monotonic() < deadline, "mayad never served"
                time.sleep(0.05)
        finally:
            daemon.send_signal(signal.SIGINT)
            _, stderr = daemon.communicate(timeout=60)
        assert daemon.returncode == 0, stderr
        entries = list(store.glob("tables-*.pickle")) if store.exists() \
            else []
        assert bool(entries) == stored
