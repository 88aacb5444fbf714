"""The fault-injection harness and the daemon's containment of every
injected failure: no fault may terminate mayad or wedge its queue."""

import socket
import threading
import time

import pytest

from repro import faults
from repro.lalr import tables as lalr_tables
from repro.obs import log as obs_log
from repro.server import DaemonConfig, MayaClient, MayaDaemon
from repro.server import protocol
from repro.server.client import DaemonError
from repro.server.daemon import CRASHES, REPLACED
from tests.conftest import corrupt_entries

SOURCE = "class Victim { static void main() { } }"


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        plan = faults.FaultPlan("")
        assert not plan.arms
        faults.check(faults.SITE_WORKER_EXECUTE)  # no-op

    def test_parse_full_spec(self):
        plan = faults.FaultPlan(
            "worker.execute:crash:times=2,cache.disk.load:corrupt,"
            "socket.read:hang:secs=0.1:after=3")
        assert len(plan.arms) == 3
        crash, corrupt, hang = plan.arms
        assert (crash.site, crash.mode, crash.times) == \
            ("worker.execute", "crash", 2)
        assert (corrupt.site, corrupt.mode) == ("cache.disk.load",
                                                "corrupt")
        assert corrupt.times is None  # unlimited
        assert (hang.secs, hang.after) == (0.1, 3)

    def test_bad_specs_are_rejected_loudly(self):
        for spec in ("worker.execute", "worker.execute:explode",
                     "worker.execute:crash:times=x",
                     "worker.execute:crash:bogus=1"):
            with pytest.raises(faults.FaultSpecError):
                faults.FaultPlan(spec)

    def test_times_counts_down(self):
        faults.configure("worker.execute:raise:times=2")
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                faults.check(faults.SITE_WORKER_EXECUTE)
        faults.check(faults.SITE_WORKER_EXECUTE)  # armed out
        assert faults.active_plan().fired(faults.SITE_WORKER_EXECUTE) == 2

    def test_after_skips_first_hits(self):
        faults.configure("worker.execute:raise:after=2:times=1")
        faults.check(faults.SITE_WORKER_EXECUTE)
        faults.check(faults.SITE_WORKER_EXECUTE)
        with pytest.raises(faults.InjectedFault):
            faults.check(faults.SITE_WORKER_EXECUTE)
        faults.check(faults.SITE_WORKER_EXECUTE)

    def test_corrupting_only_fires_corrupt_arms(self):
        faults.configure("cache.disk.load:corrupt:times=1")
        faults.check(faults.SITE_CACHE_LOAD)  # raise-style check: no-op
        assert faults.corrupting(faults.SITE_CACHE_LOAD)
        assert not faults.corrupting(faults.SITE_CACHE_LOAD)

    def test_crash_is_not_an_exception(self):
        # Generic `except Exception` recovery must never absorb it.
        assert not issubclass(faults.WorkerCrash, Exception)
        faults.configure("worker.execute:crash:times=1")
        with pytest.raises(faults.WorkerCrash):
            faults.check(faults.SITE_WORKER_EXECUTE)

    def test_environment_seeding(self, monkeypatch):
        monkeypatch.setenv("MAYA_FAULTS", "socket.read:raise:times=1")
        plan = faults.FaultPlan.from_environment()
        assert plan.arms[0].site == "socket.read"


def _daemon(**overrides):
    config = dict(workers=2, queue_size=8, prewarm=False)
    config.update(overrides)
    return MayaDaemon(DaemonConfig(**config)).start()


class TestCrashContainment:
    def test_single_crash_is_contained_by_degraded_rerun(self):
        faults.configure("worker.execute:crash:times=1")
        server = _daemon()
        try:
            client = MayaClient(server.address, retries=0)
            contained = CRASHES.labels(outcome="contained").value
            replaced = REPLACED.value
            response = client.compile(SOURCE, "v.maya", cache=False)
            # The crash killed a worker; the request was quarantined and
            # re-run in degraded single-shot mode — and succeeded.
            assert response["status"] == "ok"
            assert response["degraded"] is True
            assert CRASHES.labels(outcome="contained").value \
                == contained + 1
            assert REPLACED.value == replaced + 1
            # The pool is whole again and fully functional.
            assert client.ping()["workers"] == 2
            assert client.compile(SOURCE, "v2.maya",
                                  cache=False)["status"] == "ok"
        finally:
            server.stop()

    def test_degraded_rerun_reports_table_generation(self):
        # The degraded re-run bypasses the table caches and generates
        # from scratch; that time is its own phase, not hidden inside
        # the phase that asked for the tables.
        faults.configure("worker.execute:crash:times=1")
        server = _daemon(prewarm=False)
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile(SOURCE, "v.maya", cache=False)
            assert response["degraded"] is True
            phases = response["stats"]["phases"]
            assert "lalr.generate" in phases
            assert sum(phases.values()) <= response["stats"]["compile_ms"]
        finally:
            server.stop()

    def test_persistent_crash_reports_worker_crashed(self):
        faults.configure("worker.execute:crash")  # every execution
        server = _daemon()
        try:
            client = MayaClient(server.address, retries=0)
            failed = CRASHES.labels(outcome="degraded_failed").value
            response = client.compile(SOURCE, "v.maya", cache=False)
            assert response["status"] == "worker-crashed"
            assert "twice" in response["diagnostics"][0]["message"]
            assert CRASHES.labels(outcome="degraded_failed").value \
                == failed + 1
            # The daemon survived both crashes; clear the fault and the
            # same request compiles fine.
            faults.reset()
            assert client.compile(SOURCE, "v.maya",
                                  cache=False)["status"] == "ok"
        finally:
            server.stop()

    def test_degraded_response_is_never_cached(self):
        faults.configure("worker.execute:crash:times=1")
        server = _daemon()
        try:
            client = MayaClient(server.address, retries=0)
            assert client.compile(SOURCE, "d.maya")["degraded"] is True
            # The degraded answer was not stored: the next identical
            # request never crashed, so it compiles and is not degraded.
            response = client.compile(SOURCE, "d.maya")
            assert response["status"] == "ok"
            assert "cached" not in response and "degraded" not in response
            # That clean answer is the one the cache serves.
            hit = client.compile(SOURCE, "d.maya")
            assert hit["cached"] is True and "degraded" not in hit
        finally:
            server.stop()

    def test_crashes_never_cached(self):
        faults.configure("worker.execute:crash")
        server = _daemon()
        try:
            client = MayaClient(server.address, retries=0)
            assert client.compile(SOURCE,
                                  "c.maya")["status"] == "worker-crashed"
            faults.reset()
            # The failure was not stored: the retry really compiles.
            response = client.compile(SOURCE, "c.maya")
            assert response["status"] == "ok"
            assert "cached" not in response
        finally:
            server.stop()


class TestHangContainment:
    def test_hang_hits_deadline_and_pool_backfills(self):
        faults.configure("worker.execute:hang:secs=3:times=1")
        server = _daemon(workers=1)
        try:
            client = MayaClient(server.address, retries=0)
            replaced = REPLACED.value
            started = time.perf_counter()
            response = client.compile(SOURCE, "h.maya", cache=False,
                                      deadline_ms=400)
            elapsed = time.perf_counter() - started
            assert response["status"] == "deadline-exceeded"
            assert elapsed < 2.0  # answered at the deadline, not after 3s
            assert REPLACED.value == replaced + 1
            # The hung worker was zombied and replaced: with one
            # configured worker the service still has capacity.
            response = client.compile(SOURCE, "h2.maya", cache=False)
            assert response["status"] == "ok"
        finally:
            server.stop()


class TestCacheCorruption:
    def test_corrupt_disk_entry_is_quarantined_and_regenerated(
            self, tmp_path):
        before = corrupt_entries("lalr.tables.disk")
        with lalr_tables.disk_cache_at(str(tmp_path)):
            server = _daemon()
            try:
                client = MayaClient(server.address, retries=0)
                # First compile populates the disk cache (the memory
                # LRU is warm from earlier tests — flush it so the
                # tables are regenerated and actually written out).
                lalr_tables.table_cache_clear()
                assert client.compile(SOURCE, "v0.maya",
                                      cache=False)["status"] == "ok"
                # Force the next compile through the disk path, with
                # the first load returning injected garbage.
                lalr_tables.table_cache_clear()
                faults.configure("cache.disk.load:corrupt:times=1")
                response = client.compile(
                    SOURCE.replace("Victim", "Victim1"), "v1.maya",
                    cache=False)
                assert response["status"] == "ok"
            finally:
                server.stop()
            assert corrupt_entries("lalr.tables.disk") == before + 1
            quarantined = [name for name in tmp_path.iterdir()
                           if name.suffix == ".quarantine"]
            assert len(quarantined) == 1

    def test_daemon_survives_cache_load_failure(self, tmp_path):
        with lalr_tables.disk_cache_at(str(tmp_path)):
            server = _daemon()
            try:
                client = MayaClient(server.address, retries=0)
                lalr_tables.table_cache_clear()
                assert client.compile(SOURCE, "v0.maya",
                                      cache=False)["status"] == "ok"
                lalr_tables.table_cache_clear()
                faults.configure("cache.disk.load:raise")
                response = client.compile(
                    SOURCE.replace("Victim", "Victim1"), "v1.maya",
                    cache=False)
                assert response["status"] == "ok"
            finally:
                server.stop()


class TestSocketFaults:
    def test_read_fault_drops_connection_not_daemon(self):
        server = _daemon()
        try:
            faults.configure("socket.read:raise:times=1")
            client = MayaClient(server.address, retries=0)
            # The daemon side hits the read fault; this request dies.
            # The fault may fire on the daemon's read (the connection
            # dies without an answer) or the client's own read.
            with pytest.raises((DaemonError, protocol.ProtocolError,
                                faults.InjectedFault, OSError)):
                client.ping()
            faults.reset()
            assert client.ping()["status"] == "ok"
        finally:
            server.stop()
            faults.reset()

    def test_write_fault_is_retried_by_client(self):
        server = _daemon()
        try:
            # One injected write failure; the client's retry succeeds.
            faults.configure("socket.write:disconnect:times=1")
            client = MayaClient(server.address, retries=3,
                                backoff_s=0.001)
            assert client.ping()["status"] == "ok"
        finally:
            server.stop()
            faults.reset()


class TestQueueNeverWedges:
    def test_mixed_fault_storm_leaves_service_healthy(self):
        """The acceptance drill in miniature: crashes and hangs land
        concurrently and the daemon still answers afterwards."""
        faults.configure("worker.execute:crash:times=2,"
                         "worker.execute:hang:secs=2:after=2:times=1")
        server = _daemon(workers=3, queue_size=32)
        try:
            client = MayaClient(server.address, retries=0)
            results = [None] * 8
            def go(i):
                results[i] = client.compile(
                    SOURCE.replace("Victim", f"Storm{i}"),
                    f"s{i}.maya", cache=False, deadline_ms=1500)
            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(20)
            statuses = {r["status"] for r in results if r is not None}
            assert None not in results          # every request answered
            assert statuses <= {"ok", "deadline-exceeded",
                                "worker-crashed"}
            assert "ok" in statuses
            # Survivor check: the daemon is alive, the queue drains.
            faults.reset()
            assert client.ping()["status"] == "ok"
            assert client.compile("class Survivor { }", "sv.maya",
                                  cache=False)["status"] == "ok"
        finally:
            server.stop()


MODULE_SOURCES = {
    "lib.Util": """
        class Util { static int five() { return 5; } }
    """,
    "app.Main": """
        import lib.Util;
        class Main {
            static void main() {
                System.out.println(Util.five() + 37);
            }
        }
    """,
}


class TestModuleCacheCorruption:
    """The workers' shared incremental module cache applies the same
    quarantine-on-corrupt ladder as the table cache: a poisoned entry
    is quarantined, counted, and recompiled — never a failed request,
    never a dead daemon."""

    def test_corrupt_module_entry_is_quarantined_and_regenerated(
            self, tmp_path):
        before = corrupt_entries("modules.disk")
        server = _daemon(module_cache_dir=str(tmp_path))
        try:
            client = MayaClient(server.address, retries=0)
            first = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                           cache=False, run="Main")
            assert first["status"] == "ok"
            assert first["run"]["output"] == ["42"]
            assert first["modules"]["recompiled"] == \
                ["lib.Util", "app.Main"]
            assert any(path.name.startswith("module-")
                       for path in tmp_path.iterdir())
            # Second request replays from the shared cache — with the
            # first load returning injected garbage.
            faults.configure("cache.module.load:corrupt:times=1")
            second = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                            cache=False, run="Main")
            assert second["status"] == "ok"
            assert second["run"]["output"] == ["42"]
            # Exactly the corrupted module recompiled; its sibling
            # replayed from its (healthy) entry.
            assert len(second["modules"]["recompiled"]) == 1
        finally:
            server.stop()
        assert corrupt_entries("modules.disk") == before + 1
        quarantined = [path for path in tmp_path.iterdir()
                       if path.suffix == ".quarantine"]
        assert len(quarantined) == 1

    def test_truncated_entry_on_disk_is_survived(self, tmp_path):
        before = corrupt_entries("modules.disk")
        server = _daemon(module_cache_dir=str(tmp_path))
        try:
            client = MayaClient(server.address, retries=0)
            assert client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                          cache=False)["status"] == "ok"
            # Truncate a real entry mid-JSON, no fault injection: the
            # ladder must handle organic disk rot the same way.
            victim = next(path for path in tmp_path.iterdir()
                          if path.name.startswith("module-"))
            victim.write_text(victim.read_text()[:40], encoding="utf-8")
            response = client.compile_modules(MODULE_SOURCES,
                                              ["app.Main"], cache=False)
            assert response["status"] == "ok"
        finally:
            server.stop()
        assert corrupt_entries("modules.disk") == before + 1
        assert any(path.suffix == ".quarantine"
                   for path in tmp_path.iterdir())

    def test_daemon_survives_module_cache_load_failure(self, tmp_path):
        server = _daemon(module_cache_dir=str(tmp_path))
        try:
            client = MayaClient(server.address, retries=0)
            assert client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                          cache=False)["status"] == "ok"
            # Every load raises: all misses, everything recompiles, the
            # request still succeeds and the daemon stays up.
            faults.configure("cache.module.load:raise")
            response = client.compile_modules(MODULE_SOURCES,
                                              ["app.Main"], cache=False,
                                              run="Main")
            assert response["status"] == "ok"
            assert response["run"]["output"] == ["42"]
            assert response["modules"]["recompiled"] == \
                ["lib.Util", "app.Main"]
            faults.reset()
            assert client.ping()["status"] == "ok"
        finally:
            server.stop()

    def test_corrupt_iface_payload_is_quarantined_and_regenerated(
            self, tmp_path):
        """``cache.module.iface``: the entry JSON parses but the class
        skeletons / deep blob are garbage.  The integrity gate must
        quarantine, count, and regenerate — never crash a request."""
        before = corrupt_entries("modules.disk")
        server = _daemon(module_cache_dir=str(tmp_path))
        try:
            client = MayaClient(server.address, retries=0)
            first = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                           cache=False, run="Main")
            assert first["status"] == "ok"
            assert first["run"]["output"] == ["42"]
            faults.configure("cache.module.iface:corrupt:times=1")
            second = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                            cache=False, run="Main")
            assert second["status"] == "ok"
            assert second["run"]["output"] == ["42"]
            # Exactly the module with the poisoned skeletons
            # recompiled; its sibling replayed (deep-restored) fine.
            assert len(second["modules"]["recompiled"]) == 1
            # The regenerated entry is healthy: a third request reuses
            # everything.
            third = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                           cache=False, run="Main")
            assert third["status"] == "ok"
            assert third["modules"]["reused"] == ["lib.Util", "app.Main"]
        finally:
            server.stop()
        assert corrupt_entries("modules.disk") == before + 1
        assert sum(1 for path in tmp_path.iterdir()
                   if path.suffix == ".quarantine") == 1

    def test_truncated_deep_blob_on_disk_falls_back(self, tmp_path):
        """Organic rot in the deep payload (well-formed JSON, bad blob
        bytes, the old checksum line): the entry checksum catches it,
        the warm hit quarantines and the module recompiles — output
        unchanged."""
        import base64
        import json as json_mod

        before = corrupt_entries("modules.disk")
        server = _daemon(module_cache_dir=str(tmp_path))
        try:
            client = MayaClient(server.address, retries=0)
            first = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                           cache=False, run="Main")
            assert first["status"] == "ok"
            victim = next(path for path in tmp_path.iterdir()
                          if path.name.startswith("module-"))
            checksum, _, text = victim.read_bytes().partition(b"\n")
            payload = json_mod.loads(text)
            assert payload.get("deep"), "entry should carry a deep blob"
            blob = base64.b64decode(payload["deep"])
            payload["deep"] = base64.b64encode(
                blob[: len(blob) // 2]).decode("ascii")
            victim.write_bytes(checksum + b"\n" + json_mod.dumps(
                payload, sort_keys=True).encode("utf-8"))
            second = client.compile_modules(MODULE_SOURCES, ["app.Main"],
                                            cache=False, run="Main")
            assert second["status"] == "ok"
            assert second["run"]["output"] == ["42"]
            assert len(second["modules"]["recompiled"]) == 1
        finally:
            server.stop()
        assert corrupt_entries("modules.disk") == before + 1
        assert any(path.suffix == ".quarantine"
                   for path in tmp_path.iterdir())


class TestCrashReconstructionFromEventLog:
    """The observability acceptance bar: a contained worker crash must
    be reconstructible from the structured event log *alone* — the
    request_id links admission, crash, degraded re-run, and response."""

    def test_crash_trail_links_by_request_id(self):
        faults.configure("worker.execute:crash:times=1")
        obs_log.LOG.clear()
        server = _daemon()
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile(SOURCE, "v.maya", cache=False)
            assert response["status"] == "ok"
            assert response["degraded"] is True
            request_id = response["request_id"]
            assert obs_log.REQUEST_ID_RE.match(request_id)
            assert obs_log.TRACE_ID_RE.match(response["trace_id"])

            # Reconstruct from the log alone: one grep by request_id.
            records = obs_log.LOG.records(request_id=request_id)
            trail = [record["name"] for record in records]
            for expected in ("server.request.received",
                             "server.worker.crash",
                             "server.request.degraded",
                             "server.request.done"):
                assert expected in trail, f"{expected} missing in {trail}"
            # ...and in causal order: admitted, crashed, re-run, done.
            assert (trail.index("server.request.received")
                    < trail.index("server.worker.crash")
                    < trail.index("server.request.degraded")
                    < trail.index("server.request.done"))
            # Every hop carries the one trace the client minted.
            assert {record["trace_id"] for record in records} \
                == {response["trace_id"]}
            # The crash hop is leveled as an error, the degradation as
            # a warning — a leveled reader sees the incident shape.
            levels = {record["name"]: record["level"] for record in records}
            assert levels["server.worker.crash"] == "error"
            assert levels["server.request.degraded"] == "warn"
        finally:
            server.stop()

    def test_double_crash_trail_ends_in_failed_response(self):
        faults.configure("worker.execute:crash")
        obs_log.LOG.clear()
        server = _daemon()
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile(SOURCE, "v.maya", cache=False)
            assert response["status"] == "worker-crashed"
            records = obs_log.LOG.records(
                request_id=response["request_id"])
            trail = [record["name"] for record in records]
            # Both crashes land in the same request's trail, and the
            # terminal response event reports the failure status.
            assert trail.count("server.worker.crash") >= 1
            done = [record for record in records
                    if record["name"] == "server.request.done"]
            assert done and done[-1]["status"] == "worker-crashed"
        finally:
            server.stop()
            faults.reset()
