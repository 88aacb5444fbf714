"""The mayad compile service: protocol, isolation, admission control,
deadlines, the artifact cache, and the client's retry discipline."""

import json
import os
import pathlib
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import faults
from repro.core.env import CompileEnv
from repro.diag import DeadlineExceededError
from repro.server import DaemonConfig, MayaClient, MayaDaemon, parse_address
from repro.server import protocol
from repro.server.client import DaemonError
from repro.server.daemon import REQUESTS, SHED, _Request
from repro.server import state
from repro.server.state import artifact_key
from repro.store import LRUCache

FOREACH_TEMPLATE = """
    import java.util.*;
    class Demo%s {
        static void main() {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.addElement("srv");
            v.elements().foreach(String s) { System.out.println(s); }
        }
    }
"""


@pytest.fixture
def daemon():
    server = MayaDaemon(DaemonConfig(workers=2, queue_size=8,
                                     prewarm=False)).start()
    yield server
    server.stop()
    faults.reset()


@pytest.fixture
def client(daemon):
    return MayaClient(daemon.address, retries=2,
                      rng=random.Random(7))


class TestProtocol:
    def test_frame_roundtrip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, {"op": "ping", "text": "s\nd"})
            assert protocol.recv_frame(right) == {"op": "ping",
                                                  "text": "s\nd"}
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert protocol.recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", 100) + b"short")
            left.close()
            with pytest.raises(protocol.ProtocolError,
                               match="mid-frame"):
                protocol.recv_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected_before_buffering(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(protocol.ProtocolError, match="exceeds"):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_bad_json_raises(self):
        left, right = socket.socketpair()
        try:
            payload = b"not json"
            left.sendall(struct.pack("!I", len(payload)) + payload)
            with pytest.raises(protocol.ProtocolError, match="payload"):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7463") == ("127.0.0.1", 7463)
        assert parse_address(":9") == ("127.0.0.1", 9)
        assert parse_address("/tmp/mayad.sock") == "/tmp/mayad.sock"
        with pytest.raises(ValueError):
            parse_address("host:notaport")


class TestCompileService:
    def test_compile_and_expand(self, client):
        response = client.compile(FOREACH_TEMPLATE % "A", "a.maya",
                                  expand=True)
        assert response["status"] == "ok"
        assert "hasMoreElements" in response["expanded"]
        assert response["classes"] == ["DemoA"]
        assert response["stats"]["total_ms"] > 0

    def test_identical_compiles_expand_identically(self):
        # One worker thread compiles both requests; fresh names restart
        # per unit, so the second expansion matches the first.
        server = MayaDaemon(DaemonConfig(workers=1, prewarm=False)).start()
        try:
            client = MayaClient(server.address, retries=0)
            first, second = (
                client.compile(FOREACH_TEMPLATE % "Same", "same.maya",
                               expand=True, cache=False)
                for _ in range(2))
            assert first["status"] == second["status"] == "ok"
            assert "enumVar$1" in first["expanded"]
            assert second["expanded"] == first["expanded"]
        finally:
            server.stop()

    def test_compile_error_diagnostics_are_structured(self, client):
        response = client.compile(
            'class Bad { int f() { return "no"; } }', "bad.maya")
        assert response["status"] == "compile-error"
        [diag] = response["diagnostics"]
        assert diag["severity"] == "error"
        assert diag["phase"] in ("parse", "check", "expand")
        assert "bad.maya" in diag["rendered"]
        assert "^" in diag["rendered"]  # caret rendering survives the wire

    def test_sessions_are_isolated(self, client):
        # Session 1 defines a class and extends its grammar via `use`;
        # neither may leak into session 2's environment.
        first = client.compile(FOREACH_TEMPLATE % "Iso", "iso.maya")
        assert first["status"] == "ok"
        leaked_type = client.compile(
            "class Other { DemoIso d; }", "other.maya")
        assert leaked_type["status"] == "compile-error"
        leaked_grammar = client.compile("""
            import java.util.*;
            class NoUse {
                static void main() {
                    Vector v = new Vector();
                    v.elements().foreach(String s) { }
                }
            }
        """, "nouse.maya")
        assert leaked_grammar["status"] == "compile-error"

    def test_artifact_cache_hit(self, client):
        source = FOREACH_TEMPLATE % "Cache"
        first = client.compile(source, "c.maya", expand=True)
        assert first["status"] == "ok" and "cached" not in first
        second = client.compile(source, "c.maya", expand=True)
        assert second["status"] == "ok"
        assert second["cached"] is True
        assert second["expanded"] == first["expanded"]

    def test_artifact_cache_respects_options(self, client):
        source = FOREACH_TEMPLATE % "Opt"
        with_expand = client.compile(source, "o.maya", expand=True)
        without = client.compile(source, "o.maya")
        assert with_expand["status"] == "ok"
        assert without["status"] == "ok"
        assert "cached" not in without  # different options, different key

    def test_run_option_interprets_in_worker(self, client):
        response = client.compile("""
            class Calc { static int twice(int n) { return n * 2; } }
            class Demo {
                static void main() {
                    System.out.println(Calc.twice(21));
                }
            }
        """, "run.maya", cache=False, run="Demo")
        assert response["status"] == "ok"
        run = response["run"]
        assert run["class"] == "Demo"
        assert run["output"] == ["42"]
        assert run["run_ms"] >= 0
        assert "error" not in run

    def test_cached_compile_does_not_answer_a_run(self, client):
        source = """
            class Demo {
                static void main() { System.out.println("ran"); }
            }
        """
        assert client.compile(source, "cached.maya")["status"] == "ok"
        response = client.compile(source, "cached.maya", run="Demo")
        assert response["status"] == "ok"
        assert response["run"]["output"] == ["ran"]
        missing = client.compile(source, "cached.maya", run="Nope")
        assert "error" in missing["run"]

    def test_run_option_reports_java_throw(self, client):
        response = client.compile("""
            class Demo {
                static void main() { throw new RuntimeException("sad"); }
            }
        """, "throw.maya", cache=False, run="Demo")
        assert response["status"] == "ok"  # the *compile* succeeded
        run = response["run"]
        assert run["thrown"] == "java.lang.RuntimeException"
        assert "sad" in run["error"]

    def test_concurrent_compiles(self, client):
        results = [None] * 12
        def go(i):
            results[i] = client.compile(FOREACH_TEMPLATE % f"C{i}",
                                        f"c{i}.maya", cache=False)
        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert all(r is not None and r["status"] == "ok"
                   for r in results)

    def test_ping_and_metrics(self, client):
        ping = client.ping()
        assert ping["status"] == "ok"
        assert ping["workers"] == 2
        metrics = client.metrics()
        names = {f["name"] for f in metrics["families"]}
        assert "maya_server_requests_total" in names
        assert "maya_server_request_ms" in names

    def test_bad_requests_are_answered(self, client):
        assert client.request("frobnicate")["status"] == "bad-request"
        assert client.request("compile")["status"] == "bad-request"
        response = client.request("compile", source="class A { }",
                                  options=["not", "a", "dict"])
        assert response["status"] == "bad-request"

    def test_unix_socket(self, tmp_path):
        path = str(tmp_path / "mayad.sock")
        server = MayaDaemon(DaemonConfig(socket_path=path,
                                         prewarm=False)).start()
        try:
            response = MayaClient(path).compile("class U { }", "u.maya")
            assert response["status"] == "ok"
        finally:
            server.stop()

    def test_malformed_frame_keeps_daemon_serving(self, daemon, client):
        raw = socket.create_connection(
            parse_address(daemon.address), timeout=5)
        try:
            raw.sendall(b"\xff\xff\xff\xff garbage")
            # The daemon answers bad-request (or just drops us) and must
            # keep serving other clients.
            raw.settimeout(2)
            try:
                raw.recv(1 << 16)
            except OSError:
                pass
        finally:
            raw.close()
        assert client.ping()["status"] == "ok"

    def test_client_disconnect_mid_request_tolerated(self, daemon,
                                                     client):
        raw = socket.create_connection(
            parse_address(daemon.address), timeout=5)
        payload = json.dumps({
            "op": "compile", "source": FOREACH_TEMPLATE % "Gone",
            "filename": "gone.maya", "options": {"cache": False},
        }).encode()
        raw.sendall(struct.pack("!I", len(payload)) + payload)
        raw.close()  # vanish before the answer
        time.sleep(0.2)
        assert client.ping()["status"] == "ok"
        assert client.compile("class Still { }",
                              "still.maya")["status"] == "ok"


class TestAdmissionControl:
    def test_load_shedding_is_fast_and_structured(self):
        faults.configure("worker.execute:hang:secs=1.5:times=1")
        server = MayaDaemon(DaemonConfig(workers=1, queue_size=1,
                                         prewarm=False)).start()
        try:
            client = MayaClient(server.address, retries=0)
            shed_before = SHED.value
            slow = threading.Thread(
                target=client.compile,
                args=("class Slow { }", "slow.maya"),
                kwargs={"cache": False, "deadline_ms": 4000})
            slow.start()
            time.sleep(0.3)  # the hang occupies the only worker
            queued = threading.Thread(
                target=client.compile,
                args=("class Queued { }", "queued.maya"),
                kwargs={"cache": False, "deadline_ms": 4000})
            queued.start()
            time.sleep(0.1)
            started = time.perf_counter()
            response = client.compile("class Shed { }", "shed.maya",
                                      cache=False)
            elapsed = time.perf_counter() - started
            assert response["status"] == "overloaded"
            assert response["retry_after_ms"] > 0
            assert response["diagnostics"][0]["phase"] == "server"
            assert elapsed < 0.5  # shed immediately, not queued
            assert SHED.value == shed_before + 1
            slow.join(10)
            queued.join(10)
        finally:
            server.stop()
            faults.reset()

    def test_stop_is_not_wedged_by_a_full_queue(self):
        # Graceful stop must never block putting its sentinels: with
        # the queue full behind a hung worker (the fault-drill shape),
        # a blocking put would wedge stop() before its join timeout.
        faults.configure("worker.execute:hang:secs=30:times=1")
        server = MayaDaemon(DaemonConfig(workers=1, queue_size=1,
                                         prewarm=False)).start()
        results = {}

        def fire(name):
            client = MayaClient(server.address, retries=0)
            results[name] = client.compile(
                "class Wedge { }", f"{name}.maya",
                cache=False, deadline_ms=2000)

        hung = threading.Thread(target=fire, args=("hung",))
        hung.start()
        time.sleep(0.3)  # the hang occupies the only worker
        queued = threading.Thread(target=fire, args=("queued",))
        queued.start()
        time.sleep(0.2)  # ...and this request fills the 1-deep queue
        try:
            started = time.perf_counter()
            server.stop(timeout=1.0)
            assert time.perf_counter() - started < 3.0
            queued.join(5)
            # The drained request got a structured answer, not silence.
            assert results["queued"]["status"] in ("shutting-down",
                                                   "deadline-exceeded")
        finally:
            faults.reset()
            hung.join(5)

    def test_shutting_down_refuses_new_compiles(self, daemon):
        client = MayaClient(daemon.address, retries=0)
        daemon._running = False
        try:
            response = client.request("compile", source="class L { }")
            assert response["status"] == "shutting-down"
        finally:
            daemon._running = True


class TestDeadlines:
    def test_deadline_exceeded_response_and_recovery(self):
        faults.configure("worker.execute:hang:secs=2:times=1")
        server = MayaDaemon(DaemonConfig(workers=1,
                                         prewarm=False)).start()
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile("class Hang { }", "h.maya",
                                      cache=False, deadline_ms=300)
            assert response["status"] == "deadline-exceeded"
            assert response["deadline_ms"] == pytest.approx(300.0)
            # The hung worker was replaced: the daemon still serves.
            follow_up = client.compile("class After { }", "a.maya",
                                       cache=False)
            assert follow_up["status"] == "ok"
        finally:
            server.stop()
            faults.reset()

    def test_cooperative_trip_reports_deadline_status(self):
        # A mid-compile deadline trip is a service condition, not a
        # source error: _execute must answer deadline-exceeded, never
        # compile-error (mayac would exit as if the program were bad).
        server = MayaDaemon(DaemonConfig(prewarm=False))
        request = _Request(
            {"source": "class P { void f() { } }", "filename": "p.maya",
             "options": {}},
            deadline=time.monotonic() - 1.0)
        response = server._execute(request)
        assert response["status"] == "deadline-exceeded"
        assert response["deadline_ms"] is not None

    def test_deadline_trip_does_not_poison_artifact_cache(self):
        # The artifact key excludes deadline_ms, so a short-deadline
        # request whose trip resolves inside the handler's grace window
        # must never be stored: later amply-budgeted requests for the
        # same source would be served the cached timeout forever.
        server = MayaDaemon(DaemonConfig(workers=2, prewarm=False)).start()
        try:
            client = MayaClient(server.address, retries=0)
            source = "class Poison { void f() { } }"
            # Warm the process-wide table caches without touching the
            # artifact cache, so the doomed compile trips quickly.
            warm = client.compile(source, "poison.maya", cache=False)
            assert warm["status"] == "ok"
            # A 30ms stall pushes the compile past its 1ms deadline but
            # keeps the trip inside the handler's ~50ms grace window —
            # exactly the shape that used to store the bad response.
            faults.configure("worker.execute:hang:secs=0.03:times=1")
            first = client.compile(source, "poison.maya", deadline_ms=1)
            assert first["status"] == "deadline-exceeded"
            second = client.compile(source, "poison.maya",
                                    deadline_ms=30000)
            assert second["status"] == "ok"
        finally:
            server.stop()
            faults.reset()

    def test_engine_deadline_composes_with_compile(self):
        env = CompileEnv.fresh_session(deadline=time.monotonic() - 1)
        from repro import MayaCompiler

        with pytest.raises(DeadlineExceededError):
            MayaCompiler(env).compile(
                "class Slow { void f() { } }", "slow.maya")

    def test_fresh_session_budgets(self):
        env = CompileEnv.fresh_session(fuel=7, max_errors=3)
        assert env.diag.max_expansion_depth == 7
        assert env.diag.max_errors == 3
        assert env.diag.deadline is None


class TestClientRetry:
    def test_retries_overloaded_then_succeeds(self, monkeypatch):
        client = MayaClient("127.0.0.1:1", retries=4, backoff_s=0.001,
                            rng=random.Random(42))
        responses = [
            protocol.error_response(protocol.STATUS_OVERLOADED, "full",
                                    retry_after_ms=1),
            protocol.error_response(protocol.STATUS_OVERLOADED, "full",
                                    retry_after_ms=1),
            {"status": "ok"},
        ]
        calls = []
        monkeypatch.setattr(client, "_once",
                            lambda payload: calls.append(1) or
                            responses[len(calls) - 1])
        assert client.request("compile")["status"] == "ok"
        assert len(calls) == 3

    def test_gives_up_after_retry_budget(self, monkeypatch):
        client = MayaClient("127.0.0.1:1", retries=1, backoff_s=0.001,
                            rng=random.Random(42))
        monkeypatch.setattr(
            client, "_once",
            lambda payload: protocol.error_response(
                protocol.STATUS_OVERLOADED, "full"))
        response = client.request("compile")
        assert response["status"] == "overloaded"

    def test_connection_refused_raises_after_retries(self):
        # A port nothing listens on: every attempt fails fast.
        victim = socket.socket()
        victim.bind(("127.0.0.1", 0))
        port = victim.getsockname()[1]
        victim.close()
        client = MayaClient(f"127.0.0.1:{port}", retries=1,
                            backoff_s=0.001, rng=random.Random(42))
        with pytest.raises(DaemonError, match="unreachable after 2"):
            client.ping()

    def test_backoff_is_jittered_and_bounded(self):
        client = MayaClient("127.0.0.1:1", backoff_s=0.05,
                            backoff_cap_s=0.4, rng=random.Random(0))
        delays = [client._backoff(attempt, None)
                  for attempt in range(8)]
        assert all(0 < d <= 0.4 for d in delays)
        assert len(set(delays)) == len(delays)  # jitter varies
        hinted = client._backoff(0, {"retry_after_ms": 200})
        assert hinted >= 0.2


class TestArtifactCache:
    """The daemon's artifact cache: a bounded :class:`LRUCache` of
    responses keyed by :func:`artifact_key`."""

    def test_recency_eviction_is_counted(self, monkeypatch):
        from repro.obs.metrics import CACHE_EVENTS

        monkeypatch.setattr(state, "ARTIFACT_CACHE_SIZE", 2)
        evictions = CACHE_EVENTS.labels("server.artifacts", "eviction")
        server = MayaDaemon(DaemonConfig(workers=1,
                                         prewarm=False)).start()
        try:
            client = MayaClient(server.address, retries=0)

            def compile_class(name):
                return client.compile(f"class {name} {{ }}", f"{name}.maya")

            before = evictions.value
            compile_class("A")
            compile_class("B")
            assert compile_class("A")["cached"] is True  # B is now oldest
            compile_class("C")
            assert evictions.value - before == 1
            assert len(server.artifacts) == 2
            assert compile_class("A")["cached"] is True
            assert "cached" not in compile_class("B")    # evicted
        finally:
            server.stop()

    def test_bounded_fifo_eviction(self):
        # With no lookups between stores, recency order is insertion
        # order: the first entry stored is the first evicted.
        cache = LRUCache(2, "server.artifacts")
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.put("c", {"v": 3})
        assert cache.get("a") is None
        assert cache.get("b")["v"] == 2 and cache.get("c")["v"] == 3
        assert len(cache) == 2

    def test_fifo_evictions_are_counted(self):
        from repro.obs.metrics import CACHE_EVENTS

        evictions = CACHE_EVENTS.labels("server.artifacts", "eviction")
        before = evictions.value
        cache = LRUCache(2, "server.artifacts")
        for key in "abcde":
            cache.put(key, {"v": key})
        cache.put("e", {"v": "again"})      # a resident key: no eviction
        assert evictions.value - before == 3
        assert cache.get("e") == {"v": "again"}

    def test_concurrent_publishes_never_lose_entries(self):
        cache = LRUCache(state.ARTIFACT_CACHE_SIZE * 4, "server.artifacts")

        def publish(base):
            for i in range(50):
                cache.put((base, i), {"v": i})

        threads = [threading.Thread(target=publish, args=(b,))
                   for b in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(cache) == 400
        assert all(cache.get((b, i)) == {"v": i}
                   for b in range(8) for i in range(50))

    def test_annotating_a_served_hit_leaves_the_entry_untouched(
            self, daemon, client):
        source = "class Hit { }"
        first = client.compile(source, "hit.maya")
        second = client.compile(source, "hit.maya")
        assert "cached" not in first and second["cached"] is True
        assert second["stats"]["cached"] is True
        entry = daemon.artifacts.get(artifact_key(source, "hit.maya", {}))
        assert not {"cached", "stats", "request_id", "trace_id"} & set(entry)
        third = client.compile(source, "hit.maya")
        # Each hit carries its own request's ids, not a cached one's.
        assert len({r["request_id"] for r in (first, second, third)}) == 3

    def test_artifact_key_sensitivity(self):
        base = artifact_key("class A { }", "a.maya", {})
        assert artifact_key("class A { }", "a.maya", {}) == base
        assert artifact_key("class B { }", "a.maya", {}) != base
        assert artifact_key("class A { }", "b.maya", {}) != base
        assert artifact_key("class A { }", "a.maya",
                            {"expand": True}) != base
        # A run's output and the backend that runs it are part of the
        # response.
        assert artifact_key("class A { }", "a.maya",
                            {"run": "Demo"}) != base
        assert artifact_key("class A { }", "a.maya",
                            {"backend": "walk"}) != base
        # Options that don't affect output don't fragment the cache.
        assert artifact_key("class A { }", "a.maya",
                            {"deadline_ms": 5}) == base
        assert artifact_key("class A { }", "a.maya",
                            {"cache": False}) == base
        assert artifact_key("class A { }", "a.maya",
                            {"trace_id": "0123456789abcdef"}) == base


class TestRequestObservability:
    """Request IDs, trace propagation, the stats op, and the
    slow-request log."""

    def test_every_response_carries_wellformed_ids(self, client):
        from repro.obs import log as obs_log

        responses = [
            client.compile("class A { }", "a.maya", cache=False),
            client.ping(),
            client.request("metrics"),
            client.request("nonsense-op"),
        ]
        for response in responses:
            assert obs_log.REQUEST_ID_RE.match(response["request_id"])
            assert obs_log.TRACE_ID_RE.match(response["trace_id"])
        # Request IDs are per-attempt unique.
        ids = [r["request_id"] for r in responses]
        assert len(set(ids)) == len(ids)

    def test_client_minted_trace_id_is_echoed(self, client):
        response = client.request(
            "compile", source="class A { }", filename="a.maya",
            options={"cache": False}, trace_id="t-00000000deadbeef")
        assert response["trace_id"] == "t-00000000deadbeef"
        # A malformed trace id is ignored (the daemon mints a fresh
        # well-formed one), never an error.
        from repro.obs import log as obs_log

        response = client.request(
            "compile", source="class A { }", filename="a.maya",
            options={"cache": False}, trace_id="not-a-trace")
        assert response["status"] == "ok"
        assert obs_log.TRACE_ID_RE.match(response["trace_id"])
        assert response["trace_id"] != "not-a-trace"

    def test_artifact_hit_gets_fresh_ids_and_hit_outcome(self, client):
        first = client.compile("class Hit { }", "hit.maya")
        second = client.compile("class Hit { }", "hit.maya")
        assert second["stats"]["cached"] is True
        assert second["request_id"] != first["request_id"]
        assert second["trace_id"] != first["trace_id"]
        assert second["stats"]["outcomes"]["artifact"] == "hit"
        assert first["stats"]["outcomes"]["artifact"] == "miss"

    def test_response_stats_carry_phases(self, client):
        response = client.compile("class P { int f() { return 1; } }",
                                  "p.maya", cache=False)
        phases = response["stats"]["phases"]
        assert "lex" in phases and "parse+expand" in phases
        assert all(isinstance(v, float) for v in phases.values())

    def test_stats_op_snapshot(self, client):
        client.compile("class S { }", "s.maya", cache=False)
        client.compile("class S { }", "s2.maya", cache=False)
        stats = client.stats()
        assert stats["status"] == "ok"
        workers = stats["workers"]
        assert workers["live"] == 2 and workers["zombies"] == 0
        assert stats["queue"]["capacity"] == 8
        latency = stats["latency_ms"]
        assert latency["window"] >= 2
        assert latency["p50"] > 0 and latency["p99"] >= latency["p50"]
        assert stats["requests"]["compile"]["ok"] >= 2
        assert "lalr.tables" in stats["caches"]
        assert stats["log"]["emitted"] > 0

    def test_stats_caches_match_the_profile_reader(self, client):
        from repro.obs import profile as obs_profile

        for _ in range(2):              # an artifact miss, then a hit
            client.compile("class R { }", "r.maya")
        caches = client.stats()["caches"]
        reader = obs_profile.hit_rates()
        assert set(caches) == set(reader)
        for name, events in reader.items():
            if "hit_ratio" in events:
                events = dict(events,
                              hit_ratio=round(events["hit_ratio"], 4))
            assert caches[name] == events, name
        assert caches["server.artifacts"]["hit"] >= 1
        text = "\n".join(obs_profile._hit_rate_lines(
            "cache hit rates:", "maya_cache_events_total", (None, "")))
        artifacts = caches["server.artifacts"]
        assert (f"{artifacts['hit']:>8} hits {artifacts['miss']:>6} misses"
                f"  {reader['server.artifacts']['hit_ratio']:6.1%}") in text

    def test_stats_op_flushes_metrics_out_live(self, tmp_path):
        out = tmp_path / "live-metrics.json"
        server = MayaDaemon(DaemonConfig(
            workers=1, queue_size=4, prewarm=False,
            metrics_out=str(out))).start()
        try:
            client = MayaClient(server.address, retries=0)
            client.compile("class L { }", "l.maya", cache=False)
            stats = client.stats()
            # The daemon is still running, and the snapshot is on disk.
            assert server.running
            assert stats["metrics_out"] == str(out)
            snapshot = json.loads(out.read_text(encoding="utf-8"))
            assert "maya_server_requests_total" in json.dumps(snapshot)
        finally:
            server.stop()

    def test_slow_request_log_captures_breakdown(self):
        server = MayaDaemon(DaemonConfig(
            workers=1, queue_size=4, prewarm=False,
            slow_request_ms=0.0)).start()  # everything is "slow"
        try:
            client = MayaClient(server.address, retries=0)
            response = client.compile("class Slow { }", "slow.maya",
                                      cache=False)
            stats = client.stats()
            slow = stats["slow_requests"]
            assert slow, "slow-request log is empty at threshold 0"
            entry = slow[-1]
            assert entry["request_id"] == response["request_id"]
            assert entry["total_ms"] > 0
            # Per-request tracing is on by default, so the entry has a
            # span-tree breakdown with the compile phases in it.
            kinds = {span["kind"] for span in entry["breakdown"]}
            assert "compile" in kinds and "phase" in kinds
            assert all("dur_ms" in span and "depth" in span
                       for span in entry["breakdown"])
        finally:
            server.stop()

    def test_phases_are_the_breakdown_self_times(self):
        # A cold request generates tables.  Generation is its own phase,
        # in stats.phases and in the breakdown, and the phases are the
        # breakdown's self times: they add up to no more than the
        # compile, where summed inclusive times counted generation twice.
        from repro.lalr import tables as lalr_tables

        server = MayaDaemon(DaemonConfig(
            workers=1, queue_size=4, prewarm=False,
            slow_request_ms=0.0)).start()
        try:
            lalr_tables.table_cache_clear()
            with lalr_tables.disk_cache_at(None):
                client = MayaClient(server.address, retries=0)
                response = client.compile("class Cold { }", "cold.maya",
                                          cache=False)
            stats = response["stats"]
            phases = stats["phases"]
            entry = client.stats()["slow_requests"][-1]
            breakdown = entry["breakdown"]
            assert entry["request_id"] == response["request_id"]
            assert "lalr.generate" in phases
            assert any(span["kind"] == "phase"
                       and span["name"] == "lalr.generate"
                       for span in breakdown)
            summed = {}
            for span in breakdown:
                if span["kind"] == "phase":
                    summed[span["name"]] = \
                        summed.get(span["name"], 0.0) + span["self_ms"]
            assert phases.keys() == summed.keys()
            for name, value in phases.items():
                assert value == pytest.approx(summed[name], abs=0.01)
            assert entry["phases"] == phases
            assert sum(phases.values()) <= stats["compile_ms"]
        finally:
            server.stop()

    def test_per_request_tracing_leaves_global_tracer_alone(self, client):
        from repro import trace

        assert trace.active is None
        client.compile("class T { }", "t.maya", cache=False)
        assert trace.active is None

    def test_module_outcomes_in_response_stats(self, tmp_path):
        sources = {
            "lib.A": "class A { static int one() { return 1; } }",
            "app.B": "import lib.A; class B { }",
        }
        server = MayaDaemon(DaemonConfig(
            workers=2, queue_size=8, prewarm=False,
            module_cache_dir=str(tmp_path))).start()
        try:
            client = MayaClient(server.address, retries=0)
            first = client.compile_modules(sources, ["app.B"],
                                           cache=False)
            assert first["status"] == "ok"
            assert first["stats"]["outcomes"]["modules_recompiled"] == 2
            second = client.compile_modules(sources, ["app.B"],
                                            cache=False)
            assert second["stats"]["outcomes"]["modules_reused"] == 2
        finally:
            server.stop()


class TestLiveIntrospection:
    """mayac --daemon-status and server.top against a running daemon."""

    def test_daemon_status_renders_live_stats(self, client, daemon, capsys):
        from repro import mayac

        for i in range(3):
            assert client.compile(FOREACH_TEMPLATE % i,
                                  f"live{i}.maya",
                                  cache=False)["status"] == "ok"
        assert mayac.main(["--daemon", daemon.address,
                           "--daemon-status"]) == 0
        out = capsys.readouterr().out
        assert "mayad" in out
        assert "queue" in out
        # Nonzero latency stats: the window must reflect the three
        # compiles above, and the queue capacity the config.
        assert "window=3" in out
        assert "/8" in out

    def test_daemon_status_requires_daemon_flag(self, capsys):
        from repro import mayac

        assert mayac.main(["--daemon-status"]) == 2
        assert "--daemon" in capsys.readouterr().err

    def test_top_once_renders_same_view(self, client, daemon, capsys):
        from repro.server import top

        assert client.compile("class TopT { }", "top.maya",
                              cache=False)["status"] == "ok"
        assert top.main(["--address", daemon.address,
                        "--once"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out
        assert "p95" in out


@pytest.mark.parametrize("attempt", range(5))
def test_sigint_right_after_the_port_file_stops_cleanly(tmp_path, attempt):
    """mayad's signal handlers are in place before ``--port-file``
    appears: a SIGINT sent the moment it holds a line drains and exits
    0, never a KeyboardInterrupt traceback."""
    root = pathlib.Path(__file__).resolve().parent.parent
    port_file = tmp_path / "port"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--no-prewarm", "--port-file", str(port_file)],
        env=dict(os.environ, PYTHONPATH=str(root / "src"),
                 MAYA_CACHE_DIR=str(tmp_path / "store")),
        cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 60
        # No sleep: the signal should land as close to the write as
        # this process can manage.
        while not (port_file.exists()
                   and port_file.read_text().endswith("\n")):
            assert daemon.poll() is None, "mayad exited before serving"
            assert time.monotonic() < deadline, "mayad never served"
    finally:
        daemon.send_signal(signal.SIGINT)
        try:
            _, stderr = daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()
            pytest.fail("mayad did not stop on SIGINT")
    assert daemon.returncode == 0, stderr
    assert "Traceback" not in stderr
