"""The compile service's reason to exist, measured: a warm mayad
answering repeated compiles versus compiling from nothing.

The baseline is an in-process compile with every table cache bypassed:
per compile, a new compiler and macro library, and LALR tables
generated from scratch.  That is what a ``mayac`` process with no table
store pays (``--no-cache``, or a first run on an empty store), and not
what a default cold ``mayac`` pays: that one restores its tables from
the default-on store.  The metric keeps its historical name,
``server_cold_mayac_ms``.  The warm path sends the same corpus through
a prewarmed daemon over real sockets, with the content-addressed
artifact cache *disabled*, so the speedup measures shared grammar/table
state, not response replay.  The acceptance bar (warm ≥ 5x the
baseline) is asserted here and the throughput number is gated by
``compare.py``'s ``*_requests_per_s`` rule.
"""

import statistics
import time

from conftest import record_metric, report

from repro.lalr.tables import bypass_caches
from repro.server import DaemonConfig, MayaClient, MayaDaemon

WARM_REQUESTS = 60
COLD_COMPILES = 3


def corpus_source(index: int) -> str:
    return f"""
        import java.util.*;
        class Bench{index} {{
            static void main() {{
                use maya.util.ForEach;
                Vector v = new Vector();
                v.addElement("r{index}");
                v.elements().foreach(String s) {{
                    System.out.println(s);
                }}
            }}
        }}
    """


def cold_compile_ms(index: int) -> float:
    """One compile from nothing, in process: fresh compiler, macro
    library, and LALR tables generated with every table cache
    bypassed (what a ``mayac`` without a table store pays)."""
    from repro import MayaCompiler
    from repro.macros import install_macro_library

    started = time.perf_counter()
    with bypass_caches():
        compiler = MayaCompiler()
        install_macro_library(compiler)
        compiler.compile(corpus_source(index), f"cold{index}.maya")
    return (time.perf_counter() - started) * 1000.0


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(len(ordered) * fraction))]


def test_warm_daemon_vs_cold_mayac():
    cold_ms = [cold_compile_ms(i) for i in range(COLD_COMPILES)]
    cold = statistics.mean(cold_ms)

    server = MayaDaemon(DaemonConfig(workers=2, prewarm=True)).start()
    try:
        client = MayaClient(server.address, retries=0)
        warm_ms = []
        for index in range(WARM_REQUESTS):
            started = time.perf_counter()
            response = client.compile(corpus_source(index),
                                      f"warm{index}.maya", cache=False)
            warm_ms.append((time.perf_counter() - started) * 1000.0)
            assert response["status"] == "ok"
    finally:
        server.stop()

    p50 = percentile(warm_ms, 0.50)
    p99 = percentile(warm_ms, 0.99)
    mean = statistics.mean(warm_ms)
    requests_per_s = 1000.0 / mean
    speedup = cold / mean

    report("Warm mayad vs a compile with table caches bypassed", [
        ["in-process compile, table caches bypassed (mean of "
         f"{COLD_COMPILES})", f"{cold:.1f} ms"],
        ["warm daemon request (mean of "
         f"{WARM_REQUESTS})", f"{mean:.2f} ms"],
        ["warm p50 / p99", f"{p50:.2f} / {p99:.2f} ms"],
        ["warm throughput", f"{requests_per_s:.0f} requests/s"],
        ["speedup", f"{speedup:.0f}x"],
    ])
    record_metric("server_cold_mayac_ms", round(cold, 2), "ms")
    record_metric("server_warm_p50_ms", round(p50, 3), "ms")
    record_metric("server_warm_p99_ms", round(p99, 3), "ms")
    record_metric("server_warm_requests_per_s",
                  round(requests_per_s, 1), "requests/s")
    record_metric("server_warm_speedup", round(speedup, 1), "x")

    # The acceptance bar: a warm daemon must beat the cache-bypassed
    # compile 5x over.
    assert speedup >= 5.0, (
        f"warm daemon only {speedup:.1f}x faster than a compile with "
        f"table caches bypassed")


def test_artifact_cache_replay_is_near_instant():
    """With caching on, repeating a request skips the queue entirely."""
    server = MayaDaemon(DaemonConfig(workers=2, prewarm=True)).start()
    try:
        client = MayaClient(server.address, retries=0)
        source = corpus_source(0)
        first = client.compile(source, "replay.maya", expand=True)
        assert first["status"] == "ok"
        replay_ms = []
        for _ in range(20):
            started = time.perf_counter()
            response = client.compile(source, "replay.maya",
                                      expand=True)
            replay_ms.append((time.perf_counter() - started) * 1000.0)
            assert response["cached"] is True
    finally:
        server.stop()
    p50 = percentile(replay_ms, 0.50)
    report("Artifact-cache replay", [
        ["replay p50 (socket round-trip)", f"{p50:.2f} ms"],
    ])
    record_metric("server_replay_p50_ms", round(p50, 3), "ms")
