"""The compile service's reason to exist, measured: a warm mayad
answering repeated compiles versus compiling from nothing.

The slow leg is an in-process compile with every table cache bypassed:
per compile, a new compiler and macro library, and LALR tables
generated from scratch.  That is what a ``mayac`` process with no table
store pays (``--no-cache``, or a first run on an empty store), and not
what a default cold ``mayac`` pays: that one restores its tables from
the default-on store.  The fast leg sends the same corpus through a
prewarmed daemon over real sockets, with the content-addressed
artifact cache *disabled*, so the speedup measures shared grammar/table
state, not response replay.  Bar: warm ≥ 5x.  Warm latency and
throughput under load are ``daemon_mix``'s (``BENCHMARK.json``).
"""

import itertools

from conftest import make_compiler, paired, report

from repro.lalr.tables import bypass_caches
from repro.server import DaemonConfig, MayaClient, MayaDaemon

#: Warm requests per cache-bypassed compile.
WARM_BATCH = 20


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


def cold_compile(index: int):
    """One compile from nothing, in process: fresh compiler, macro
    library, and LALR tables generated with every table cache
    bypassed (what a ``mayac`` without a table store pays)."""
    with bypass_caches():
        return make_compiler(macros=True).compile(corpus_source(index),
                                                  f"cold{index}.maya")


def test_warm_daemon_vs_cold_mayac():
    server = MayaDaemon(DaemonConfig(workers=2, prewarm=True)).start()
    requests = itertools.count()
    try:
        client = MayaClient(server.address, retries=0)

        def warm(_):
            index = next(requests)
            response = client.compile(corpus_source(index),
                                      f"warm{index}.maya", cache=False)
            assert response["status"] == "ok"

        measured = paired(cold_compile, warm, batch=WARM_BATCH)
    finally:
        server.stop()

    report("Warm mayad vs a compile with table caches bypassed", [
        ["in-process compile, table caches bypassed",
         f"{measured.slow_ms:.1f} ms"],
        [f"warm daemon request (mean of {WARM_BATCH} a pair)",
         f"{measured.fast_ms:.2f} ms"],
        ["speedup", f"{measured.ratio:.0f}x", "bar: >= 5x"],
    ])
    assert measured.ratio >= 5.0, (
        f"warm daemon only {measured.ratio:.1f}x faster than a compile "
        f"with table caches bypassed")
