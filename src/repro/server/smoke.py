"""The daemon smoke/fault drill CI runs.

    python -m repro.server.smoke --requests 50 [--scenario NAME]
                                 [--metrics-out FILE] [--log-out FILE]

Starts an in-process daemon on an ephemeral port, fires N concurrent
client compiles, optionally arms a fault scenario, and then *proves
the daemon survived*: a final ping plus a clean compile must succeed,
every response must be one of the scenario's expected statuses, and
every response and request-scoped log event must carry a well-formed
``request_id``/``trace_id``.  The metrics snapshot is flushed *live*
through the daemon's ``stats`` op (post-mortem only as a fallback when
the drill dies early), and ``--log-out`` keeps the structured event
log as a flight recorder CI can upload.  Exit 0 on success, 1 on any
unexpected outcome.

Scenarios (``--scenario``):

* ``none``          — plain load: every request must succeed;
* ``cache-corrupt`` — the on-disk table cache serves one corrupt
  entry; compiles must succeed anyway (quarantine + regenerate);
* ``worker-hang``   — one worker hangs; that request must come back
  ``deadline-exceeded`` and the pool must backfill;
* ``worker-crash``  — one worker crashes; the request must be
  re-run in degraded mode and *succeed*;
* ``modules``       — concurrent multi-file compile requests hammer
  the shared incremental module cache while one on-disk entry *and*
  one interface payload are served corrupt; every request must
  succeed anyway (quarantine + recompile).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import tempfile
import time

from repro import faults
from repro.lalr.tables import enable_disk_cache
from repro.obs import export as obs_export
from repro.obs import log as obs_log
from repro.obs.metrics import REGISTRY
from repro.server.client import MayaClient
from repro.server.daemon import DaemonConfig, MayaDaemon
from repro.server.protocol import STATUS_DEADLINE, STATUS_OK

SOURCE_TEMPLATE = """
    import java.util.*;
    class Demo%d {
        static void main() {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.addElement("smoke-%d");
            v.elements().foreach(String s) { System.out.println(s); }
        }
    }
"""

#: scenario -> (fault spec, statuses allowed beyond plain success,
#: per-request deadline in seconds).  The crash scenario's deadline
#: leaves room for the degraded re-run, which rebuilds LALR tables
#: from scratch (shared caches are deliberately bypassed).
SCENARIOS = {
    "none": ("", set(), 2.0),
    "cache-corrupt": ("cache.disk.load:corrupt:times=1", set(), 2.0),
    "worker-hang": ("worker.execute:hang:secs=5:times=1",
                    {STATUS_DEADLINE}, 2.0),
    "worker-crash": ("worker.execute:crash:times=1", set(), 15.0),
    "modules": ("cache.module.load:corrupt:times=1,"
                "cache.module.iface:corrupt:times=1", set(), 5.0),
}

#: The multi-file program the ``modules`` scenario compiles: a Mayan
#: ``use``d in lib.Util reaches app.Main over the import edge, and
#: every request after the first replays both modules from the shared
#: module cache (except the one that draws the corrupt entry).
MODULE_SOURCES = {
    "lib.Util": """
        use maya.util.ForEach;
        class Util {
            static void dump(String[] items) {
                items.foreach(String s) { System.out.println(s); }
            }
        }
    """,
    "app.Main": """
        import lib.Util;
        class Main {
            static void main() {
                String[] data = new String[1];
                data[0] = "smoke";
                Util.dump(data);
            }
        }
    """,
}


def run_drill(requests: int, scenario: str, workers: int = 4,
              metrics_out: str = None, log_out: str = None) -> int:
    spec, allowed, deadline_s = SCENARIOS[scenario]
    allowed = {STATUS_OK} | allowed
    faults.configure(spec)
    # cache-corrupt needs a disk cache to corrupt.
    cache_dir = tempfile.mkdtemp(prefix="mayad-smoke-")
    enable_disk_cache(cache_dir)

    daemon = MayaDaemon(DaemonConfig(
        workers=workers, queue_size=max(16, requests),
        default_deadline_s=deadline_s,
        module_cache_dir=os.path.join(cache_dir, "modules"),
        metrics_out=metrics_out, log_out=log_out)).start()
    if scenario == "cache-corrupt":
        # Prewarm just wrote good table entries to disk; flushing the
        # in-memory LRU forces the drill through the on-disk loader,
        # where the armed corruption waits.
        from repro.lalr.tables import table_cache_clear

        table_cache_clear()
    failures = []
    statuses = {}
    try:
        client = MayaClient(daemon.address, retries=6)
        started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(16, requests)) as pool:
            if scenario == "modules":
                futures = [
                    pool.submit(client.compile_modules,
                                MODULE_SOURCES, ["app.Main"],
                                expand=True, cache=False,
                                deadline_ms=int(deadline_s * 1000))
                    for i in range(requests)
                ]
            else:
                futures = [
                    pool.submit(client.compile,
                                SOURCE_TEMPLATE % (i, i),
                                filename=f"smoke{i}.maya", expand=True,
                                cache=False,
                                deadline_ms=int(deadline_s * 1000))
                    for i in range(requests)
                ]
            for i, future in enumerate(futures):
                response = future.result(timeout=60)
                status = str(response.get("status"))
                statuses[status] = statuses.get(status, 0) + 1
                if status not in allowed:
                    failures.append(f"request {i}: unexpected {status}: "
                                    f"{response}")
                # Every response — success, deadline, shed, whatever —
                # must name the request that produced it.
                request_id = response.get("request_id")
                if not (isinstance(request_id, str)
                        and obs_log.REQUEST_ID_RE.match(request_id)):
                    failures.append(f"request {i}: malformed request_id "
                                    f"{request_id!r} in {status} response")
                trace_id = response.get("trace_id")
                if not (isinstance(trace_id, str)
                        and obs_log.TRACE_ID_RE.match(trace_id)):
                    failures.append(f"request {i}: malformed trace_id "
                                    f"{trace_id!r} in {status} response")
        elapsed = time.perf_counter() - started

        # The daemon must still be serving, whatever was injected.
        ping = client.ping()
        if ping.get("status") != STATUS_OK:
            failures.append(f"post-drill ping failed: {ping}")
        check = client.compile("class Survivor { }",
                               filename="survivor.maya", cache=False)
        if check.get("status") != STATUS_OK:
            failures.append(f"post-drill compile failed: {check}")

        # Live introspection: the stats op answers from the *running*
        # daemon — and flushes --metrics-out as a side effect, so the
        # snapshot CI uploads reflects the live process, not a
        # post-mortem scrape.
        stats = client.stats()
        if stats.get("status") != STATUS_OK:
            failures.append(f"stats op failed: {stats}")
        latency = stats.get("latency_ms", {})
        if not latency.get("window"):
            failures.append("stats op reported an empty latency window "
                            "after a full drill")
        if metrics_out and not os.path.exists(metrics_out):
            failures.append("stats op did not flush --metrics-out from "
                            "the live daemon")

        # Every request-scoped lifecycle event in the log must be
        # well-formed too (the crash/deadline trail is only
        # reconstructible if the ids are trustworthy).
        for record in obs_log.LOG.records(name="server.request."):
            record_id = record.get("request_id")
            if not (isinstance(record_id, str)
                    and obs_log.REQUEST_ID_RE.match(record_id)):
                failures.append(f"log event {record.get('name')} has "
                                f"malformed request_id {record_id!r}")
                break

        print(f"smoke[{scenario}]: {requests} requests in "
              f"{elapsed:.2f}s ({requests / elapsed:.1f}/s), "
              f"statuses={statuses}, workers={ping.get('workers')}, "
              f"p95={latency.get('p95', 0):.0f}ms, "
              f"log_events={stats.get('log', {}).get('emitted', 0)}")
        if scenario == "worker-hang" \
                and statuses.get(STATUS_DEADLINE, 0) < 1:
            failures.append("worker-hang drill never hit a deadline")
        if faults.active_plan() and spec \
                and faults.active_plan().fired(spec.split(":")[0]) < 1:
            failures.append(f"fault {spec!r} never fired")
    finally:
        try:
            daemon.stop()
        finally:
            if metrics_out and not os.path.exists(metrics_out):
                # The live flush never happened (the drill died early):
                # still upload post-mortem evidence.
                with open(metrics_out, "w", encoding="utf-8") as out:
                    json.dump(obs_export.to_json(REGISTRY), out, indent=2)
                    out.write("\n")
            if log_out and not os.path.exists(log_out):
                with open(log_out, "w", encoding="utf-8") as out:
                    out.write(obs_log.LOG.to_jsonl())
            faults.reset()

    for failure in failures:
        print(f"smoke[{scenario}]: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"smoke[{scenario}]: OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.server.smoke",
        description="Concurrent-load + fault-injection drill for mayad.")
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="none")
    parser.add_argument("--metrics-out", metavar="FILE")
    parser.add_argument("--log-out", metavar="FILE",
                        help="mirror the daemon's structured event log "
                             "to FILE as JSONL (CI uploads it on "
                             "failure)")
    args = parser.parse_args(argv)
    return run_drill(args.requests, args.scenario, args.workers,
                     args.metrics_out, args.log_out)


if __name__ == "__main__":
    sys.exit(main())
