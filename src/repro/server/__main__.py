"""mayad: run the compile daemon from the command line.

    python -m repro.server [options]

Options:
    --host HOST        bind address (default 127.0.0.1)
    --port PORT        TCP port (default 7463; 0 = ephemeral)
    --socket PATH      serve on a Unix socket instead of TCP
    --workers N        worker threads (default 4)
    --queue-size N     admission-control queue bound (default 16)
    --deadline S       default per-request deadline seconds (default 30)
    --max-deadline S   hard cap on client-requested deadlines
    --no-prewarm       skip warming the base/macro grammar tables
    --table-cache DIR  keep the persistent LALR table store under DIR
                       (default: MAYA_CACHE_DIR, else
                       $XDG_CACHE_HOME/maya, else ~/.cache/maya)
    --no-cache         neither read nor write the persistent table store
    --port-file FILE   write the bound address to FILE once serving
                       (for scripts using --port 0)
    --metrics-out FILE JSON metrics snapshot target: written on
                       shutdown, and *live* on SIGUSR1 or any `stats`
                       op (``mayac --daemon-status`` refreshes it)
    --log-out FILE     mirror the structured event log to FILE as JSONL
                       (a flight recorder; same schema as --trace-out)
    --log-level LEVEL  event-log threshold (debug/info/warn/error)
    --slow-ms MS       slow-request log threshold (default 1000)

The daemon serves until SIGINT/SIGTERM, then drains and exits 0.
SIGUSR1 flushes a fresh metrics snapshot to --metrics-out without
stopping anything.  Fault injection for drills: set MAYA_FAULTS (see
repro.faults).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.obs import log as obs_log
from repro.server.client import DEFAULT_PORT
from repro.server.daemon import DaemonConfig, MayaDaemon


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mayad", description="Run the Maya compile daemon.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--socket", metavar="PATH", default=None)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-size", type=int, default=16)
    parser.add_argument("--deadline", type=float, default=30.0,
                        metavar="S")
    parser.add_argument("--max-deadline", type=float, default=120.0,
                        metavar="S")
    parser.add_argument("--no-prewarm", action="store_true")
    store = parser.add_mutually_exclusive_group()
    store.add_argument("--table-cache", metavar="DIR")
    store.add_argument("--no-cache", action="store_true")
    parser.add_argument("--port-file", metavar="FILE")
    parser.add_argument("--metrics-out", metavar="FILE")
    parser.add_argument("--log-out", metavar="FILE")
    parser.add_argument("--log-level", choices=sorted(obs_log.LEVELS),
                        default=None)
    parser.add_argument("--slow-ms", type=float, default=1000.0,
                        metavar="MS")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.table_cache or args.no_cache:
        from repro.lalr.tables import enable_disk_cache

        enable_disk_cache(None if args.no_cache else args.table_cache)
    config = DaemonConfig(
        host=args.host, port=args.port, socket_path=args.socket,
        workers=args.workers, queue_size=args.queue_size,
        default_deadline_s=args.deadline,
        max_deadline_s=args.max_deadline, prewarm=not args.no_prewarm,
        slow_request_ms=args.slow_ms,
        metrics_out=args.metrics_out,
        log_out=args.log_out, log_level=args.log_level)
    daemon = MayaDaemon(config)
    # Before --port-file appears: a client may signal at once.
    stop = threading.Event()

    def _signalled(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, _signalled)
    signal.signal(signal.SIGTERM, _signalled)
    if hasattr(signal, "SIGUSR1"):
        # Live introspection without a client: kill -USR1 flushes the
        # current metrics to --metrics-out (a no-op when unset).
        def _flush(_signum, _frame):
            daemon.flush_metrics()

        signal.signal(signal.SIGUSR1, _flush)
    try:
        daemon.start()
    except OSError as error:
        print(f"mayad: cannot bind {args.socket or args.port}: {error}",
              file=sys.stderr)
        return 1
    print(f"mayad: serving on {daemon.address} "
          f"(workers={config.workers}, queue={config.queue_size}, "
          f"prewarm={daemon.prewarm_s * 1000:.0f}ms)", file=sys.stderr)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as out:
            out.write(daemon.address + "\n")
    # Wake on a signal or on a client-initiated shutdown op.
    while not stop.is_set() and daemon.running:
        stop.wait(0.5)
    print("mayad: draining and stopping", file=sys.stderr)
    daemon.stop()
    daemon.flush_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
