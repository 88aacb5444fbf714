"""maya-top: a live terminal view of one running mayad.

    python -m repro.server.top --address HOST:PORT [--interval S]

Polls the daemon's ``stats`` op and renders the snapshot the way
``top`` renders a process table: uptime, worker states, queue
occupancy, rolling latency percentiles, degradation counters, cache
hit ratios, and the tail of the slow-request log.  The same renderer
backs ``mayac --daemon-status`` (one-shot, no screen clearing).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.server.client import DEFAULT_PORT, DaemonError, MayaClient


def _bar(used: int, total: int, width: int = 20) -> str:
    total = max(total, 1)
    filled = min(width, round(width * used / total))
    return "[" + "#" * filled + "." * (width - filled) + f"] {used}/{total}"


def render_stats(stats: dict) -> str:
    """One ``stats`` response as human-readable text."""
    lines: List[str] = []
    uptime = float(stats.get("uptime_s", 0.0))
    lines.append(f"mayad {stats.get('address', '?')}  "
                 f"up {uptime:.1f}s  protocol {stats.get('protocol')}")

    workers = stats.get("workers", {})
    lines.append(
        f"workers  {_bar(int(workers.get('busy', 0)), int(workers.get('live', 1)))} busy"
        f"  zombies={workers.get('zombies', 0)}"
        f"  replaced={workers.get('replaced_total', 0)}")
    queue = stats.get("queue", {})
    lines.append(
        f"queue    {_bar(int(queue.get('depth', 0)), int(queue.get('capacity', 1)))} deep")

    latency = stats.get("latency_ms", {})
    lines.append(
        f"latency  p50={latency.get('p50', 0.0):.1f}ms"
        f"  p95={latency.get('p95', 0.0):.1f}ms"
        f"  p99={latency.get('p99', 0.0):.1f}ms"
        f"  (window={latency.get('window', 0)})")

    degradations = stats.get("degradations", {})
    crashes = degradations.get("crashes", {})
    lines.append(
        f"degrade  shed={degradations.get('shed_total', 0)}"
        f"  deadline={degradations.get('deadline_total', 0)}"
        f"  crashes={sum(crashes.values()) if crashes else 0}"
        f"{' (' + ', '.join(f'{k}={v}' for k, v in sorted(crashes.items())) + ')' if crashes else ''}"
        f"  disconnects={degradations.get('disconnects_total', 0)}")

    requests = stats.get("requests", {})
    if requests:
        parts = []
        for op in sorted(requests):
            total = sum(requests[op].values())
            parts.append(f"{op}={int(total)}")
        lines.append("requests " + "  ".join(parts))

    modules = stats.get("modules", {})
    if modules.get("compiled_total") or modules.get("reused_total"):
        compiled = int(modules.get("compiled_total", 0))
        reused = int(modules.get("reused_total", 0))
        ratio = reused / max(compiled + reused, 1)
        lines.append(f"modules  compiled={compiled}  reused={reused}"
                     f"  reuse-ratio={ratio:.1%}")

    caches = stats.get("caches", {})
    cache_parts = []
    for name in sorted(caches):
        ratio = caches[name].get("hit_ratio")
        if ratio is not None:
            cache_parts.append(f"{name}={ratio:.0%}")
    if cache_parts:
        lines.append("caches   " + "  ".join(cache_parts))

    log = stats.get("log", {})
    if log:
        lines.append(f"log      level={log.get('level')}"
                     f"  emitted={log.get('emitted', 0)}"
                     f"  buffered={log.get('buffered', 0)}")

    faults_spec = stats.get("faults")
    if faults_spec:
        lines.append(f"faults   {faults_spec}")

    slow = stats.get("slow_requests", [])
    if slow:
        lines.append(f"slow requests (>{stats.get('slow_request_ms', 0):.0f}ms,"
                     f" last {len(slow)}):")
        for entry in slow[-5:]:
            phases = entry.get("phases", {})
            top_phase = max(phases.items(), key=lambda kv: kv[1])[0] \
                if phases else "?"
            lines.append(
                f"  {entry.get('request_id')}  {entry.get('total_ms', 0):.0f}ms"
                f"  {entry.get('status')}  {entry.get('filename', '')}"
                f"  hottest={top_phase}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maya-top", description="Watch a running mayad.")
    parser.add_argument("--address", default=f"127.0.0.1:{DEFAULT_PORT}",
                        help="daemon address (host:port or socket path)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="S", help="refresh period (default 2s)")
    parser.add_argument("--iterations", type=int, default=0, metavar="N",
                        help="stop after N refreshes (0 = forever)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (no clearing)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    client = MayaClient(args.address, retries=0, timeout_s=5.0)
    count = 0
    while True:
        try:
            stats = client.stats()
        except DaemonError as error:
            print(f"maya-top: {error}", file=sys.stderr)
            return 1
        text = render_stats(stats)
        if args.once:
            print(text)
            return 0
        # ANSI clear + home, like watch(1); fall back to a separator
        # when stdout is not a terminal.
        if sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        else:
            sys.stdout.write("\n---\n")
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
        count += 1
        if args.iterations and count >= args.iterations:
            return 0
        time.sleep(max(0.1, args.interval))


if __name__ == "__main__":
    sys.exit(main())
