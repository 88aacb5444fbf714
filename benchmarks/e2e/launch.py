"""Run ``mayac`` or ``mayad`` with layer timing installed.

    python launch.py --dump FILE --spawned T mayac [mayac args...]
    python launch.py --dump FILE --spawned T mayad [mayad args...]

``T`` is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by every process on the host,
so the launcher can report how long interpreter start-up took.  The
launcher times ``import`` of the entry module, installs the
:mod:`layers` wrappers, and calls the entry point's ``main`` -- the
same function ``python -m repro.mayac`` or ``python -m repro.server``
calls.

The totals are written to ``--dump`` as JSON when ``main`` returns,
and also whenever the process receives SIGUSR2, so the parent can
subtract what a long-lived daemon did before the measurement began.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402  (the clock above must run first)
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from layers import MAYAC_TARGETS, TARGETS, LayerClock, registry_counts  # noqa: E402

ENTRY_MODULES = {"mayac": "repro.mayac", "mayad": "repro.server.__main__"}


def dump(path: str, clock: LayerClock, times: dict) -> None:
    record = dict(times, layers=clock.totals(), absent=clock.absent,
                  registry=registry_counts(), at=time.monotonic())
    partial = f"{path}.tmp"
    with open(partial, "w", encoding="utf-8") as out:
        json.dump(record, out)
    os.replace(partial, path)


def main() -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--dump", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("tool", choices=sorted(ENTRY_MODULES))
    parser.add_argument("tool_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import_started = time.monotonic()
    import importlib

    entry = importlib.import_module(ENTRY_MODULES[args.tool])
    times = {"startup_s": STARTED - args.spawned,
             "import_s": time.monotonic() - import_started}

    clock = LayerClock()
    clock.install(TARGETS + (MAYAC_TARGETS if args.tool == "mayac" else ()))
    signal.signal(signal.SIGUSR2,
                  lambda _signum, _frame: dump(args.dump, clock, times))
    try:
        return clock.timed(entry.main, "process.main")(args.tool_args)
    finally:
        dump(args.dump, clock, times)


if __name__ == "__main__":
    sys.exit(main())
