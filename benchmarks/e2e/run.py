"""The end-to-end benchmark: cold ``mayac``, a warm ``mayad``,
incremental module builds, and program runs.

    python3 benchmarks/e2e/run.py --workload W --seed N [--seconds S]
                                  [--trace 0|1] [--out FILE]
                                  [--baseline FILE]

Run it from the root of a checkout.  ``--workload all`` (the default)
runs every workload untraced and then traced, each in its own process.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics.  End-to-end times and
rates are scaled to a reference host speed by probes taken between ops
(see probe.py); the unscaled values are printed beside them and kept
in ``--out``.  Every metric is printed
by name with its unit, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out`` writes the full result (with percentiles, sample counts and
host details); ``--baseline`` compares this result with an earlier
``--out`` file.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: The percentile reported as ``op_tail_ms``: the highest one that has
#: at least ten samples beyond it at the default run length (27, 300,
#: 40 and 100 ops).
TAIL_PERCENTILE = {"cli_cold": 60, "daemon_mix": 95, "modules_edit": 75,
                   "run_hot": 90}
WORKLOAD_NAMES = tuple(TAIL_PERCENTILE)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length, which fixes the op count "
                             "(default: run_seconds from BENCHMARK.json; "
                             "under 5 is a smoke run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--baseline", metavar="FILE")
    return parser.parse_args(argv)


def host() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_used": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "commit": git_commit()}


def git_commit():
    """The checked-out commit (None outside a git repository)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(name: str, outcome, factor) -> tuple:
    """The end-to-end metrics of an untraced run, with every time
    multiplied and every rate divided by ``factor(moment)``; and the
    op walls in ms, scaled the same way."""
    from workloads import percentile

    walls_ms = [wall * factor(at) * 1000.0 for wall, at in outcome.walls]
    p50 = statistics.median(walls_ms)
    values = {
        "setup_s": statistics.median(
            seconds * factor(at) for seconds, at in outcome.setups),
        "op_p50_ms": p50,
        "op_tail_ms": percentile(walls_ms, TAIL_PERCENTILE[name]),
        "cpu_per_op_ms": sum(cpu * factor(at) for cpu, _, at in outcome.cpus)
        / sum(ops for _, ops, _ in outcome.cpus) * 1000.0,
        "peak_rss_mb": outcome.peak_rss_mb,
        # With one client in a closed loop, capacity is the rate of
        # the median op; only daemon_mix measures it separately.
        "capacity_rps": statistics.median(
            rate / factor(at) for rate, at in outcome.rates)
        if outcome.rates else 1000.0 / p50,
    }
    return values, walls_ms


def summarize(name: str, outcome, traced: bool, spec: dict) -> dict:
    """The result section of one run: the spec's metrics plus details."""
    from probe import REFERENCE_S
    from workloads import percentile

    details = {"setups_s": [seconds for seconds, _ in outcome.setups],
               "untraced_ops": len(outcome.walls),
               "traced_ops": len(outcome.traced_walls),
               "fail_pct": 100.0 * outcome.failed / max(outcome.attempted, 1),
               "late_p99_ms": percentile(outcome.gaps, 99) * 1000.0
               if outcome.gaps else 0.0}
    if not traced:
        values, walls_ms = end_to_end(name, outcome, outcome.speed.factor)
        details.update(
            tail_percentile=TAIL_PERCENTILE[name],
            beyond_tail=sum(1 for w in walls_ms if w > values["op_tail_ms"]),
            walls_ms=walls_ms,
            unscaled=end_to_end(name, outcome, lambda _at: 1.0)[0],
            probe_ms=outcome.speed.median_s() * 1000.0,
            reference_probe_ms=REFERENCE_S * 1000.0)
        listed = spec["end_to_end"]
    else:
        values = outcome.account.per_op()
        values["unattributed_pct"] = \
            100.0 * values["unattributed_ms"] / values["op_wall_ms"] \
            if values["op_wall_ms"] else 0.0
        # Each traced op against its untraced partner (the same work in
        # the same round), both scaled to the host's speed.
        factor = outcome.speed.factor
        values["trace.overhead_pct"] = 100.0 * (statistics.median(
            traced * factor(traced_at) / (untraced * factor(untraced_at))
            for (traced, traced_at), (untraced, untraced_at)
            in outcome.pairs) - 1.0)
        values["loadgen.late_p99_ms"] = details["late_p99_ms"]
        compiled = values.get("modules.compiled", 0.0)
        reused = values.get("modules.reused", 0.0)
        values["modules.recompiled"] = compiled
        values["modules.cache.hit_pct"] = \
            100.0 * reused / (reused + compiled) if reused + compiled else 0.0
        values["server.artifact_hit_pct"] = outcome.artifact_hit_pct
        details["layers"] = values
        details["breakdown_ms"] = {
            key: values[key] for key in outcome.account.ms}
        details["absent_targets"] = outcome.absent
        listed = spec["per_layer"]
    # A layer this workload never reaches reads 0.
    metrics = {metric["name"]: {"value": float(values.get(metric["name"],
                                                          0.0)),
                                "unit": metric["unit"]}
               for metric in listed}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics,
            "details": details}


def print_section(name: str, section: dict, traced: bool) -> None:
    details = section["details"]
    print(f"== {name} ({'traced' if traced else 'untraced'}): "
          f"{section['attempted']} ops, {section['failed']} failed, "
          f"correct={section['correct']}")
    print(f"  {'fail_pct':30} {details['fail_pct']:14.4f} %")
    for metric, entry in section["metrics"].items():
        print(f"  {metric:30} {entry['value']:14.4f} {entry['unit']}")
    if not traced:
        print(f"  op_tail_ms is p{details['tail_percentile']} of "
              f"{details['untraced_ops']} ops "
              f"({details['beyond_tail']} beyond it); unscaled setups "
              + ", ".join(f"{s:.3f}" for s in details["setups_s"]) + " s")
        print(f"  times scaled to a host-speed probe of "
              f"{details['reference_probe_ms']:.2f} ms (median here "
              f"{details['probe_ms']:.2f} ms); unscaled: "
              + ", ".join(f"{metric} {value:.4f}" for metric, value
                          in details["unscaled"].items()))
        return
    layers = details["layers"]
    shares = sorted(((value, key)
                     for key, value in details["breakdown_ms"].items()),
                    reverse=True)
    print(f"  op wall {layers['op_wall_ms']:.3f} ms = "
          f"{sum(v for v, _ in shares):.3f} ms in layers + "
          f"{layers['unattributed_ms']:.3f} ms unattributed; largest: "
          + ", ".join(f"{key} {value:.2f}" for value, key in shares[:4]))
    if details["absent_targets"]:
        print("  absent wrap targets: "
              + ", ".join(details["absent_targets"]))


def compare(result: dict, baseline: dict, spec: dict) -> None:
    """Print each metric's change against ``baseline`` beside its
    bound, and the three layers whose self time moved most."""
    print("== change against baseline "
          f"(commit {baseline['host'].get('commit')}, "
          f"seed {baseline['seed']})")
    for workload, sections in result["workloads"].items():
        old_sections = baseline["workloads"].get(workload, {})
        new = sections.get("end_to_end")
        old = old_sections.get("end_to_end")
        if new and old:
            for metric in spec["end_to_end"]:
                key = metric["name"]
                before = old["metrics"][key]["value"]
                after = new["metrics"][key]["value"]
                change = (after - before) / before if before else 0.0
                worse = change if metric["better"] == "lower" else -change
                verdict = "WORSE than bound" if worse > metric["bound"] \
                    else "within bound"
                print(f"  {workload:13} {key:14} {before:12.3f} -> "
                      f"{after:12.3f} {metric['unit']:6} "
                      f"{change * 100:+7.2f}% (bound "
                      f"{metric['bound'] * 100:.0f}%) {verdict}")
        new = sections.get("per_layer")
        old = old_sections.get("per_layer")
        if new and old:
            moves = sorted(
                ((new["metrics"][key]["value"] - entry["value"], key)
                 for key, entry in old["metrics"].items()
                 if key.endswith("self_ms") and key in new["metrics"]),
                key=lambda move: -abs(move[0]))
            print(f"  {workload:13} layers moved most: "
                  + ", ".join(f"{key} {delta:+.3f} ms"
                              for delta, key in moves[:3]))


def run_one(args, spec: dict, seconds: float) -> dict:
    """Run one workload in this process; returns its result section."""
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    sys.path.insert(0, str(ROOT / "src"))
    from probe import HostSpeed
    from workloads import ONE_CPU, WORKLOADS, isolate

    env = isolate(work / "env")
    for key in list(os.environ):
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    sys.dont_write_bytecode = False
    try:
        with HostSpeed() as speed:
            others = os.sched_getaffinity(0) - {speed.cpu}
            os.sched_setaffinity(
                0, others if args.workload not in ONE_CPU and others
                else {speed.cpu})
            outcome = WORKLOADS[args.workload](
                random.Random(args.seed), seconds, bool(args.trace), work,
                speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args.workload, outcome, bool(args.trace), spec)


def run_all(args, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    workloads = {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as parts:
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                out = Path(parts) / f"{workload}-{trace}.json"
                subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--out", str(out)], check=True, cwd=ROOT)
                part = json.loads(out.read_text())["workloads"][workload]
                workloads.setdefault(workload, {}).update(part)
    return workloads


def main(argv=None) -> int:
    # Unwind on SIGTERM too, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT} has no src/repro; run the benchmark from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if args.workload == "all":
        workloads = run_all(args, seconds)
    else:
        section = run_one(args, spec, seconds)
        print_section(args.workload, section, bool(args.trace))
        key = "per_layer" if args.trace else "end_to_end"
        workloads = {args.workload: {key: section}}
    result = {"host": host(), "seed": args.seed, "seconds": seconds,
              "workloads": workloads}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if args.baseline:
        compare(result, json.loads(Path(args.baseline).read_text()), spec)

    sections = [(workload, section) for workload, parts in workloads.items()
                for section in parts.values()]
    if args.workload == "all":
        metrics = {f"{workload}.{name}": entry
                   for workload, section in sections
                   for name, entry in section["metrics"].items()}
    else:
        metrics = sections[0][1]["metrics"]
    print(json.dumps({
        "correct": all(section["correct"] for _, section in sections),
        "attempted": sum(section["attempted"] for _, section in sections),
        "failed": sum(section["failed"] for _, section in sections),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
