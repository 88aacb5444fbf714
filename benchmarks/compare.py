"""The perf-regression gate: diff fresh BENCH_*.json against baselines.

Every benchmark run writes machine-readable numbers into
``BENCH_<area>.json`` (see conftest.report / conftest.record_metric);
the committed copies at the repository root are the baselines.  CI
snapshots those baselines, re-runs the benchmarks, then calls::

    python benchmarks/compare.py --baseline ci-baselines --current .

which exits non-zero if any tracked metric regressed beyond its
tolerance.  Tolerances are deliberately loose (shared CI runners are
noisy); ``--tolerance-scale`` loosens or tightens them uniformly, so a
flaky runner can run with ``--tolerance-scale 2`` without editing the
per-metric rules.

What counts as a regression:

* timing metrics (unit ``ms``/``us``/``s``) are lower-is-better;
* ratio metrics matched by name (``overhead_ratio*``,
  ``fingerprint_size_ratio``) are lower-is-better — they measure
  overhead, and ``fingerprint_size_ratio`` growing past ~1 would mean
  grammar fingerprinting stopped being O(1);
* laziness percentages (``*never_forced_pct``, ``*never_parsed_pct``)
  are higher-is-better — a drop means the compiler started eagerly
  parsing work it used to skip;
* backend speedups (``*_speedup``), dispatch throughput
  (``*_calls_per_s``) and inline-cache hit rates (``*_hit_rate_pct``)
  are higher-is-better — a drop means a fast path's payoff (e.g. the
  pycode backend over the walker) shrank;
* a metric present in the baseline but missing from the fresh run is a
  regression too (the benchmark lost coverage);
* anything else (counts, unclassified units) is reported as
  informational but never fails the gate.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: (name glob, direction, relative tolerance).  First match wins;
#: checked before the unit-based default so names can override units.
NAME_RULES: Tuple[Tuple[str, str, float], ...] = (
    ("*never_forced*", "higher", 0.25),
    ("*never_parsed*", "higher", 0.25),
    ("overhead_ratio*", "lower", 0.50),
    ("fingerprint_size_ratio", "lower", 0.60),
    # Speedup ratios, e.g. pycode_*_speedup (walk ms / pycode ms) — a
    # drop means the generated code stopped paying off.
    ("*_speedup", "higher", 0.35),
    ("*_calls_per_s", "higher", 0.50),
    # Warm-daemon throughput — a drop means the compile service's
    # shared caches stopped paying off.
    ("*_requests_per_s", "higher", 0.50),
    ("*_hit_rate_pct", "higher", 0.05),
)

#: unit -> (direction, relative tolerance) when no name rule matches.
UNIT_RULES: Dict[str, Tuple[str, float]] = {
    "ms": ("lower", 0.60),
    "us": ("lower", 0.60),
    "s": ("lower", 0.60),
}


def classify(name: str, unit: str) -> Optional[Tuple[str, float]]:
    """(direction, tolerance) for a metric, or None for info-only."""
    for pattern, direction, tolerance in NAME_RULES:
        if fnmatch.fnmatch(name, pattern):
            return direction, tolerance
    return UNIT_RULES.get(unit)


def load_metrics(path: Path) -> Dict[str, Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle).get("metrics", {})


def compare_metric(area: str, name: str, base: Dict[str, object],
                   fresh: Optional[Dict[str, object]],
                   scale: float) -> Dict[str, object]:
    """One comparison row.  status: ok | info | regression."""
    unit = str(base.get("unit", ""))
    row: Dict[str, object] = {
        "area": area,
        "metric": name,
        "unit": unit,
        "baseline": base.get("value"),
    }
    if fresh is None:
        row.update(status="regression",
                   detail="metric missing from fresh run")
        return row
    row["current"] = fresh.get("value")
    try:
        old = float(base["value"])
        new = float(row["current"])
    except (TypeError, ValueError, KeyError):
        row.update(status="info", detail="non-numeric")
        return row

    change = (new - old) / old if old else 0.0
    row["change"] = round(change, 4)
    rule = classify(name, unit)
    if rule is None:
        row.update(status="info", detail="untracked unit")
        return row
    direction, tolerance = rule
    tolerance *= scale
    row["direction"] = direction
    row["tolerance"] = round(tolerance, 4)
    worse = change if direction == "lower" else -change
    if worse > tolerance:
        row.update(
            status="regression",
            detail=f"{'+' if change >= 0 else ''}{change:.0%} "
                   f"(allowed {'+' if direction == 'lower' else '-'}"
                   f"{tolerance:.0%})",
        )
    else:
        row["status"] = "ok"
    return row


def compare_dirs(baseline_dir: Path, current_dir: Path,
                 scale: float) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for base_path in sorted(baseline_dir.glob("BENCH_*.json")):
        area = base_path.stem[len("BENCH_"):]
        base_metrics = load_metrics(base_path)
        current_path = current_dir / base_path.name
        if not current_path.exists():
            if base_metrics:
                rows.append({
                    "area": area, "metric": "*",
                    "status": "regression",
                    "detail": f"{base_path.name} missing from fresh run",
                })
            continue
        fresh_metrics = load_metrics(current_path)
        for name, base in sorted(base_metrics.items()):
            rows.append(compare_metric(area, name, base,
                                       fresh_metrics.get(name), scale))
        for name, fresh in sorted(fresh_metrics.items()):
            if name not in base_metrics:
                rows.append({
                    "area": area, "metric": name,
                    "unit": str(fresh.get("unit", "")),
                    "current": fresh.get("value"),
                    "status": "info", "detail": "new metric (no baseline)",
                })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = ["== benchmark comparison =="]
    if not rows:
        lines.append("(no tracked metrics found)")
    for row in rows:
        mark = {"ok": " ok ", "info": "info", "regression": "FAIL"}[
            str(row["status"])]
        name = f"{row['area']}/{row['metric']}"
        base = row.get("baseline", "-")
        current = row.get("current", "-")
        unit = row.get("unit", "")
        change = row.get("change")
        delta = f"{change:+.1%}" if isinstance(change, float) else ""
        detail = row.get("detail", "")
        lines.append(
            f"[{mark}] {name:<42} {base!s:>10} -> {current!s:>10} "
            f"{unit:<3} {delta:>8}  {detail}"
        )
    regressions = sum(1 for r in rows if r["status"] == "regression")
    checked = sum(1 for r in rows if r["status"] in ("ok", "regression"))
    lines.append(f"{checked} metrics checked, {regressions} regression"
                 f"{'' if regressions == 1 else 's'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare",
        description="Compare fresh BENCH_*.json against committed baselines.",
    )
    parser.add_argument("--baseline", metavar="DIR", default=".",
                        help="directory with baseline BENCH_*.json "
                             "(default: repository root copies)")
    parser.add_argument("--current", metavar="DIR", default=".",
                        help="directory with freshly generated BENCH_*.json")
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        metavar="X",
                        help="multiply every tolerance by X (default 1.0; "
                             "use >1 on noisy runners)")
    parser.add_argument("--report", metavar="FILE",
                        help="also write the comparison as JSON to FILE")
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    current_dir = Path(args.current)
    if not baseline_dir.is_dir():
        print(f"compare: baseline directory not found: {baseline_dir}",
              file=sys.stderr)
        return 2
    if args.tolerance_scale <= 0:
        print("compare: --tolerance-scale must be positive", file=sys.stderr)
        return 2

    rows = compare_dirs(baseline_dir, current_dir, args.tolerance_scale)
    print(render(rows))
    if args.report:
        payload = {
            "schema": "maya.bench-compare/1",
            "tolerance_scale": args.tolerance_scale,
            "rows": rows,
            "regressions": sum(1 for r in rows
                               if r["status"] == "regression"),
        }
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2)
            out.write("\n")
    return 1 if any(r["status"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
