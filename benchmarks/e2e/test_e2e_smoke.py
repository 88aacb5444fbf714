"""Smoke check of the end-to-end benchmark: every workload, untraced
and traced, at smoke scale (``--seconds 1``: one set-up, one round).

Each run must exit 0, answer every op correctly, and end its output
with the result line carrying every metric ``BENCHMARK.json`` names
for that mode, with its unit.  Nothing here writes a ``BENCH_*.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in listed}
    assert "fail_pct" in proc.stdout


def test_run_outside_a_checkout_fails(tmp_path):
    """With only the benchmark's own files, there is nothing to build."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "run_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
