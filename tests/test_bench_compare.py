"""The perf-regression gate (benchmarks/compare.py)."""

import importlib.util
import json
import pathlib

import pytest

_COMPARE_PATH = (pathlib.Path(__file__).parent.parent
                 / "benchmarks" / "compare.py")
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE_PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


BASELINE = {
    "metrics": {
        "parse_ms": {"unit": "ms", "value": 10.0},
        "lookup_us": {"unit": "us", "value": 0.5},
        "overhead_ratio_8_vs_0": {"unit": "x", "value": 2.5},
        "mj_never_forced_pct": {"unit": "%", "value": 40.0},
        "statements": {"unit": "", "value": 60},
    },
    "reports": {},
}


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    (baseline / "BENCH_demo.json").write_text(json.dumps(BASELINE))
    (current / "BENCH_demo.json").write_text(json.dumps(BASELINE))
    return baseline, current


def rewrite(current, **values):
    fresh = json.loads(json.dumps(BASELINE))
    for name, value in values.items():
        fresh["metrics"][name]["value"] = value
    (current / "BENCH_demo.json").write_text(json.dumps(fresh))


class TestCompare:
    def test_identical_baselines_pass(self, dirs, capsys):
        baseline, current = dirs
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_2x_timing_regression_fails(self, dirs, capsys):
        baseline, current = dirs
        rewrite(current, parse_ms=20.0)
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_small_jitter_within_tolerance(self, dirs):
        baseline, current = dirs
        rewrite(current, parse_ms=11.5, lookup_us=0.6)
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 0

    def test_improvement_passes(self, dirs):
        baseline, current = dirs
        rewrite(current, parse_ms=2.0, overhead_ratio_8_vs_0=1.1)
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 0

    def test_laziness_drop_fails(self, dirs, capsys):
        # never-forced is higher-is-better: a big drop means the
        # compiler started eagerly doing work it used to skip.
        baseline, current = dirs
        rewrite(current, mj_never_forced_pct=5.0)
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 1
        assert "mj_never_forced_pct" in capsys.readouterr().out

    def test_missing_metric_fails(self, dirs, capsys):
        baseline, current = dirs
        fresh = json.loads(json.dumps(BASELINE))
        del fresh["metrics"]["parse_ms"]
        (current / "BENCH_demo.json").write_text(json.dumps(fresh))
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 1
        assert "missing from fresh run" in capsys.readouterr().out

    def test_untracked_count_is_informational(self, dirs, capsys):
        baseline, current = dirs
        rewrite(current, statements=600)
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current)]) == 0
        assert "info" in capsys.readouterr().out

    def test_tolerance_scale_loosens_gate(self, dirs):
        baseline, current = dirs
        rewrite(current, parse_ms=20.0)
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current),
                             "--tolerance-scale", "2"]) == 0

    def test_report_artifact(self, dirs, tmp_path):
        baseline, current = dirs
        rewrite(current, parse_ms=20.0)
        report = tmp_path / "diff.json"
        assert compare.main(["--baseline", str(baseline),
                             "--current", str(current),
                             "--report", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["schema"] == "maya.bench-compare/1"
        assert payload["regressions"] == 1
        failing = [r for r in payload["rows"]
                   if r["status"] == "regression"]
        assert failing[0]["metric"] == "parse_ms"

    def test_missing_baseline_dir_is_usage_error(self, tmp_path, capsys):
        assert compare.main(["--baseline", str(tmp_path / "nope"),
                             "--current", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_real_committed_baselines_pass_against_themselves(self, capsys):
        root = str(pathlib.Path(__file__).parent.parent)
        assert compare.main(["--baseline", root, "--current", root]) == 0
