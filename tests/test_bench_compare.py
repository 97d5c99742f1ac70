"""Unit tests for the bench-regression gate (tools/bench_compare.py)."""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    os.path.join(os.path.dirname(__file__), "..", "tools", "bench_compare.py"),
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


BASE = {
    "benchmark": "smoke",
    "identical_output": True,
    "paths": 400,
    "python": "3.12.0",
    "pipelines": {"flat": {"seconds": 0.010, "msym_per_s": 5.0}},
    "speedup": 3.0,
}


def _write(tmp_path, name, payload):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return target


@pytest.fixture()
def tree(tmp_path):
    """A baseline dir plus a fresh dir seeded with identical reports."""
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    _write(baselines, "BENCH_smoke.json", BASE)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    return baselines, fresh


class TestClassification:
    def test_timing_keys(self):
        assert bench_compare.is_timing_key("pipelines.flat.seconds")
        assert bench_compare.is_timing_key("build_seconds")
        assert bench_compare.is_timing_key("speedup")
        assert bench_compare.is_timing_key("stores.mapped_over_memory")
        assert bench_compare.is_timing_key("pipelines.flat.msym_per_s")
        assert not bench_compare.is_timing_key("identical_output")
        assert not bench_compare.is_timing_key("paths")
        assert not bench_compare.is_timing_key("table_entries")

    def test_flatten_produces_dotted_paths(self):
        flat = dict(bench_compare.flatten(BASE))
        assert flat["pipelines.flat.seconds"] == 0.010
        assert flat["identical_output"] is True


class TestCompare:
    def test_identical_reports_are_clean(self):
        assert bench_compare.compare_payloads(BASE, BASE, "f.json") == []

    def test_timing_drift_within_band_is_silent(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["pipelines"]["flat"]["seconds"] = 0.011  # +10%, inside ±15%
        assert bench_compare.compare_payloads(fresh, BASE, "f.json") == []

    def test_timing_drift_beyond_band_warns_only(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["pipelines"]["flat"]["seconds"] = 0.020  # +100%
        findings = bench_compare.compare_payloads(fresh, BASE, "f.json")
        assert [f.severity for f in findings] == ["warning"]
        assert findings[0].key == "pipelines.flat.seconds"

    def test_correctness_drift_is_an_error(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["identical_output"] = False
        fresh["paths"] = 399
        findings = bench_compare.compare_payloads(fresh, BASE, "f.json")
        assert {f.key for f in findings} == {"identical_output", "paths"}
        assert all(f.severity == "error" for f in findings)

    def test_environment_keys_ignored(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["python"] = "3.10.9"
        fresh["cpus"] = 64  # absent from the baseline: the machine, not a metric
        assert bench_compare.compare_payloads(fresh, BASE, "f.json") == []

    def test_missing_and_novel_metrics_are_errors(self):
        fresh = json.loads(json.dumps(BASE))
        del fresh["paths"]
        fresh["surprise_metric"] = 1
        findings = bench_compare.compare_payloads(fresh, BASE, "f.json")
        assert {f.key for f in findings} == {"paths", "surprise_metric"}
        assert all(f.severity == "error" for f in findings)

    def test_custom_tolerance(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["pipelines"]["flat"]["seconds"] = 0.013  # +30%
        wide = bench_compare.compare_payloads(fresh, BASE, "f", tolerance=0.5)
        tight = bench_compare.compare_payloads(fresh, BASE, "f", tolerance=0.1)
        assert wide == [] and len(tight) == 1


class TestMain:
    def test_clean_run_exits_zero(self, tree, capsys):
        baselines, fresh = tree
        report = _write(fresh, "BENCH_smoke.json", BASE)
        code = bench_compare.main([str(report), "--baseline-dir", str(baselines)])
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_exits_one_with_gha_error(self, tree, capsys):
        baselines, fresh = tree
        bad = json.loads(json.dumps(BASE))
        bad["identical_output"] = False
        report = _write(fresh, "BENCH_smoke.json", bad)
        code = bench_compare.main(
            [str(report), "--baseline-dir", str(baselines), "--format", "gha"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "::error title=bench-compare" in out
        assert "identical_output" in out

    def test_timing_drift_exits_zero_with_gha_warning(self, tree, capsys):
        baselines, fresh = tree
        slow = json.loads(json.dumps(BASE))
        slow["speedup"] = 1.0
        report = _write(fresh, "BENCH_smoke.json", slow)
        code = bench_compare.main(
            [str(report), "--baseline-dir", str(baselines), "--format", "gha"]
        )
        assert code == 0
        assert "::warning title=bench-compare" in capsys.readouterr().out

    def test_missing_baseline_is_a_usage_error(self, tree, capsys):
        baselines, fresh = tree
        report = _write(fresh, "BENCH_unknown.json", BASE)
        code = bench_compare.main([str(report), "--baseline-dir", str(baselines)])
        assert code == 2

    def test_invalid_json_is_a_usage_error(self, tree):
        baselines, fresh = tree
        report = fresh / "BENCH_smoke.json"
        report.write_text("{not json")
        code = bench_compare.main([str(report), "--baseline-dir", str(baselines)])
        assert code == 2


class TestCommittedBaselines:
    def test_baselines_exist_for_gated_reports(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        for name in ("BENCH_smoke.json", "BENCH_decode.json"):
            path = os.path.join(root, "benchmarks", "baselines", name)
            assert os.path.exists(path), f"missing committed baseline {name}"
            payload = json.load(open(path))
            assert payload.get("identical_output") is True
