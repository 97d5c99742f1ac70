"""The component-ablation benchmark script, end to end at the tiny tier."""

import importlib.util
import os

from repro.bench.ablation import load_report

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")


def _bench_ablation():
    spec = importlib.util.spec_from_file_location(
        "bench_ablation", os.path.join(BENCH_DIR, "bench_ablation.py")
    )
    bench_ablation = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ablation)
    return bench_ablation


def test_tiny_run_writes_a_loadable_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = _bench_ablation().main([
        "--size", "tiny", "--rounds", "1", "--workloads", "alibaba",
        "--out", str(out),
    ])
    assert code == 0
    report = load_report(str(out))
    assert report["rounds"] == 1 and report["workloads"] == ["alibaba"]
    assert "alibaba-baseline" in report["runs"]
    assert not [run_id for run_id in report["runs"] if "reorder" in run_id]
    assert sorted(os.listdir(tmp_path)) == ["r.json"]  # no .partial left
    assert f"wrote {out}" in capsys.readouterr().out
