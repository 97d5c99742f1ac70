"""The sharded-store benchmark: one build timing set, and ingest children
that report their own peak RSS."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")

PARENT_MB = 200
CHILD_MB = 50


def test_child_peak_rss_is_its_own_under_a_large_parent():
    fat = bytearray(PARENT_MB << 20)
    fat[::4096] = b"\x01" * len(fat[::4096])  # touch every page
    code = (
        f"import sys; sys.path.insert(0, {os.path.abspath(BENCH_DIR)!r}); "
        "import bench_shard; "
        f"buf = b'\\x01' * ({CHILD_MB} << 20); "
        "bench_shard._report_child({})"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60, check=True)
    peak = json.loads(child.stdout)["peak_rss_mb"]
    assert CHILD_MB <= peak <= CHILD_MB + 40
    del fat


def _bench_shard():
    spec = importlib.util.spec_from_file_location(
        "bench_shard", os.path.join(BENCH_DIR, "bench_shard.py")
    )
    bench_shard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_shard)
    return bench_shard


def test_build_reports_one_timing_set():
    bench_shard = _bench_shard()
    build = bench_shard.bench_build("tiny", shards=2)
    assert build["rounds"] == bench_shard.ROUNDS and build["cpus"] >= 1
    assert build["processes"] == min(build["cpus"], 2)
    assert not [key for key in build if key.startswith("projected_")]
    assert [scale["multiplier"] for scale in build["scales"]] == [1, 5]
    for scale in build["scales"]:
        for side in ("one_process_seconds", "fan_out_seconds"):
            timing = scale[side]
            assert timing["min"] <= timing["median"] and timing["spread"] >= 0


@pytest.mark.parametrize("flag", ["--ingest-child", "--mono-child"])
def test_child_removes_its_work_dir(flag, tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    run = _bench_shard()._run_child(flag, 300)
    assert run["paths"] == 300
    assert not [name for name in os.listdir(tmp_path) if name.startswith("bench_shard_")]
