"""The sharded-store benchmark's ingest children report their own peak RSS."""

import json
import os
import subprocess
import sys

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
