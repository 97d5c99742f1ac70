"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger, percentile, reset_hwm, vm_hwm_mb  # noqa: E402

PARENT_MB = 200
CHILD_MB = 50


def test_peak_memory_is_the_childs_own_under_a_large_parent():
    """A child holding CHILD_MB reads back about that, not the parent's peak."""
    fat = b"\x01" * (PARENT_MB << 20)
    code = (
        f"import sys; sys.path.insert(0, {HERE!r}); from ledger import vm_hwm_mb; "
        f"buf = b'\\x01' * ({CHILD_MB} << 20); print(vm_hwm_mb())"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60, check=True)
    child_mb = float(child.stdout)
    assert vm_hwm_mb() >= PARENT_MB
    assert CHILD_MB <= child_mb <= CHILD_MB + 40
    del fat


def test_reset_peak_memory_forgets_a_freed_buffer():
    buf = bytearray(CHILD_MB << 20)
    buf[::4096] = b"\x01" * len(buf[::4096])
    peak = vm_hwm_mb()
    del buf
    reset_hwm()
    assert vm_hwm_mb() <= peak - CHILD_MB / 2


class _Layers:
    def outer(self):
        time.sleep(0.02)
        return self.inner()

    def inner(self):
        time.sleep(0.03)
        return "done"


def test_ledger_counts_nested_spans_once_and_restores_originals():
    ledger = Ledger()
    ledger.wrap(_Layers, "outer", "outer")
    ledger.wrap(_Layers, "inner", "inner",
                after=lambda led, args, result: led.count("calls"))
    original = _Layers.__dict__["outer"]
    ledger.install()
    try:
        assert _Layers().outer() == "done"
    finally:
        ledger.remove()
    ledger.end_cycle()
    assert _Layers.__dict__["outer"] is original
    outer, inner = ledger.calls["outer"][0], ledger.calls["inner"][0]
    assert inner < outer
    assert ledger.covered == pytest.approx(outer)
    assert ledger.per_cycle("calls") == 1
    _Layers().outer()
    assert len(ledger.calls["outer"]) == 1


def test_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert set(workloads.RECONCILE_TOLERANCE) == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        assert len(workload.SLOTS) == len(workloads.SLOT_NAMES)
        for name in workload.SLOTS:
            assert workloads.to_ms(name, 1.0) > 0


def test_run_refuses_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write(path, *records):
    path.write_text("".join(
        json.dumps({"record": r}) + "\n" + json.dumps({"correct": True}) + "\n"
        for r in records))


def _record(seed, dataset_digest="aaaa", latency=100.0, failed=0):
    return {"workload": "build", "trace": 0, "seed": seed, "failed": failed,
            "digests": {"dataset": dataset_digest, "ops": "x"},
            "metrics": {"op1_ms": latency}, "slots": {"op1_ms": "build_s"}}


def test_compare_refuses_runs_whose_inputs_differ(tmp_path):
    base, new = tmp_path / "base.out", tmp_path / "new.out"
    _write(base, _record(1, "aaaa"))
    _write(new, _record(1, "bbbb"))
    assert compare.main([str(base), str(new)]) == 2
    _write(new, _record(1, "aaaa"), _record(1, "bbbb"))
    assert compare.main([str(base), str(new)]) == 2
    _write(new, _record(1, "aaaa"))
    assert compare.main([str(base), str(new)]) == 0


def test_compare_takes_medians_over_repeated_runs_and_counts_failures(tmp_path):
    base, new = tmp_path / "base.out", tmp_path / "new.out"
    _write(base, _record(1, latency=100.0), _record(1, latency=100.0))
    _write(new, _record(1, latency=100.0), _record(1, latency=190.0),
           _record(1, latency=105.0))
    assert compare.main([str(base), str(new)]) == 0
    _write(new, _record(1, latency=190.0), _record(1, latency=190.0),
           _record(1, latency=100.0))
    assert compare.main([str(base), str(new)]) == 1
    _write(new, _record(1, failed=1))
    assert compare.main([str(base), str(new)]) == 1
