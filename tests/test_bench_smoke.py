"""The smoke benchmark publishes its JSON reports atomically."""

import importlib.util
import json
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")


def _smoke():
    spec = importlib.util.spec_from_file_location(
        "smoke", os.path.join(BENCH_DIR, "smoke.py")
    )
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    return smoke


def test_failed_report_write_keeps_previous_reports(tmp_path, fill_disk, monkeypatch):
    smoke = _smoke()
    out, decode_out = tmp_path / "BENCH_smoke.json", tmp_path / "BENCH_decode.json"
    out.write_text("previous smoke\n")
    decode_out.write_text("previous decode\n")
    fill_disk()
    with pytest.raises(OSError, match="no space left"):
        smoke.main(["--size", "tiny", "--rounds", "1",
                    "--out", str(out), "--decode-out", str(decode_out)])
    monkeypatch.undo()
    assert out.read_text() == "previous smoke\n"
    assert decode_out.read_text() == "previous decode\n"
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_reports_record_the_cpu_count(tmp_path):
    from repro.bench.harness import available_cpus

    out, decode_out = tmp_path / "BENCH_smoke.json", tmp_path / "BENCH_decode.json"
    assert _smoke().main(["--size", "tiny", "--rounds", "1",
                          "--out", str(out), "--decode-out", str(decode_out)]) == 0
    for report in (out, decode_out):
        assert json.loads(report.read_text())["cpus"] == available_cpus()
