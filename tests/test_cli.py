"""Unit tests for the command-line interface (in-process via cli.main)."""

import builtins
import errno
import os

import pytest

from repro.cli import main
from repro.paths.dataset import PathDataset
from repro.paths.io import load_text, save_text


@pytest.fixture()
def paths_file(tmp_path):
    ds = PathDataset(
        [[1, 2, 3, 4, 5]] * 20 + [[9, 2, 3, 4, 8]] * 10 + [[7, 6, 5]] * 5,
        name="cli",
    )
    target = tmp_path / "paths.txt"
    save_text(ds, target)
    return target, ds


@pytest.fixture()
def archive(paths_file, tmp_path):
    source, ds = paths_file
    out = tmp_path / "paths.offs"
    code = main(["compress", str(source), str(out), "--sample-exponent", "0"])
    assert code == 0
    return out, ds


class TestCompressDecompress:
    def test_compress_creates_archive(self, archive, capsys):
        out, _ = archive
        assert out.exists() and out.stat().st_size > 0

    def test_decompress_roundtrip(self, archive, tmp_path):
        out, ds = archive
        restored = tmp_path / "restored.txt"
        assert main(["decompress", str(out), str(restored)]) == 0
        assert load_text(restored) == ds

    def test_compress_reports_ratio(self, paths_file, tmp_path, capsys):
        source, _ = paths_file
        main(["compress", str(source), str(tmp_path / "x.offs"), "--sample-exponent", "0"])
        out = capsys.readouterr().out
        assert "CR=" in out and "table=" in out

    def test_options_forwarded(self, paths_file, tmp_path):
        source, ds = paths_file
        out = tmp_path / "x.offs"
        code = main([
            "compress", str(source), str(out),
            "--sample-exponent", "0", "--iterations", "2",
            "--delta", "4", "--topdown-rounds", "1",
        ])
        assert code == 0
        restored = tmp_path / "r.txt"
        assert main(["decompress", str(out), str(restored)]) == 0
        assert load_text(restored) == ds

    def test_unknown_backend_rejected(self, paths_file, tmp_path, capsys):
        # The flat hash is the only production matcher: there is no
        # --backend option to pick another.
        source, _ = paths_file
        with pytest.raises(SystemExit):
            main(["compress", str(source), str(tmp_path / "x.offs"),
                  "--backend", "hash"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestV2Format:
    @pytest.fixture()
    def archive_v2(self, paths_file, tmp_path):
        source, ds = paths_file
        out = tmp_path / "paths.rpc2"
        assert main(["compress", str(source), str(out),
                     "--sample-exponent", "0", "--format", "v2"]) == 0
        return out, ds

    def test_compress_v2_reports_format(self, paths_file, tmp_path, capsys):
        source, _ = paths_file
        assert main(["compress", str(source), str(tmp_path / "x.rpc2"),
                     "--sample-exponent", "0", "--format", "v2"]) == 0
        assert "v2" in capsys.readouterr().out

    def test_decompress_roundtrip(self, archive_v2, tmp_path):
        out, ds = archive_v2
        restored = tmp_path / "restored.txt"
        assert main(["decompress", str(out), str(restored)]) == 0
        assert load_text(restored) == ds

    def test_retrieve_from_v2(self, archive_v2, capsys):
        out, _ = archive_v2
        assert main(["retrieve", str(out), "--id", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3 4 5"

    def test_query_over_v2(self, archive_v2, capsys):
        out, _ = archive_v2
        assert main(["query", str(out), "--between", "9", "8"]) == 0
        assert "9 2 3 4 8" in capsys.readouterr().out

    def test_stats_over_v2(self, archive_v2, capsys):
        out, _ = archive_v2
        assert main(["stats", str(out)]) == 0
        assert "byte_ratio" in capsys.readouterr().out


class TestRetrieveSliceOption:
    def test_slice_window(self, archive, capsys):
        out, _ = archive
        assert main(["retrieve", str(out), "--id", "0", "--slice", "1", "4"]) == 0
        assert capsys.readouterr().out.strip() == "2 3 4"

    def test_slice_applies_to_every_id(self, archive, capsys):
        out, _ = archive
        assert main(["retrieve", str(out), "--id", "0", "--id", "34",
                     "--slice", "0", "2"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["1 2", "7 6"]

    def test_slice_on_v2_archive(self, paths_file, tmp_path, capsys):
        source, _ = paths_file
        out = tmp_path / "paths.rpc2"
        assert main(["compress", str(source), str(out),
                     "--sample-exponent", "0", "--format", "v2"]) == 0
        capsys.readouterr()
        assert main(["retrieve", str(out), "--id", "0", "--slice", "1", "4"]) == 0
        assert capsys.readouterr().out.strip() == "2 3 4"


class TestStats:
    def test_stats_table(self, archive, capsys):
        out, _ = archive
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "paths" in text and "byte_ratio" in text
        assert "hottest table entries" in text

    def test_stats_without_hot(self, archive, capsys):
        out, _ = archive
        assert main(["stats", str(out), "--hot", "0"]) == 0
        assert "hottest" not in capsys.readouterr().out


class TestRetrieve:
    def test_single_path(self, archive, capsys):
        out, ds = archive
        assert main(["retrieve", str(out), "--id", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3 4 5"

    def test_multiple_ids(self, archive, capsys):
        out, ds = archive
        assert main(["retrieve", str(out), "--id", "0", "--id", "34"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["1 2 3 4 5", "7 6 5"]

    def test_unknown_id_fails_cleanly(self, archive, capsys):
        out, _ = archive
        assert main(["retrieve", str(out), "--id", "999"]) == 1
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_contains(self, archive, capsys):
        out, ds = archive
        assert main(["query", str(out), "--contains", "9"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines == ["9 2 3 4 8"] * 10
        assert "10 path(s)" in captured.err

    def test_between(self, archive, capsys):
        out, _ = archive
        assert main(["query", str(out), "--between", "1", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["1 2 3 4 5"] * 20

    def test_no_match(self, archive, capsys):
        out, _ = archive
        assert main(["query", str(out), "--contains", "12345"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.offs")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_archive(self, tmp_path, capsys):
        bad = tmp_path / "bad.offs"
        bad.write_bytes(b"not an archive")
        assert main(["stats", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_text_input(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("1 2 x\n")
        assert main(["compress", str(src), str(tmp_path / "o.offs")]) == 1


class TestGenerate:
    def test_generate_workload(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert main(["generate", "sanfrancisco", str(out), "--paths", "50"]) == 0
        ds = load_text(out)
        assert len(ds) == 50
        assert "50 paths" in capsys.readouterr().out

    def test_generate_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "collision", str(a), "--paths", "30", "--seed", "7"])
        main(["generate", "collision", str(b), "--paths", "30", "--seed", "7"])
        assert a.read_text() == b.read_text()

    def test_generate_unknown_workload(self, tmp_path, capsys):
        assert main(["generate", "mars", str(tmp_path / "x.txt")]) == 1
        assert "unknown workload" in capsys.readouterr().err


class TestTune:
    def test_tune_prints_modes(self, paths_file, capsys):
        source, _ = paths_file
        assert main(["tune", str(source), "--pilot", "35"]) == 0
        out = capsys.readouterr().out
        assert "default mode:" in out and "fast mode:" in out
        assert "tuning sweep" in out


class TestSubpathQuery:
    def test_subpath_query(self, archive, capsys):
        out, _ = archive
        assert main(["query", str(out), "--subpath", "2", "3", "4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 30  # both path families contain 2 3 4
        assert "30 path(s)" in captured.err

    def test_subpath_query_no_match(self, archive, capsys):
        out, _ = archive
        assert main(["query", str(out), "--subpath", "3", "2"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestCompare:
    def test_compare_table(self, paths_file, capsys):
        source, _ = paths_file
        assert main(["compare", str(source), "--sample-exponent", "0"]) == 0
        out = capsys.readouterr().out
        for name in ("OFFS", "OFFS*", "Dlz4", "RSS", "GFS", "RePair"):
            assert name in out
        assert "CR" in out and "rule bytes" in out

    def test_compare_without_repair(self, paths_file, capsys):
        source, _ = paths_file
        assert main(["compare", str(source), "--no-repair",
                     "--sample-exponent", "0"]) == 0
        assert "RePair" not in capsys.readouterr().out


class TestViaQuery:
    def test_via_query(self, archive, capsys):
        out, _ = archive
        assert main(["query", str(out), "--via", "1", "3", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["1 2 3 4 5"] * 20

    def test_via_needs_two_vertices(self, archive, capsys):
        out, _ = archive
        assert main(["query", str(out), "--via", "1"]) == 1
        assert "at least" in capsys.readouterr().err


class TestQueryEveryArchiveKind:
    """``query`` answers alike on a v1 blob, a reordered v2 file and an RPSM
    manifest, checked against a scan of the source paths."""

    @pytest.fixture(params=["v1", "v2-frequency", "rpsm"])
    def any_archive(self, request, paths_file, tmp_path):
        source, ds = paths_file
        flags = {
            "v1": [],
            "v2-frequency": ["--format", "v2", "--reorder", "frequency"],
            "rpsm": ["--shards", "2"],
        }[request.param]
        out = tmp_path / f"paths.{request.param}"
        assert main(["compress", str(source), str(out),
                     "--sample-exponent", "0", *flags]) == 0
        return out, ds

    @pytest.mark.parametrize(
        "flags, keep",
        [
            (["--contains", "5"], lambda p: 5 in p),
            (["--between", "9", "8"], lambda p: p[0] == 9 and p[-1] == 8),
            (["--subpath", "2", "3", "4"],
             lambda p: (2, 3, 4) in zip(p, p[1:], p[2:])),
            (["--via", "1", "3", "5"], lambda p: p[0] == 1 and p[-1] == 5 and 3 in p),
            (["--via", "7", "5"], lambda p: p[0] == 7 and p[-1] == 5),
        ],
        ids=["contains", "between", "subpath", "via-waypoint", "via-terminals"],
    )
    def test_query(self, any_archive, capsys, flags, keep):
        out, ds = any_archive
        capsys.readouterr()
        assert main(["query", str(out), *flags]) == 0
        captured = capsys.readouterr()
        expected = [" ".join(map(str, p)) for p in ds if keep(p)]
        assert expected
        assert captured.out.splitlines() == expected
        assert f"# {len(expected)} path(s)" in captured.err


class TestAutoCompress:
    @pytest.fixture()
    def report_file(self, tmp_path):
        import json

        from repro.bench.ablation import run_ablation

        report = run_ablation(workloads=["alibaba"], size="tiny", rounds=1)
        target = tmp_path / "BENCH_ablation.json"
        target.write_text(json.dumps(report))
        return target

    def test_auto_compresses_and_round_trips(self, paths_file, tmp_path, capsys):
        source, ds = paths_file
        out = tmp_path / "auto.offs"
        assert main(["compress", str(source), str(out), "--auto",
                     "--auto-pilot", "30"]) == 0
        err = capsys.readouterr().err
        assert "autotuned:" in err
        restored = tmp_path / "restored.txt"
        assert main(["decompress", str(out), str(restored)]) == 0
        assert load_text(restored) == ds

    def test_auto_with_ablation_report(self, paths_file, report_file,
                                       tmp_path, capsys):
        source, ds = paths_file
        out = tmp_path / "auto.offs"
        assert main(["compress", str(source), str(out), "--auto",
                     "--ablation-report", str(report_file),
                     "--auto-pilot", "30"]) == 0
        assert "ablation-guided" in capsys.readouterr().err
        restored = tmp_path / "restored.txt"
        assert main(["decompress", str(out), str(restored)]) == 0
        assert load_text(restored) == ds

    def test_report_without_auto_rejected(self, paths_file, tmp_path, capsys):
        source, _ = paths_file
        assert main(["compress", str(source), str(tmp_path / "x.offs"),
                     "--ablation-report", "whatever.json"]) == 1
        assert "requires --auto" in capsys.readouterr().err

    def test_missing_report_file_errors(self, paths_file, tmp_path, capsys):
        source, _ = paths_file
        assert main(["compress", str(source), str(tmp_path / "x.offs"),
                     "--auto", "--ablation-report",
                     str(tmp_path / "nope.json")]) == 1

    def test_tune_with_report_prints_recommendation(self, paths_file,
                                                    report_file, capsys):
        source, _ = paths_file
        assert main(["tune", str(source), "--pilot", "30",
                     "--ablation-report", str(report_file)]) == 0
        assert "recommended (ablation-guided)" in capsys.readouterr().out


class _FullDiskWriter:
    """A file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, "injected: no space left on device")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _fill_disk(monkeypatch):
    """Make every file opened for writing fail its writes with ENOSPC."""
    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDiskWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", full_disk_open)


def test_failed_compress_write_keeps_previous_archive(
    archive, paths_file, monkeypatch, capsys
):
    out, _ = archive
    before = out.read_bytes()
    _fill_disk(monkeypatch)
    source, _ = paths_file
    code = main(["compress", str(source), str(out), "--sample-exponent", "0"])
    monkeypatch.undo()
    assert code == 1
    assert "no space left" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(os.listdir(out.parent)) == ["paths.offs", "paths.txt"]


def test_failed_decompress_write_keeps_previous_output(
    archive, monkeypatch, capsys
):
    out, _ = archive
    restored = out.parent / "restored.txt"
    restored.write_text("previous output\n")
    _fill_disk(monkeypatch)
    code = main(["decompress", str(out), str(restored)])
    monkeypatch.undo()
    assert code == 1
    assert "no space left" in capsys.readouterr().err
    assert restored.read_text() == "previous output\n"
    assert not [name for name in os.listdir(out.parent) if name.endswith(".tmp")]
