"""Unit tests for dataset persistence (text and binary formats)."""

import pytest

from repro.core.errors import TruncatedDataError
from repro.paths.dataset import PathDataset
from repro.paths.io import (
    dumps_binary,
    load_binary,
    load_text,
    loads_binary,
    save_binary,
    save_text,
)


@pytest.fixture()
def ds():
    return PathDataset([[1, 2, 3], [400000, 5], [7]], name="io")


class TestText:
    def test_roundtrip(self, ds, tmp_path):
        target = tmp_path / "paths.txt"
        save_text(ds, target)
        assert load_text(target) == ds

    def test_format_is_one_path_per_line(self, ds, tmp_path):
        target = tmp_path / "paths.txt"
        save_text(ds, target)
        lines = target.read_text().splitlines()
        assert lines[0] == "1 2 3"
        assert lines[1] == "400000 5"

    def test_blank_lines_skipped(self, tmp_path):
        target = tmp_path / "paths.txt"
        target.write_text("1 2\n\n3 4\n")
        assert list(load_text(target)) == [(1, 2), (3, 4)]

    def test_malformed_line_reports_position(self, tmp_path):
        target = tmp_path / "paths.txt"
        target.write_text("1 2\n3 x\n")
        with pytest.raises(ValueError, match="paths.txt:2"):
            load_text(target)

    def test_empty_file(self, tmp_path):
        target = tmp_path / "paths.txt"
        target.write_text("")
        assert len(load_text(target)) == 0


class TestBinary:
    def test_roundtrip_in_memory(self, ds):
        assert loads_binary(dumps_binary(ds)) == ds

    def test_roundtrip_on_disk(self, ds, tmp_path):
        target = tmp_path / "paths.bin"
        save_binary(ds, target)
        assert load_binary(target) == ds

    def test_empty_dataset(self):
        empty = PathDataset([])
        assert loads_binary(dumps_binary(empty)) == empty

    def test_bad_magic_rejected(self, ds):
        blob = dumps_binary(ds)
        with pytest.raises(ValueError, match="magic"):
            loads_binary(b"XXXX" + blob[4:])

    def test_truncated_blob_rejected(self, ds):
        blob = dumps_binary(ds)
        with pytest.raises(ValueError):
            loads_binary(blob[:-2])

    def test_blob_shorter_than_its_header_is_truncation(self, ds):
        with pytest.raises(TruncatedDataError, match="byte offset 4"):
            loads_binary(dumps_binary(ds)[:4])

    def test_truncated_payload_names_its_file_offset(self):
        blob = dumps_binary(PathDataset([[300]]))
        with pytest.raises(TruncatedDataError, match="payload starts at byte offset 9"):
            loads_binary(blob[:-1])

    def test_trailing_garbage_rejected(self, ds):
        blob = dumps_binary(ds)
        with pytest.raises(ValueError, match="trailing"):
            loads_binary(blob + b"\x05")

    def test_large_ids_roundtrip(self):
        ds = PathDataset([[2**40, 2**20, 0]])
        assert loads_binary(dumps_binary(ds)) == ds
