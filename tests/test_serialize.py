"""Unit tests for binary serialization of tables and stores."""

import itertools
import os

import pytest

from repro.core import serialize
from repro.core.errors import CorruptDataError
from repro.core.serialize import (
    dumps_store,
    dumps_table,
    loads_store,
    loads_table,
    publish_file,
)
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.paths.dataset import PathDataset


@pytest.fixture()
def table():
    return SupernodeTable(1_000, [(1, 2, 3), (4, 5), (900, 901, 902, 903)])


@pytest.fixture()
def store(table):
    s = CompressedPathStore(table)
    s.extend([(1, 2, 3, 9), (4, 5), (900, 901, 902, 903, 7)])
    return s


class TestTableBlob:
    def test_roundtrip(self, table):
        restored, consumed = loads_table(dumps_table(table))
        assert restored == table
        assert consumed == len(dumps_table(table))

    def test_empty_table(self):
        table = SupernodeTable(5)
        restored, _ = loads_table(dumps_table(table))
        assert restored == table

    def test_id_assignment_preserved(self, table):
        restored, _ = loads_table(dumps_table(table))
        for sid, subpath in table:
            assert restored.expand(sid) == subpath

    def test_bad_magic(self, table):
        blob = dumps_table(table)
        with pytest.raises(CorruptDataError, match="magic"):
            loads_table(b"ZZZZ" + blob[4:])

    def test_truncated_header(self):
        with pytest.raises(CorruptDataError):
            loads_table(b"RPST\x01\x00")

    def test_truncated_entries(self, table):
        blob = dumps_table(table)
        with pytest.raises(CorruptDataError):
            loads_table(blob[:-3])


class TestStoreBlob:
    def test_roundtrip(self, store):
        restored = loads_store(dumps_store(store))
        assert restored.retrieve_all() == store.retrieve_all()
        assert restored.table == store.table

    def test_roundtrip_preserves_tokens(self, store):
        restored = loads_store(dumps_store(store))
        assert restored.tokens() == store.tokens()

    def test_empty_store(self, table):
        s = CompressedPathStore(table)
        restored = loads_store(dumps_store(s))
        assert len(restored) == 0

    def test_bad_magic(self, store):
        blob = dumps_store(store)
        with pytest.raises(CorruptDataError, match="magic"):
            loads_store(b"ZZZZ" + blob[4:])

    def test_trailing_garbage(self, store):
        # The CRC catches the tampering before the structural check would.
        with pytest.raises(CorruptDataError, match="trailing|checksum"):
            loads_store(dumps_store(store) + b"\x00")

    def test_token_referencing_unknown_supernode(self, store):
        # Hand-corrupt a token symbol beyond the table range.
        blob = bytearray(dumps_store(store))
        # Append a fresh store whose token claims supernode 1_003 (table has
        # ids 1_000..1_002): build it through the public API then corrupt.
        s = CompressedPathStore(store.table)
        s.extend([(1, 2, 3)])
        s._tokens[0] = (5_000,)
        with pytest.raises(CorruptDataError, match="beyond"):
            loads_store(dumps_store(s))
        assert blob  # silence the unused-variable lint

    def test_truncated_tokens(self, store):
        blob = dumps_store(store)
        with pytest.raises(CorruptDataError):
            loads_store(blob[:-2])

    def test_roundtrip_through_real_codec(self, simple_dataset, exhaustive_config):
        from repro.core.offs import OFFSCodec

        codec = OFFSCodec(exhaustive_config)
        store = CompressedPathStore.from_codec(simple_dataset, codec)
        restored = loads_store(dumps_store(store))
        assert restored.retrieve_all() == [tuple(p) for p in simple_dataset]

    def test_blob_smaller_than_raw_for_redundant_data(self, exhaustive_config):
        from repro.core.offs import OFFSCodec
        from repro.paths.io import dumps_binary

        ds = PathDataset([[1, 2, 3, 4, 5, 6, 7, 8]] * 200)
        store = CompressedPathStore.from_codec(ds, OFFSCodec(exhaustive_config))
        assert len(dumps_store(store)) < len(dumps_binary(ds))


class TestPublishFile:
    def test_publishes_the_whole_file(self, tmp_path):
        path = str(tmp_path / "out.bin")
        assert publish_file(path, b"first") == 5
        assert publish_file(path, b"second!") == 7
        with open(path, "rb") as fh:
            assert fh.read() == b"second!"
        assert os.listdir(tmp_path) == ["out.bin"]

    @staticmethod
    def _modes(directory):
        plain = str(directory / "plain.bin")
        with open(plain, "wb") as fh:
            fh.write(b"x")
        published = str(directory / "published.bin")
        publish_file(published, b"x")
        return os.stat(published).st_mode, os.stat(plain).st_mode

    def test_mode_matches_open_wb(self, tmp_path):
        published, plain = self._modes(tmp_path)
        assert published == plain
        (tmp_path / "narrow").mkdir()
        previous = os.umask(0o027)
        try:
            published, plain = self._modes(tmp_path / "narrow")
        finally:
            os.umask(previous)
        assert published == plain and published & 0o777 == 0o640

    def test_failed_rename_keeps_previous_bytes_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "out.bin")
        publish_file(path, b"old")

        def fail(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(serialize.os, "replace", fail)
        with pytest.raises(OSError, match="injected"):
            publish_file(path, b"new")
        monkeypatch.undo()
        with open(path, "rb") as fh:
            assert fh.read() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_stray_temp_name_is_skipped_not_reused(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.bin")
        stray = f"{path}.{os.getpid()}.0.tmp"
        with open(stray, "wb") as fh:
            fh.write(b"crashed writer")
        monkeypatch.setattr(serialize, "_TEMP_IDS", itertools.count())
        publish_file(path, b"data")
        with open(stray, "rb") as fh:
            assert fh.read() == b"crashed writer"
        with open(path, "rb") as fh:
            assert fh.read() == b"data"
        os.unlink(stray)
