"""Unit tests for archive validation and the ``verify`` command."""

import pytest

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.core.validate import validate_store
from repro.paths.dataset import PathDataset
from repro.workloads.registry import make_dataset


class TestValidateStore:
    @pytest.fixture()
    def store(self):
        ds = make_dataset("sanfrancisco", "tiny")
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
        return CompressedPathStore.from_codec(ds, codec)

    def test_healthy_store_passes(self, store):
        report = validate_store(store, sample=50)
        assert report.ok, report.errors
        assert report.sampled == 50
        assert "OK" in report.summary()

    def test_small_store_samples_everything(self):
        ds = PathDataset([[1, 2, 3]] * 5)
        codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0))
        store = CompressedPathStore.from_codec(ds, codec)
        report = validate_store(store, sample=100)
        assert report.sampled == 5

    def test_out_of_range_symbol_detected(self, store):
        store._tokens[3] = (store.table.base_id + len(store.table) + 7,)
        report = validate_store(store)
        assert not report.ok
        assert any("beyond table" in e for e in report.errors)

    def test_table_tampering_detected(self, store):
        store.table._by_id[store.table.base_id + len(store.table)] = (1, 2)
        report = validate_store(store)
        assert not report.ok
        assert any("table:" in e for e in report.errors)

    def test_dead_entries_counted(self):
        from repro.core.supernode_table import SupernodeTable

        table = SupernodeTable(100, [(1, 2), (3, 4)])
        store = CompressedPathStore(table)
        store.append((1, 2, 9))  # uses (1,2) only
        report = validate_store(store)
        assert report.dead_entries == 1
        assert report.ok

    def test_empty_store(self):
        from repro.core.supernode_table import SupernodeTable

        store = CompressedPathStore(SupernodeTable(10))
        report = validate_store(store)
        assert report.ok and report.sampled == 0


class TestVerifyCli:
    def test_verify_command(self, tmp_path, capsys):
        from repro.cli import main
        from repro.paths.io import save_text

        ds = PathDataset([[1, 2, 3, 4]] * 10)
        src = tmp_path / "p.txt"
        save_text(ds, src)
        archive = tmp_path / "p.offs"
        assert main(["compress", str(src), str(archive), "--sample-exponent", "0"]) == 0
        capsys.readouterr()
        assert main(["verify", str(archive)]) == 0
        assert "OK" in capsys.readouterr().out
