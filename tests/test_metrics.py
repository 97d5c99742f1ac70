"""Unit tests for the Section VI-B measures and the size accounting."""

import pytest

from repro.analysis.metrics import (
    CompressionMeasurement,
    compression_ratio,
    measure_codec,
    measure_decompression,
    measure_partial_decompression,
)
from repro.analysis.sizing import dataset_raw_bytes, tokens_total_bytes
from repro.analysis.stats import dataset_stats_table, format_table
from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.paths.dataset import PathDataset
from repro.paths.encoding import FixedWidthEncoding, VarintEncoding


class TestSizing:
    def test_raw_bytes_is_ids_plus_markers(self):
        ds = PathDataset([[1, 2, 3], [4, 5]])
        assert dataset_raw_bytes(ds) == 4 * (5 + 2)

    def test_varint_raw_bytes(self):
        ds = PathDataset([[1, 200]])
        enc = VarintEncoding()
        assert dataset_raw_bytes(ds, enc) == 1 + 1 + 2  # marker + 1 + 2 bytes

    def test_tokens_total_includes_rule(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        tokens = codec.compress_dataset(simple_dataset)
        total = tokens_total_bytes(codec, tokens)
        assert total > codec.rule_size_bytes()


class TestMeasurement:
    def test_cr_definition(self):
        m = CompressionMeasurement(
            codec_name="x", dataset_name="d", raw_bytes=1000,
            compressed_bytes=250, rule_bytes=50,
            fit_seconds=1.0, compress_seconds=1.0, decompress_seconds=0.5,
        )
        assert m.compression_ratio == 4.0
        # CS = raw MB / (fit + compress) seconds
        assert m.compression_speed_mbps == pytest.approx(1000 / 1e6 / 2.0)
        assert m.decompression_speed_mbps == pytest.approx(1000 / 1e6 / 0.5)
        assert m.as_row()[0] == "x"

    def test_zero_time_safe(self):
        m = CompressionMeasurement(
            codec_name="x", dataset_name="d", raw_bytes=10,
            compressed_bytes=0, rule_bytes=0,
            fit_seconds=0.0, compress_seconds=0.0, decompress_seconds=0.0,
        )
        assert m.compression_ratio == 0.0
        assert m.compression_speed_mbps == 0.0
        assert m.decompression_speed_mbps == 0.0

    def test_measure_codec_verifies_roundtrip(self, simple_dataset, exhaustive_config):
        m = measure_codec(OFFSCodec(exhaustive_config), simple_dataset)
        assert m.compression_ratio > 1.0
        assert m.raw_bytes == dataset_raw_bytes(simple_dataset)

    def test_measure_codec_catches_corruption(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config)

        class LossyCodec:
            name = "lossy"
            def fit(self, ds): codec.fit(ds); return self
            def compress_path(self, p): return codec.compress_path(p)
            def decompress_path(self, t): return codec.decompress_path(t)[:-1]
            def rule_size_bytes(self, enc): return 0
            def compressed_size_bytes(self, t, enc): return 0

        with pytest.raises(AssertionError, match="lossy"):
            measure_codec(LossyCodec(), simple_dataset)

    def test_compression_ratio_helper(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        tokens = codec.compress_dataset(simple_dataset)
        cr = compression_ratio(codec, simple_dataset, tokens)
        assert cr == pytest.approx(
            dataset_raw_bytes(simple_dataset) / tokens_total_bytes(codec, tokens)
        )

    def test_measure_decompression_positive(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        tokens = codec.compress_dataset(simple_dataset)
        assert measure_decompression(codec, tokens, 1000) > 0

    def test_measure_partial_decompression(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        store = CompressedPathStore.from_corpus(simple_dataset, codec.table)
        mbps, out_bytes = measure_partial_decompression(store, 0.5, repeats=2)
        assert mbps > 0
        assert out_bytes > 0


class TestStatsTable:
    def test_dataset_stats_rows(self):
        ds = PathDataset([[1, 2, 3]], name="one")
        rows = dataset_stats_table([ds])
        assert rows[0][0] == "Dataset"
        assert rows[1][0] == "one"

    def test_format_table_alignment(self):
        rows = [("a", "b"), ("xx", 1234567), ("y", 2.5)]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1,234,567" in text
        assert "2.5" in text

    def test_format_empty(self):
        assert format_table([], title="T") == "T"
