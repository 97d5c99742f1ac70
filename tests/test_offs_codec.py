"""Unit tests for the OFFS codec façade and the TableCodec contract."""

import pytest

from repro.core.codec import TableCodec
from repro.core.config import OFFSConfig
from repro.core.errors import NotFittedError, TableError
from repro.core.offs import OFFSCodec
from repro.paths.dataset import PathDataset
from repro.paths.encoding import FixedWidthEncoding, VarintEncoding


class TestLifecycle:
    def test_unfitted_codec_refuses(self):
        codec = OFFSCodec()
        with pytest.raises(NotFittedError):
            codec.compress_path((1, 2, 3))
        with pytest.raises(NotFittedError):
            codec.table  # noqa: B018 - property access is the point

    def test_fit_returns_self(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config)
        assert codec.fit(simple_dataset) is codec

    def test_build_report_populated(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        assert codec.build_report is not None
        assert codec.build_report.sampled_paths == len(simple_dataset)


class TestRoundtrip:
    def test_every_training_path_roundtrips(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        for path in simple_dataset:
            assert codec.decompress_path(codec.compress_path(path)) == path

    def test_unseen_path_roundtrips(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        unseen = (3, 10, 11, 12, 13, 1)  # hot subpath in a new context
        assert codec.decompress_path(codec.compress_path(unseen)) == unseen

    def test_hot_subpath_actually_contracts(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        token = codec.compress_path((1, 10, 11, 12, 13, 2))
        assert len(token) < 6

    def test_dataset_helpers(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        tokens = codec.compress_dataset(simple_dataset)
        assert codec.decompress_dataset(tokens) == list(simple_dataset)


class TestModes:
    def test_default_mode_parameters(self):
        codec = OFFSCodec.default()
        assert codec.config.iterations == 4
        assert codec.config.sample_exponent == 7
        assert codec.name == "OFFS"

    def test_fast_mode_parameters(self):
        codec = OFFSCodec.fast()
        assert codec.config.iterations == 2
        assert codec.name == "OFFS*"

    def test_mode_overrides(self):
        codec = OFFSCodec.fast(sample_exponent=0)
        assert codec.config.sample_exponent == 0


class TestBaseId:
    def test_explicit_base_id_respected(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config, base_id=5_000).fit(simple_dataset)
        assert codec.table.base_id == 5_000

    def test_sample_fit_full_compress_with_base_id(self, exhaustive_config):
        # Train on a sample missing the largest ids, compress the full set.
        full = PathDataset([[1, 2, 3, 4]] * 8 + [[9_000, 1, 2, 3]])
        sample = PathDataset([[1, 2, 3, 4]] * 8)
        codec = OFFSCodec(exhaustive_config, base_id=9_001).fit(sample)
        for path in full:
            assert codec.decompress_path(codec.compress_path(path)) == path

    def test_sample_fit_without_base_id_fails_loudly(self, exhaustive_config):
        sample = PathDataset([[1, 2, 3, 4]] * 8)
        codec = OFFSCodec(exhaustive_config).fit(sample)
        with pytest.raises(TableError, match="collides"):
            codec.compress_path((9_000, 1, 2, 3))


class TestSizes:
    def test_rule_size_positive_after_fit(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        assert codec.rule_size_bytes() > 0

    def test_compressed_size_includes_length_marker(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        token = codec.compress_path((7, 8, 9))
        enc = FixedWidthEncoding(4)
        assert codec.compressed_size_bytes(token, enc) == 4 * (len(token) + 1)

    def test_varint_sizes_smaller_for_small_ids(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config).fit(simple_dataset)
        token = codec.compress_path((7, 8, 9))
        assert codec.compressed_size_bytes(token, VarintEncoding()) < \
            codec.compressed_size_bytes(token, FixedWidthEncoding(4))


class TestMatcherBackends:
    @pytest.mark.parametrize("backend", ["hash", "multilevel"])
    def test_all_backends_produce_identical_tokens(self, simple_dataset, backend):
        cfg = OFFSConfig(iterations=3, sample_exponent=0, matcher=backend)
        codec = OFFSCodec(cfg).fit(simple_dataset)
        reference = OFFSCodec(
            OFFSConfig(iterations=3, sample_exponent=0, matcher="hash")
        ).fit(simple_dataset)
        for path in simple_dataset:
            assert codec.compress_path(path) == reference.compress_path(path)


class TestContract:
    def test_table_codec_is_abstract(self):
        with pytest.raises(TypeError):
            TableCodec()  # build_table not implemented

    def test_repr_mentions_name(self):
        assert "OFFS" in repr(OFFSCodec())
