"""Unit tests for parallel (de)compression — bit-identical to sequential."""

import pytest

from repro.core.compressor import compress_dataset, decompress_dataset
from repro.core.config import OFFSConfig
from repro.core.errors import InvalidInputError
from repro.core.offs import OFFSCodec
from repro.core.parallel import parallel_compress, parallel_decompress
from repro.workloads.registry import make_dataset


@pytest.fixture(scope="module")
def setup():
    dataset = make_dataset("sanfrancisco", "tiny")
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0)).fit(dataset)
    return dataset, codec.table


class TestSequentialPath:
    def test_processes_one_matches_compress_dataset(self, setup):
        dataset, table = setup
        assert parallel_compress(dataset, table, processes=1) == \
            compress_dataset(dataset, table)

    def test_processes_one_decompress(self, setup):
        dataset, table = setup
        tokens = compress_dataset(dataset, table)
        assert parallel_decompress(tokens, table, processes=1) == \
            decompress_dataset(tokens, table)


class TestParallelPath:
    def test_two_workers_identical_tokens(self, setup):
        dataset, table = setup
        sequential = compress_dataset(dataset, table)
        parallel = parallel_compress(dataset, table, processes=2, chunk_size=37)
        assert parallel == sequential

    def test_two_workers_decompress_roundtrip(self, setup):
        dataset, table = setup
        tokens = compress_dataset(dataset, table)
        restored = parallel_decompress(tokens, table, processes=2, chunk_size=53)
        assert restored == [tuple(p) for p in dataset]

    def test_order_preserved_with_tiny_chunks(self, setup):
        dataset, table = setup
        parallel = parallel_compress(dataset, table, processes=2, chunk_size=1)
        assert parallel == compress_dataset(dataset, table)

    def test_empty_input(self, setup):
        _, table = setup
        assert parallel_compress([], table, processes=2) == []
        assert parallel_decompress([], table, processes=2) == []


class TestValidation:
    def test_bad_processes(self, setup):
        dataset, table = setup
        with pytest.raises(ValueError):
            parallel_compress(dataset, table, processes=0)

    @pytest.mark.parametrize("processes", (1, 2))
    @pytest.mark.parametrize(
        "run, chunk_size",
        ((parallel_compress, 0), (parallel_decompress, -5)),
        ids=("compress", "decompress"),
    )
    def test_bad_chunk_size(self, setup, run, chunk_size, processes):
        dataset, table = setup
        with pytest.raises(InvalidInputError):
            run(dataset, table, processes=processes, chunk_size=chunk_size)
