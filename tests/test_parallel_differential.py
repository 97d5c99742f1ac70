"""Differential tests: parallel (de)compression vs the sequential ground truth.

Two properties, for ``processes ∈ {1, 2, 4}`` (and the sharded build's
fan-out at 1 and 2):

1. **Byte-identical output.**  Compressed tokens (and decompressed paths)
   must equal the sequential path's exactly, independent of worker count
   and chunking.
2. **Metric conservation.**  With :mod:`repro.obs` active, the counters
   merged from per-worker registries must equal the sequential totals —
   probe work is a pure function of (path, table), so fan-out must neither
   lose nor double-count it.
"""

import pytest

from repro.core.compressor import compress_dataset, decompress_dataset
from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.parallel import parallel_compress, parallel_decompress
from repro.core.sharded import build_sharded_store
from repro.obs import instrumented
from repro.workloads.registry import make_dataset

PROCESS_COUNTS = (1, 2, 4)

#: Counters that must be conserved across process fan-out.  Timers and
#: gauges are excluded by design: wall-clock is not additive across workers.
CONSERVED_COMPRESS = (
    "compress.paths",
    "compress.symbols_in",
    "compress.symbols_out",
    "matcher.probes",
    "matcher.hashed_vertices",
)
CONSERVED_DECOMPRESS = (
    "decompress.paths",
    "decompress.symbols_in",
    "decompress.symbols_out",
)


@pytest.fixture(scope="module")
def setup():
    dataset = make_dataset("alibaba", "tiny")
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0)).fit(dataset)
    paths = [tuple(p) for p in dataset]
    return paths, codec.table


class TestByteIdentical:
    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_compress_matches_sequential(self, setup, processes):
        paths, table = setup
        sequential = compress_dataset(paths, table)
        assert parallel_compress(paths, table, processes=processes,
                                 chunk_size=29) == sequential

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_decompress_matches_sequential(self, setup, processes):
        paths, table = setup
        tokens = compress_dataset(paths, table)
        sequential = decompress_dataset(tokens, table)
        assert sequential == list(paths)
        assert parallel_decompress(tokens, table, processes=processes,
                                   chunk_size=31) == sequential


class TestMetricConservation:
    def _sequential_counters(self, paths, table, conserved, run):
        with instrumented() as obs:
            run(paths, table, 1)
        counters = obs.registry.counters()
        assert all(counters.get(name, 0) > 0 for name in conserved)
        return {name: counters[name] for name in conserved}

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_compress_counters_equal_sequential(self, setup, processes):
        paths, table = setup

        def run(paths, table, n):
            parallel_compress(paths, table, processes=n, chunk_size=37)

        expected = self._sequential_counters(paths, table, CONSERVED_COMPRESS, run)
        with instrumented() as obs:
            parallel_compress(paths, table, processes=processes, chunk_size=37)
        counters = obs.registry.counters()
        assert {name: counters.get(name, 0) for name in CONSERVED_COMPRESS} == expected

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_decompress_counters_equal_sequential(self, setup, processes):
        paths, table = setup
        tokens = compress_dataset(paths, table)

        def run(tokens, table, n):
            parallel_decompress(tokens, table, processes=n, chunk_size=41)

        expected = self._sequential_counters(tokens, table, CONSERVED_DECOMPRESS, run)
        with instrumented() as obs:
            parallel_decompress(tokens, table, processes=processes, chunk_size=41)
        counters = obs.registry.counters()
        assert {name: counters.get(name, 0) for name in CONSERVED_DECOMPRESS} == expected

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_batch_counters_equal_single_process(self, setup, processes):
        # The batch kernel's probe accounting differs from the sequential
        # matcher's (it counts vectorized window tests), but it must still be
        # additive over path-aligned chunks: any process count and chunking
        # yields the same totals as one process running one big batch.
        paths, table = setup
        with instrumented() as obs:
            parallel_compress(paths, table, processes=1)
        expected = {
            name: obs.registry.counters().get(name, 0) for name in CONSERVED_COMPRESS
        }
        assert all(expected.values())
        with instrumented() as obs:
            parallel_compress(paths, table, processes=processes, chunk_size=37)
        counters = obs.registry.counters()
        assert {name: counters.get(name, 0) for name in CONSERVED_COMPRESS} == expected

    @pytest.mark.parametrize("processes", (1, 2))
    def test_sharded_build_counters_equal_single_process(
        self, setup, tmp_path, processes
    ):
        # The sharded build fans shards out through the same pool helper as
        # parallel_compress; its merged totals must equal one in-process
        # batch over the whole corpus.
        paths, table = setup
        with instrumented() as obs:
            parallel_compress(paths, table, processes=1)
        expected = {
            name: obs.registry.counters().get(name, 0) for name in CONSERVED_COMPRESS
        }
        assert all(expected.values())
        with instrumented() as obs:
            build_sharded_store(paths, table, str(tmp_path / "store.rpsm"),
                                shards=3, processes=processes)
        counters = obs.registry.counters()
        assert {name: counters.get(name, 0) for name in CONSERVED_COMPRESS} == expected

    def test_worker_timer_observations_cover_all_chunks(self, setup):
        paths, table = setup
        chunk_size = 23
        expected_chunks = (len(paths) + chunk_size - 1) // chunk_size
        with instrumented() as obs:
            parallel_compress(paths, table, processes=2, chunk_size=chunk_size)
        assert obs.registry.timer("compress.seconds").count == expected_chunks

    def test_uninstrumented_parallel_run_records_nothing(self, setup):
        paths, table = setup
        from repro.obs import get_active

        assert get_active() is None
        tokens = parallel_compress(paths, table, processes=2, chunk_size=37)
        assert tokens == compress_dataset(paths, table)
