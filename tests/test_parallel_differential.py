"""Differential tests: the sharded build's process fan-out vs one process.

With :mod:`repro.obs` active, the counters merged from per-worker
registries must equal the in-process totals for ``processes ∈ {1, 2, 4}``
— probe work is a pure function of (path, table), so fan-out must neither
lose nor double-count it.  Byte identity of the sharded archive across
process counts is covered by ``tests/test_sharded.py``.
"""

import pytest

from repro.core.compressor import compress_paths_flat
from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.sharded import ShardedPathStore, build_sharded_store
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


@pytest.fixture(scope="module")
def setup():
    dataset = make_dataset("alibaba", "tiny")
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0)).fit(dataset)
    paths = [tuple(p) for p in dataset]
    return paths, codec.table


def _counters(run):
    with instrumented() as obs:
        run()
    counters = obs.registry.counters()
    return {name: counters.get(name, 0) for name in CONSERVED_COMPRESS}


class TestMetricConservation:
    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_compress_counters_equal_sequential(self, setup, tmp_path, processes):
        paths, table = setup
        expected = _counters(lambda: compress_paths_flat(paths, table))
        assert all(expected.values())
        assert _counters(lambda: build_sharded_store(
            paths, table, str(tmp_path / "store.rpsm"), shards=4, processes=processes
        )) == expected

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_batch_counters_equal_single_process(self, setup, tmp_path, processes):
        # The batch kernel's probe accounting must be additive over
        # path-aligned chunks: seven shards over any process count count
        # what one shard in one process counts.
        paths, table = setup
        expected = _counters(lambda: build_sharded_store(
            paths, table, str(tmp_path / "one.rpsm"), shards=1, processes=1
        ))
        assert all(expected.values())
        assert _counters(lambda: build_sharded_store(
            paths, table, str(tmp_path / "seven.rpsm"), shards=7, processes=processes
        )) == expected

    @pytest.mark.parametrize("processes", (1, 2))
    def test_sharded_build_counters_equal_single_process(
        self, setup, tmp_path, processes
    ):
        # Three uneven shards: totals still equal one in-process batch over
        # the whole corpus.
        paths, table = setup
        expected = _counters(lambda: compress_paths_flat(paths, table))
        assert _counters(lambda: build_sharded_store(
            paths, table, str(tmp_path / "store.rpsm"), shards=3, processes=processes
        )) == expected

    def test_worker_timer_observations_cover_all_chunks(self, setup, tmp_path):
        paths, table = setup
        shards = 5
        with instrumented() as obs:
            build_sharded_store(paths, table, str(tmp_path / "store.rpsm"),
                                shards=shards, processes=2)
        assert obs.registry.timer("compress.seconds").count == shards

    def test_uninstrumented_parallel_run_records_nothing(self, setup, tmp_path):
        paths, table = setup
        from repro.obs import get_active

        assert get_active() is None
        out = str(tmp_path / "store.rpsm")
        build_sharded_store(paths, table, out, shards=3, processes=2)
        assert get_active() is None
        with ShardedPathStore.open(out) as store:
            assert store.tokens() == compress_paths_flat(paths, table)
