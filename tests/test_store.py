"""Unit tests for the compressed path store (per-path random access)."""

import pytest

from repro.core.config import OFFSConfig
from repro.core.errors import PathIdError, TableError
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.paths.dataset import PathDataset


@pytest.fixture()
def table():
    return SupernodeTable(100, [(1, 2, 3), (4, 5)])


@pytest.fixture()
def store(table):
    s = CompressedPathStore(table)
    s.extend([(1, 2, 3, 9), (4, 5, 6), (7, 8)])
    return s


class TestIngest:
    def test_append_returns_dense_ids(self, table):
        s = CompressedPathStore(table)
        assert s.append((1, 2, 3)) == 0
        assert s.append((7, 8)) == 1
        assert len(s) == 2

    def test_from_corpus(self, table):
        ds = PathDataset([[1, 2, 3], [4, 5]])
        s = CompressedPathStore.from_corpus(ds, table)
        assert len(s) == 2

    def test_extend_is_all_or_nothing(self, store):
        before = list(store.tokens())
        # Vertex 100 is the table's base_id: it would decode as a supernode.
        with pytest.raises(TableError):
            store.extend([(1, 2, 3), (7, 8), (9, 100)])
        assert len(store) == 3
        assert store.tokens() == before

    def test_from_codec_fits_and_ingests(self, simple_dataset, exhaustive_config):
        codec = OFFSCodec(exhaustive_config)
        s = CompressedPathStore.from_codec(simple_dataset, codec)
        assert len(s) == len(simple_dataset)
        for i, path in enumerate(simple_dataset):
            assert s.retrieve(i) == path


class TestRetrieval:
    def test_retrieve_single(self, store):
        assert store.retrieve(0) == (1, 2, 3, 9)
        assert store.retrieve(2) == (7, 8)

    def test_retrieve_does_not_touch_other_paths(self, store):
        # Tokens stay compressed: the stored token for path 0 is shorter
        # than the original (supernode contraction happened).
        assert len(store.token(0)) < 4

    def test_retrieve_many(self, store):
        assert store.retrieve_batch([2, 0]) == [(7, 8), (1, 2, 3, 9)]

    def test_retrieve_all(self, store):
        assert store.retrieve_all() == [(1, 2, 3, 9), (4, 5, 6), (7, 8)]

    def test_iter_matches_retrieve_all(self, store):
        assert list(store) == store.retrieve_all()

    def test_retrieve_fraction_deterministic(self, store):
        a = store.retrieve_fraction(0.5, seed=1)
        b = store.retrieve_fraction(0.5, seed=1)
        assert a == b
        assert len(a) == 2  # round(0.5 * 3) = 2

    def test_retrieve_fraction_bounds(self, store):
        with pytest.raises(ValueError):
            store.retrieve_fraction(0.0)

    def test_unknown_id_raises(self, store):
        with pytest.raises(PathIdError):
            store.retrieve(3)
        with pytest.raises(PathIdError):
            store.retrieve(-1)

    def test_retrieve_many_validates_all_ids_up_front(self, store):
        # Regression: a bad id anywhere in the batch must fail the whole
        # call before any path is decompressed — no partial side effects.
        from repro.obs import catalog
        from repro.obs.runtime import instrumented

        with instrumented() as obs:
            with pytest.raises(PathIdError):
                store.retrieve_batch([0, 1, 99])
            assert obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).value == 0

    def test_retrieve_many_bad_id_first_or_last(self, store):
        with pytest.raises(PathIdError):
            store.retrieve_batch([99, 0, 1])
        with pytest.raises(PathIdError):
            store.retrieve_batch([0, 1, -1])

    def test_retrieve_many_accepts_one_shot_iterators(self, store):
        # Validation must not consume the ids before retrieval.
        assert store.retrieve_batch(iter([2, 0])) == [(7, 8), (1, 2, 3, 9)]


class TestRetrieveSlice:
    def test_matches_full_retrieve_slicing(self, store):
        for pid in range(len(store)):
            full = store.retrieve(pid)
            n = len(full)
            bounds = [None, 0, 1, 2, n - 1, n, n + 3, -1, -2, -n, -n - 3]
            for start in bounds:
                for stop in bounds:
                    assert store.retrieve_slice(pid, start, stop) == full[start:stop], (
                        pid,
                        start,
                        stop,
                    )

    def test_defaults_return_whole_path(self, store):
        assert store.retrieve_slice(0) == store.retrieve(0)

    def test_slice_inside_a_supernode(self, store):
        # Path 0 compresses (1, 2, 3) into one supernode; a window that
        # starts and ends mid-expansion must still be exact.
        assert store.retrieve_slice(0, 1, 3) == (2, 3)

    def test_unknown_id_raises(self, store):
        with pytest.raises(PathIdError):
            store.retrieve_slice(3, 0, 1)

    def test_expanded_length(self, store):
        for pid in range(len(store)):
            assert store.expanded_length(pid) == len(store.retrieve(pid))

    def test_slice_counts_metrics(self, store):
        from repro.obs import catalog
        from repro.obs.runtime import instrumented

        with instrumented() as obs:
            store.retrieve_slice(0, 0, 2)
            assert obs.registry.counter(catalog.STORE_RETRIEVED_SLICES).value == 1


class TestSizes:
    def test_compression_ratio_above_one_for_redundant_data(self, table):
        ds = PathDataset([[1, 2, 3, 4, 5]] * 20)
        s = CompressedPathStore.from_corpus(ds, table)
        assert s.compression_ratio() > 1.0

    def test_raw_size_matches_original(self, store):
        # 3 paths, 9 vertices, 4 bytes each + 3 length markers.
        assert store.raw_size_bytes() == 4 * (9 + 3)

    def test_compressed_size_includes_table(self, table):
        s = CompressedPathStore(table)
        assert s.compressed_size_bytes() > 0  # table alone costs bytes

    def test_symbol_count(self, store):
        assert store.compressed_symbol_count() == sum(len(t) for t in store.tokens())

    def test_empty_store_ratio_zero_safe(self, table):
        s = CompressedPathStore(table)
        assert s.compression_ratio() == 0.0
