"""Unit and property tests for ``store.subpath_search`` over compressed archives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.workloads.registry import make_dataset


def brute_force_ids(dataset, query):
    q = tuple(query)
    hits = []
    for i, path in enumerate(dataset):
        if any(tuple(path[j : j + len(q)]) == q for j in range(len(path) - len(q) + 1)):
            hits.append(i)
    return hits


@pytest.fixture(scope="module")
def setup():
    dataset = make_dataset("sanfrancisco", "tiny")
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
    store = CompressedPathStore.from_codec(dataset, codec)
    return dataset, store


class TestSearcher:
    @pytest.mark.parametrize("probe_path, start, length", [
        (0, 0, 2), (1, 1, 3), (5, 2, 4), (9, 0, 5),
    ])
    def test_matches_brute_force(self, setup, probe_path, start, length):
        dataset, store = setup
        path = dataset[probe_path]
        if start + length > len(path):
            pytest.skip("probe outside path")
        query = tuple(path[start : start + length])
        assert store.subpath_search_ids(query) == brute_force_ids(dataset, query)

    def test_single_vertex_query(self, setup):
        dataset, store = setup
        v = dataset[3][0]
        expected = [i for i, p in enumerate(dataset) if v in p]
        assert store.subpath_search_ids((v,)) == expected

    def test_absent_subpath(self, setup):
        _, store = setup
        assert store.subpath_search_ids((10**9, 10**9 + 1)) == []

    def test_order_matters(self, setup):
        dataset, store = setup
        path = dataset[0]
        forward = tuple(path[0:3])
        backward = tuple(reversed(forward))
        assert store.subpath_search_ids(forward) == brute_force_ids(dataset, forward)
        assert store.subpath_search_ids(backward) == brute_force_ids(dataset, backward)

    def test_search_returns_decompressed_paths(self, setup):
        dataset, store = setup
        query = tuple(dataset[2][1:4])
        for path in store.subpath_search(query):
            assert any(
                tuple(path[j : j + len(query)]) == query
                for j in range(len(path) - len(query) + 1)
            )

    def test_count(self, setup):
        dataset, store = setup
        query = tuple(dataset[0][0:2])
        assert len(store.subpath_search_ids(query)) == len(brute_force_ids(dataset, query))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_search_equals_brute_force_property(data):
    from repro.paths.dataset import PathDataset

    paths = data.draw(
        st.lists(
            st.lists(st.integers(0, 15), min_size=2, max_size=10, unique=True),
            min_size=2, max_size=15,
        )
    )
    dataset = PathDataset(paths)
    codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0))
    store = CompressedPathStore.from_codec(dataset, codec)
    # Query: a random slice of a random path.
    host = data.draw(st.sampled_from(paths))
    if len(host) >= 2:
        start = data.draw(st.integers(0, len(host) - 2))
        length = data.draw(st.integers(2, len(host) - start))
        query = tuple(host[start : start + length])
        assert store.subpath_search_ids(query) == brute_force_ids(dataset, query)
