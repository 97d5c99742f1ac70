"""Unit tests for the vertex index and the store's Case 1 / Case 2 queries,
checked brute-force."""

import pytest

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.queries.index import VertexIndex
from repro.workloads.registry import make_dataset


@pytest.fixture(scope="module")
def setup():
    dataset = make_dataset("sanfrancisco", "tiny")
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
    store = CompressedPathStore.from_codec(dataset, codec)
    return dataset, store


class TestVertexIndex:
    def test_postings_match_brute_force(self, setup):
        dataset, store = setup
        index = store.vertex_index()
        # Check a spread of vertices against a linear scan of the originals.
        vertices = sorted(dataset.vertex_ids())[::17]
        for v in vertices:
            expected = [i for i, p in enumerate(dataset) if v in p]
            assert index.paths_containing(v) == expected, v

    def test_unknown_vertex_empty(self, setup):
        _, store = setup
        assert store.vertex_index().paths_containing(10**9) == []

    def test_intersection(self, setup):
        dataset, store = setup
        path = dataset[0]
        a, b = path[0], path[-1]
        expected = sorted(
            i for i, p in enumerate(dataset) if a in p and b in p
        )
        assert store.vertex_index().paths_containing_all((a, b)) == expected

    def test_contains(self, setup):
        dataset, store = setup
        assert dataset[0][0] in store.vertex_index()

    def test_refresh_after_append(self, setup):
        dataset, store = setup
        # Build a fresh store/index so appends don't disturb other tests.
        local = CompressedPathStore(store.table)
        local.extend(list(dataset)[:10])
        index = VertexIndex(local)
        new_path = dataset[10]
        pid = local.append(new_path)
        index.refresh()
        assert pid in index.paths_containing(new_path[0])
        # A path reaching vertex v twice: inside a supernode, then literally.
        table = local.table
        subpath = next(sub for _, sub in table)
        v = subpath[0]
        other = next(u for u in sorted(dataset.vertex_ids()) if u not in subpath)
        twice = tuple(subpath) + (other, v)
        pid = local.append(twice)
        token = local.token(pid)
        assert any(symbol >= table.base_id for symbol in token)
        assert v in token
        index.refresh()
        assert index.paths_containing(v).count(pid) == 1
        vertices = {u for path in local for u in path}
        fresh = VertexIndex(local)
        assert index.indexed_paths == fresh.indexed_paths == len(local)
        assert index.vertex_count() == fresh.vertex_count()
        for u in vertices:
            postings = index.paths_containing(u)
            assert postings == sorted(set(postings)), u
            assert postings == fresh.paths_containing(u), u

    def test_empty_intersection_of_nothing(self, setup):
        _, store = setup
        assert store.vertex_index().paths_containing_all(()) == []


class TestCase1AffectedNodes:
    def test_affected_paths_decompress_correctly(self, setup):
        dataset, store = setup
        issue = dataset[3][1]
        expected = [p for p in dataset if issue in p]
        assert store.affected_paths(issue) == expected

    def test_affected_vertices_excludes_issue_vertex(self, setup):
        dataset, store = setup
        issue = dataset[0][1]
        affected = store.affected_vertices(issue)
        assert issue not in affected
        brute = set()
        for p in dataset:
            if issue in p:
                brute.update(p)
        brute.discard(issue)
        assert affected == brute


class TestCase2TerminalPairs:
    def test_paths_between_match_brute_force(self, setup):
        dataset, store = setup
        src, dst = dataset[1][0], dataset[1][-1]
        expected = [p for p in dataset if p[0] == src and p[-1] == dst]
        assert store.paths_between(src, dst) == expected

    def test_intermediates(self, setup):
        dataset, store = setup
        src, dst = dataset[2][0], dataset[2][-1]
        brute = set()
        for p in dataset:
            if p[0] == src and p[-1] == dst:
                brute.update(p[1:-1])
        assert store.intermediate_vertices(src, dst) == brute

    def test_no_match(self, setup):
        _, store = setup
        assert store.paths_between(10**9, 10**9 + 1) == []
