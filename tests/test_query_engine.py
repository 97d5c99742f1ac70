"""The one query engine, held against a brute-force scan on every store kind.

Every query method of :class:`~repro.core.reader.PathReader` runs on an
in-memory store, a mapped v2 file, a frequency-reordered v2 file, a
range-sharded manifest and a ``ShardedIngest``-written manifest, and must
answer exactly what a linear scan of the original paths answers.  A second
test holds the decode-once contract: each query decodes each of its index
candidates exactly once, and nothing else.
"""

import random

import pytest

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.serialize import dumps_store_v2, loads_store_v2
from repro.core.sharded import ShardedIngest, ShardedPathStore, build_sharded_store
from repro.core.store import CompressedPathStore
from repro.obs import catalog
from repro.obs.runtime import instrumented
from repro.paths.dataset import PathDataset
from repro.queries.pattern import ANY, GAP, PathPattern

from conftest import make_fd_leak_guard

_fd_leak_guard = make_fd_leak_guard()

ABSENT = 424242
STORE_KINDS = ["memory", "mapped", "reordered", "sharded", "ingest"]


def _paths():
    """Skewed traffic: a hot backbone subpath, random vertices (some paths
    revisit one), and a few shared terminals so Case 2 has answers."""
    rng = random.Random(11)
    out = []
    for i in range(90):
        path = [rng.randrange(900, 1000) for _ in range(rng.randrange(2, 9))]
        if i % 2 == 0:
            path[1:1] = [1000, 1001, 1002, 1003]
        if i % 5 == 0:
            path[0], path[-1] = 950, 960
        out.append(tuple(path))
    return out


PATHS = _paths()


def _fit(reorder):
    corpus = PathDataset(PATHS).to_flat()
    codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0, reorder=reorder))
    codec.fit(corpus)
    return corpus, codec


@pytest.fixture(scope="module", params=STORE_KINDS)
def store(request, tmp_path_factory):
    kind = request.param
    corpus, codec = _fit("frequency" if kind == "reordered" else "identity")
    memory = CompressedPathStore.from_corpus(corpus, codec.table, order=codec.order)
    if kind == "memory":
        yield memory
        return
    if kind in ("mapped", "reordered"):
        mapped = loads_store_v2(dumps_store_v2(memory))
        assert (mapped.order is not None) == (kind == "reordered")
        yield mapped
        mapped.close()
        return
    manifest = str(tmp_path_factory.mktemp(kind) / "store.rpsm")
    if kind == "sharded":
        build_sharded_store(corpus, codec.table, manifest, shards=3)
    else:
        with ShardedIngest(
            manifest,
            config=OFFSConfig(iterations=2, sample_exponent=0),
            train_after=30,
            memtable_paths=30,
            base_id=1 << 20,
        ) as ingest:
            ingest.feed_many(PATHS)
    with ShardedPathStore.open(manifest) as sharded:
        assert sharded.shard_count == 3
        yield sharded


# -- brute force over the original paths -------------------------------------------


def _ids(keep):
    return [i for i, path in enumerate(PATHS) if keep(path)]


def _contains(path, query):
    width = len(query)
    return any(path[j : j + width] == query for j in range(len(path) - width + 1))


def _candidates(vertices):
    """How many paths contain every vertex of *vertices* (all when empty)."""
    return len(_ids(lambda path: all(v in path for v in vertices)))


VERTICES = (1000, 1003, 950, 960, 907, 931, ABSENT)
TERMINALS = sorted({(p[0], p[-1]) for p in PATHS})[:6] + [
    (950, 960), (1000, 1003), (960, 950), (950, ABSENT),
]
SUBPATHS = [
    (), (1000,), (ABSENT,), (1000, 1001, 1002), (1001, 1002, 1003),
    (1002, 1001), (ABSENT, 1000), PATHS[3][1:4], PATHS[7][:2], PATHS[8],
]
PATTERNS = [
    PathPattern.via(950, [1001], 960),
    PathPattern.via(PATHS[4][0], [PATHS[4][len(PATHS[4]) // 2]], PATHS[4][-1]),
    PathPattern.containing([1000, ANY, 1002]),
    PathPattern.containing(PATHS[9][2:5]),
    PathPattern([GAP, 1003, GAP, 960]),
    PathPattern([ANY] * len(PATHS[1])),
    PathPattern([ANY, GAP]),
    PathPattern([GAP]),
    PathPattern([ABSENT, GAP]),
]


class TestDifferential:
    def test_affected(self, store):
        for v in VERTICES:
            ids = _ids(lambda path: v in path)
            assert store.paths_containing(v) == ids, v
            assert store.affected_paths(v) == [PATHS[i] for i in ids], v
            expected = {u for i in ids for u in PATHS[i]} - {v}
            assert store.affected_vertices(v) == expected, v

    def test_paths_between(self, store):
        for src, dst in TERMINALS:
            ids = _ids(lambda path: path[0] == src and path[-1] == dst)
            paths = [PATHS[i] for i in ids]
            assert store.paths_between_hits(src, dst) == (ids, paths)
            assert store.paths_between(src, dst) == paths
            expected = {u for path in paths for u in path[1:-1]}
            assert store.intermediate_vertices(src, dst) == expected
        assert store.paths_between(950, 960)  # the suite has Case 2 answers

    def test_subpath_search(self, store):
        for query in SUBPATHS:
            ids = _ids(lambda path: _contains(path, query))
            paths = [PATHS[i] for i in ids]
            assert store.subpath_search_hits(query) == (ids, paths), query
            assert store.subpath_search_ids(query) == ids, query
            assert store.subpath_search(list(query)) == paths, query

    def test_pattern_search(self, store):
        for pattern in PATTERNS:
            ids = _ids(pattern.matches)
            paths = [PATHS[i] for i in ids]
            assert store.pattern_search_hits(pattern) == (ids, paths), pattern
            assert store.pattern_search(pattern) == paths, pattern
        assert store.pattern_search(PathPattern([GAP])) == PATHS


class TestDecodeOnce:
    """Each query decodes its candidates, each exactly once, and no hit again."""

    @pytest.mark.parametrize(
        "query, vertices",
        [
            (lambda s: s.paths_between_hits(950, 960), (950, 960)),
            (lambda s: s.paths_between_hits(1000, 1003), (1000, 1003)),
            (lambda s: s.subpath_search_hits((1000, 1001, 1002)), (1000, 1001, 1002)),
            (lambda s: s.subpath_search_hits((1002, 1001)), (1002, 1001)),
            (lambda s: s.subpath_search_hits(()), ()),
            (lambda s: s.pattern_search_hits(PathPattern.via(950, [1001], 960)),
             (950, 1001, 960)),
            (lambda s: s.pattern_search_hits(PathPattern([ANY, GAP])), ()),
        ],
        ids=["between", "between-miss", "subpath", "subpath-miss", "subpath-empty",
             "pattern", "pattern-wildcard"],
    )
    def test_retrieved_paths_equal_candidates(self, store, query, vertices):
        store.vertex_index()  # the index build decodes nothing, but keep it out
        with instrumented() as obs:
            ids, paths = query(store)
            retrieved = obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).value
        assert len(ids) == len(paths)
        assert retrieved == _candidates(vertices)
