"""Differential tests of the encode routes against a finished table.

Four routes must give equal tokens on every input:

* the exact encoder — ``compress_path(path, table)``, which bounds each
  position by the table's 2-prefix index (``SupernodeTable.prefix_index``);
* the explicit ``hash`` route — Algorithm 6 through
  ``compress_path(path, table, matcher)``;
* the explicit ``multilevel`` route — Algorithm 7 the same way;
* bulk encode — ``compress_paths_flat`` over a flat corpus.

Only the first and the last run in production: every codec, store and
writer encodes without ever building a matcher (``TestProductionRoute``).

The adversarial tables aim at the prefix bound: a prefix whose entries
skip lengths, a bound longer than the rest of the path, a table grown
after its index was built.
"""

import random
import sys

import pytest

from repro.baselines import AFSCodec, GFSCodec, RSSCodec
from repro.core import matcher as matcher_module
from repro.core.builder import TableBuilder
from repro.core.compressor import compress_path, compress_paths_flat
from repro.core.config import OFFSConfig
from repro.core.errors import TableError
from repro.core.flatcorpus import FlatCorpus
from repro.core.matcher import static_matcher_from_table
from repro.core.offs import OFFSCodec
from repro.core.sharded import ShardedIngest, ShardedPathStore, build_sharded_store
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.obs import instrumented
from repro.workloads.registry import DATASET_NAMES, make_dataset


def route_tokens(paths, table):
    """``{route name: tokens}`` of every encode route over *paths*."""
    paths = [tuple(p) for p in paths]
    routes = {
        "exact": [compress_path(p, table) for p in paths],
        "flat": compress_paths_flat(paths, table),
    }
    for backend in ("hash", "multilevel"):
        matcher = static_matcher_from_table(table, backend)
        routes[backend] = [compress_path(p, table, matcher) for p in paths]
    return routes


def assert_routes_agree(paths, table):
    routes = route_tokens(paths, table)
    expected = routes.pop("hash")
    for name, tokens in routes.items():
        assert tokens == expected, name
    return expected


def _random_corpus(rng, n_paths=120, alphabet=12, max_len=15):
    return [
        tuple(rng.randrange(alphabet) for _ in range(rng.randrange(max_len)))
        for _ in range(n_paths)
    ]


class TestFixtureCorpora:
    """Every fixture corpus, with the table OFFS fits on it."""

    @pytest.mark.parametrize(
        "fixture",
        ["simple_dataset", "repeated_path_dataset", "tiny_alibaba", "tiny_sanfrancisco"],
    )
    def test_conftest_corpora(self, request, fixture, exhaustive_config):
        dataset = request.getfixturevalue(fixture)
        table, _ = TableBuilder(exhaustive_config).build(dataset)
        assert len(table) > 0
        expected = assert_routes_agree(dataset, table)
        assert any(len(t) < len(p) for t, p in zip(expected, dataset))

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_workload_corpora(self, name):
        dataset = make_dataset(name, "tiny", seed=5)
        table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=0)).build(dataset)
        assert_routes_agree(dataset, table)


class TestRandomTables:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables_and_corpora(self, seed):
        rng = random.Random(seed)
        paths = _random_corpus(rng)
        subpaths = set()
        for _ in range(40):
            sp = tuple(rng.randrange(12) for _ in range(rng.randrange(2, 8)))
            subpaths.add(sp)
        table = SupernodeTable(1000, sorted(subpaths))
        assert_routes_agree(paths, table)

    def test_workload_scale(self):
        ds = make_dataset("alibaba", "tiny", seed=11)
        table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=1)).build(ds)
        matcher = static_matcher_from_table(table)
        expected = [compress_path(p, table, matcher) for p in ds]
        assert compress_paths_flat(ds.to_flat(), table) == expected
        assert [compress_path(p, table) for p in ds] == expected


class TestPrefixIndex:
    def test_bound_is_the_longest_entry_per_prefix(self):
        table = SupernodeTable(100, [(1, 2), (1, 2, 3, 4, 5), (1, 3, 4), (4, 5)])
        bounds, ids = table.prefix_index()
        assert bounds == {(1, 2): 5, (1, 3): 3, (4, 5): 2}
        assert ids[(1, 3, 4)] == 102
        assert table.prefix_index()[0] is bounds

    def test_prefix_bound_covers_every_match(self):
        # A real entry at (pos, L) always shares its 2-prefix with the
        # bound, so the bound is an upper bound on the longest real match.
        table = SupernodeTable(100, [(1, 2, 3), (1, 2), (4, 5), (2, 3, 4, 5)])
        bounds, ids = table.prefix_index()
        for path in [(1, 2, 3, 4, 5), (4, 5, 1, 2), (9, 9)]:
            for pos in range(len(path)):
                longest = max(
                    (n for n in range(2, len(path) - pos + 1) if path[pos : pos + n] in ids),
                    default=1,
                )
                assert bounds.get(path[pos : pos + 2], 1) >= longest

    def test_add_drops_the_index(self):
        table = SupernodeTable(100, [(1, 2)])
        assert table.prefix_index()[0] == {(1, 2): 2}
        table.add((1, 2, 3))
        assert table.prefix_index()[0] == {(1, 2): 3}


class TestAdversarial:
    def test_prefix_shared_by_lengths_two_and_five_only(self):
        # The bound (5) overshoots every length in between: the probe must
        # descend through 4 and 3, which are no entries, to the 2-entry.
        table = SupernodeTable(100, [(1, 2), (1, 2, 3, 4, 5)])
        paths = [(1, 2, 3, 4, 5), (1, 2, 3, 4, 9), (1, 2, 3, 9), (1, 2), (7, 1, 2, 3, 4, 5, 1)]
        assert assert_routes_agree(paths, table) == [
            (101,), (100, 3, 4, 9), (100, 3, 9), (100,), (7, 101, 1),
        ]

    def test_prefix_with_no_entry_of_length_two(self):
        table = SupernodeTable(100, [(1, 2, 3, 4, 5)])
        assert assert_routes_agree([(1, 2, 3, 4), (1, 2), (1, 2, 3, 4, 5)], table) == [
            (1, 2, 3, 4), (1, 2), (100,),
        ]

    def test_bound_longer_than_the_rest_of_the_path(self):
        table = SupernodeTable(100, [(1, 2, 3), (1, 2, 3, 4, 5, 6, 7, 8)])
        paths = [(1, 2, 3), (9, 1, 2, 3), (1, 2), (9, 9, 1, 2, 3, 4)]
        assert assert_routes_agree(paths, table) == [
            (100,), (9, 100), (1, 2), (9, 9, 100, 4),
        ]

    def test_empty_table(self):
        table = SupernodeTable(100)
        assert table.prefix_index()[0] == {}
        assert assert_routes_agree([(1, 2, 3), ()], table) == [(1, 2, 3), ()]

    def test_empty_corpus(self):
        table = SupernodeTable(100, [(1, 2, 3), (1, 2), (4, 5)])
        assert route_tokens([], table) == {
            "exact": [], "flat": [], "hash": [], "multilevel": [],
        }
        assert compress_paths_flat(FlatCorpus.from_paths([]), table) == []

    def test_paths_of_length_zero_and_one(self):
        table = SupernodeTable(100, [(1, 2), (1, 2, 3)])
        assert assert_routes_agree([(), (1,), (2,), ()], table) == [(), (1,), (2,), ()]

    def test_vertex_at_base_id_raises_the_same_error_on_every_route(self):
        table = SupernodeTable(100, [(1, 2), (4, 5)])
        messages = set()
        for path in [(1, 2, 100), (100,), (4, 5, 1, 150, 2)]:
            raisers = [
                lambda: compress_path(path, table),
                lambda: compress_paths_flat([path], table),
            ] + [
                lambda backend=backend: compress_path(
                    path, table, static_matcher_from_table(table, backend)
                )
                for backend in ("hash", "multilevel")
            ]
            for raiser in raisers:
                with pytest.raises(TableError, match="collides") as caught:
                    raiser()
                messages.add((path, str(caught.value)))
        assert len(messages) == 3

    def test_table_grown_after_its_index_was_built(self):
        table = SupernodeTable(100, [(1, 2), (3, 4)])
        paths = [(1, 2, 3, 4), (1, 2, 5, 6), (5, 6, 7)]
        assert assert_routes_agree(paths, table) == [(100, 101), (100, 5, 6), (5, 6, 7)]
        table.add((1, 2, 5, 6))
        table.add((5, 6, 7))
        assert assert_routes_agree(paths, table) == [(100, 101), (102,), (103,)]


def exact_work(paths, table):
    """The exact encoder's ``matcher.*`` counters over one bulk encode."""
    with instrumented() as obs:
        compress_paths_flat(paths, table)
    return obs.registry.counters()


class TestProbeWork:
    def test_never_more_probes_than_algorithm_6(self):
        rng = random.Random(3)
        paths = _random_corpus(rng, alphabet=6)
        table = SupernodeTable(
            1000,
            sorted({tuple(rng.randrange(6) for _ in range(rng.randrange(2, 9))) for _ in range(60)}),
        )
        exact = exact_work(paths, table)
        algorithm_6 = static_matcher_from_table(table)
        for path in paths:
            compress_path(path, table, algorithm_6)
        assert 0 < exact["matcher.probes"] <= algorithm_6.stats.probes
        assert exact["matcher.hashed_vertices"] <= algorithm_6.stats.hashed_vertices

    def test_at_most_delta_minus_one_probes_per_position(self):
        table = SupernodeTable(100, [(1, 2), (1, 2, 3, 4, 5, 6)])
        # Position 0 descends 6, 5, 4, 3, 2 (δ − 1 = 5 probes); 9 has no bound.
        work = exact_work([(1, 2, 3, 4, 5, 9)], table)
        assert work["matcher.probes"] == 5
        assert work["matcher.hashed_vertices"] == 6 + 5 + 4 + 3 + 2


@pytest.fixture()
def no_matcher(monkeypatch):
    """``static_matcher_from_table`` raises in every loaded ``repro`` module."""
    original = matcher_module.static_matcher_from_table

    def refuse(*args, **kwargs):
        raise AssertionError("production code built a static matcher")

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, "static_matcher_from_table", None) is original:
            monkeypatch.setattr(module, "static_matcher_from_table", refuse)


class TestProductionRoute:
    """Codecs, stores and writers run the exact encoder and build no matcher."""

    @pytest.mark.parametrize("make_codec", [
        lambda: OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0)),
        lambda: OFFSCodec.fast(sample_exponent=0),
        lambda: RSSCodec(capacity=32, sample_exponent=0),
        lambda: GFSCodec(capacity=32, sample_exponent=0),
        lambda: AFSCodec(threshold=4),
    ], ids=["OFFS", "OFFS*", "RSS", "GFS", "AFS"])
    def test_codecs(self, no_matcher, tiny_alibaba, make_codec):
        codec = make_codec().fit(tiny_alibaba)
        tokens = codec.compress_dataset(tiny_alibaba)
        assert [codec.compress_path(p) for p in tiny_alibaba] == tokens
        assert codec.decompress_dataset(tokens) == list(tiny_alibaba)

    def test_stores_and_writers(self, no_matcher, tiny_alibaba, tmp_path):
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0)).fit(tiny_alibaba)
        table = codec.table
        paths = list(tiny_alibaba)
        assert CompressedPathStore.from_corpus(paths, table).retrieve_all() == paths
        built = build_sharded_store(paths, table, str(tmp_path / "built.rpsm"), shards=3)
        out = str(tmp_path / "ingest.rpsm")
        with ShardedIngest(out, train_after=50, memtable_paths=64) as ingest:
            ingest.feed_many(paths)
        for manifest in (built, out):
            with ShardedPathStore.open(manifest) as store:
                assert store.retrieve_all() == paths

    def test_extend_reads_tuples_in_place(self, tiny_alibaba, monkeypatch):
        table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=0)).build(tiny_alibaba)
        paths = list(tiny_alibaba)
        per_path = CompressedPathStore(table)
        for path in paths:
            per_path.append(path)
        interned = []
        from_paths = FlatCorpus.from_paths.__func__

        def spy(cls, *args, **kwargs):
            interned.append(args)
            return from_paths(cls, *args, **kwargs)

        corpus = FlatCorpus.from_paths(paths)
        monkeypatch.setattr(FlatCorpus, "from_paths", classmethod(spy))
        for source in (paths, (p for p in paths), corpus):
            store = CompressedPathStore(table)
            assert store.extend(source) == list(range(len(paths)))
            assert store.tokens() == per_path.tokens()
        assert interned == []
