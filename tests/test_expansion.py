"""Tests for the memoized expansion cache and the decode fast paths.

Covers the tentpole contracts:

* :func:`flatten_subpaths` resolves nested (multilevel) supernode rules
  iteratively — deep chains don't recurse, cycles and dangling references
  are :class:`TableError`, never infinite loops;
* :class:`ExpansionCache` is memoized on the table, invalidated by
  ``add``, and observable through ``table.expansion_cache.*`` metrics;
* :func:`slice_token` matches ``decompress_path(...)[start:stop]`` for
  every slice shape Python allows (property-tested);
* :func:`decompress_paths_flat` (the vectorized gather kernel) is
  identical to the per-path loop.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compressor import decompress_path, decompress_paths_flat
from repro.core.errors import TableError
from repro.core.expansion import ExpansionCache, flatten_subpaths, slice_token
from repro.core.flatcorpus import FlatCorpus
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import instrumented

BASE = 100


@pytest.fixture()
def table():
    return SupernodeTable(BASE, [(1, 2, 3), (4, 5), (6, 7, 8, 9)])


class TestFlattenSubpaths:
    def test_flat_table_passes_through(self):
        by_id = {100: (1, 2), 101: (3, 4, 5)}
        assert flatten_subpaths(100, by_id) == by_id

    def test_forward_reference_resolved(self):
        # 100 references 101, declared later.
        by_id = {100: (1, 101, 9), 101: (2, 3)}
        flat = flatten_subpaths(100, by_id)
        assert flat[100] == (1, 2, 3, 9)
        assert flat[101] == (2, 3)

    def test_backward_reference_resolved(self):
        by_id = {100: (2, 3), 101: (1, 100, 9)}
        flat = flatten_subpaths(100, by_id)
        assert flat[101] == (1, 2, 3, 9)

    def test_multilevel_chain(self):
        by_id = {100: (1, 2), 101: (100, 3), 102: (101, 101), 103: (102, 4)}
        flat = flatten_subpaths(100, by_id)
        assert flat[102] == (1, 2, 3, 1, 2, 3)
        assert flat[103] == (1, 2, 3, 1, 2, 3, 4)

    def test_deep_chain_does_not_recurse(self):
        # A chain far deeper than Python's recursion limit: each entry
        # wraps the previous one.  Iterative resolution must handle it.
        depth = 5000
        by_id = {100: (1, 2)}
        for i in range(1, depth):
            by_id[100 + i] = (100 + i - 1, 3)
        flat = flatten_subpaths(100, by_id)
        assert len(flat[100 + depth - 1]) == 2 + (depth - 1)

    def test_cycle_detected(self):
        by_id = {100: (1, 101), 101: (2, 100)}
        with pytest.raises(TableError, match="cycle"):
            flatten_subpaths(100, by_id)

    def test_self_cycle_detected(self):
        with pytest.raises(TableError, match="cycle"):
            flatten_subpaths(100, {100: (1, 100)})

    def test_dangling_reference_detected(self):
        with pytest.raises(TableError, match="unknown supernode"):
            flatten_subpaths(100, {100: (1, 999)})


class TestExpansionCache:
    def test_expand_matches_table(self, table):
        cache = ExpansionCache.from_table(table)
        for sid, subpath in table:
            assert cache.expand(sid) == subpath

    def test_lengths(self, table):
        cache = ExpansionCache.from_table(table)
        assert cache.expansion_length(BASE) == 3
        assert cache.expansion_length(BASE + 1) == 2
        assert cache.symbol_length(7) == 1
        assert cache.symbol_length(BASE + 2) == 4

    def test_token_length(self, table):
        cache = ExpansionCache.from_table(table)
        token = (BASE, 50, BASE + 2, 51)
        assert cache.token_length(token) == len(decompress_path(token, table))

    def test_unknown_ids_raise(self, table):
        cache = ExpansionCache.from_table(table)
        with pytest.raises(TableError):
            cache.expand(999)
        with pytest.raises(TableError):
            cache.expansion_length(999)
        with pytest.raises(TableError):
            cache.token_length((999,))

    def test_items_in_id_order(self, table):
        cache = ExpansionCache.from_table(table)
        ids = [sid for sid, _ in cache.items()]
        assert ids == [BASE, BASE + 1, BASE + 2]

    def test_flat_views_aligned(self, table):
        cache = ExpansionCache.from_table(table)
        concat, starts = cache.flat_concat, cache.flat_starts
        for i, (sid, expansion) in enumerate(cache.items()):
            assert tuple(concat[starts[i] : starts[i + 1]]) == expansion

    def test_as_numpy_matches_arrays(self, table):
        cache = ExpansionCache.from_table(table)
        concat, starts, lengths = cache.as_numpy()
        assert list(concat) == list(cache.flat_concat)
        assert list(starts) == list(cache.flat_starts)
        assert list(lengths) == [3, 2, 4]

    def test_empty_table(self):
        cache = ExpansionCache.from_table(SupernodeTable(BASE))
        assert len(cache) == 0
        assert cache.token_length((1, 2, 3)) == 3

    def test_nested_table_flattens_once(self, table):
        # SupernodeTable.add forbids nesting today; a future multilevel
        # builder would write _by_id directly, so simulate that.
        table._by_id[BASE + 3] = (BASE, BASE + 1)
        table._by_subpath[(BASE, BASE + 1)] = BASE + 3
        table._expansion_cache = None
        cache = table.expansions()
        assert cache.expand(BASE + 3) == (1, 2, 3, 4, 5)
        assert cache.expansion_length(BASE + 3) == 5


class TestMemoization:
    def test_same_object_until_mutation(self, table):
        first = table.expansions()
        assert table.expansions() is first
        table.add((11, 12))
        second = table.expansions()
        assert second is not first
        assert second.expand(table.id_of((11, 12))) == (11, 12)

    def test_hit_miss_metrics(self, table):
        with instrumented() as obs:
            table.expansions()
            table.expansions()
            table.expansions()
            reg = obs.registry
            assert reg.counter(catalog.TABLE_EXPANSION_CACHE_MISSES).value == 1
            assert reg.counter(catalog.TABLE_EXPANSION_CACHE_HITS).value == 2
            assert reg.gauge(catalog.TABLE_EXPANSION_CACHE_ENTRIES).value == 3
            table.add((21, 22))
            table.expansions()
            assert reg.counter(catalog.TABLE_EXPANSION_CACHE_MISSES).value == 2


# Tokens over the fixture table: literals below BASE, supernodes BASE..BASE+2.
_symbols = st.one_of(
    st.integers(min_value=0, max_value=BASE - 1),
    st.integers(min_value=BASE, max_value=BASE + 2),
)
_tokens = st.lists(_symbols, max_size=12).map(tuple)
_bounds = st.one_of(st.none(), st.integers(min_value=-30, max_value=30))


class TestSliceToken:
    @settings(max_examples=200)
    @given(token=_tokens, start=_bounds, stop=_bounds)
    def test_matches_python_slicing(self, token, start, stop):
        table = SupernodeTable(BASE, [(1, 2, 3), (4, 5), (6, 7, 8, 9)])
        cache = table.expansions()
        full = decompress_path(token, table)
        assert slice_token(token, cache, start, stop) == full[start:stop]

    def test_empty_token(self, table):
        assert slice_token((), table.expansions(), 0, 5) == ()

    def test_defaults(self, table):
        token = (BASE, 42)
        assert slice_token(token, table.expansions()) == (1, 2, 3, 42)


class TestFlatDecodeIdentity:
    def _tokens(self):
        return [
            (BASE, 50, BASE + 2),
            (),
            (51,),
            (BASE + 1, BASE + 1, BASE),
            tuple(range(40, 60)),
        ]

    def test_numpy_kernel_matches_per_path(self, table):
        tokens = self._tokens()
        expected = [decompress_path(t, table) for t in tokens]
        assert decompress_paths_flat(tokens, table) == expected

    def test_as_corpus_output(self, table):
        tokens = self._tokens()
        corpus = decompress_paths_flat(tokens, table, as_corpus=True)
        assert isinstance(corpus, FlatCorpus)
        assert corpus.to_paths() == [decompress_path(t, table) for t in tokens]

    def test_empty_batch(self, table):
        assert decompress_paths_flat([], table) == []

    def test_unknown_supernode_raises(self, table):
        with pytest.raises(TableError):
            decompress_paths_flat([(BASE + 50,)], table)

    def test_flat_batch_counter(self, table):
        with instrumented() as obs:
            decompress_paths_flat([(BASE,)], table)
            assert obs.registry.counter(catalog.DECOMPRESS_FLAT_BATCHES).value == 1
