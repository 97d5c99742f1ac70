"""Unit tests for Algorithms 1 and 2 (per-path compression/decompression)."""

import random

import pytest

from repro.core.compressor import (
    compress_path,
    compress_paths_flat,
    decompress_path,
    decompress_paths_flat,
)
from repro.core.config import MATCHER_BACKENDS
from repro.core.errors import TableError
from repro.core.flatcorpus import FlatCorpus
from repro.core.matcher import static_matcher_from_table
from repro.core.supernode_table import SupernodeTable
from repro.obs import instrumented


@pytest.fixture()
def table():
    return SupernodeTable(100, [(1, 2, 3), (1, 2), (4, 5)])


class TestCompress:
    def test_greedy_prefers_longest(self, table):
        # (1,2,3) beats (1,2) at position 0.
        assert compress_path((1, 2, 3, 9), table) == (100, 9)

    def test_falls_back_to_shorter_match(self, table):
        assert compress_path((1, 2, 9), table) == (101, 9)

    def test_unmatched_vertices_pass_through(self, table):
        assert compress_path((7, 8, 9), table) == (7, 8, 9)

    def test_consecutive_matches(self, table):
        assert compress_path((1, 2, 3, 4, 5), table) == (100, 102)

    def test_empty_path(self, table):
        assert compress_path((), table) == ()

    def test_no_overlapping_matches(self, table):
        # Greedy consumption: after matching (1,2,3), matching restarts at 4.
        # The embedded (4,5) still matches because it is aligned.
        assert compress_path((1, 2, 3, 4, 5, 1, 2), table) == (100, 102, 101)

    def test_empty_table(self):
        table = SupernodeTable(100)
        assert compress_path((1, 2, 3), table) == (1, 2, 3)

    def test_literal_colliding_with_id_space_raises(self, table):
        with pytest.raises(TableError, match="collides"):
            compress_path((100, 1), table)

    def test_shared_matcher_gives_same_result(self, table):
        matcher = static_matcher_from_table(table)
        path = (1, 2, 3, 4, 5, 9)
        assert compress_path(path, table, matcher) == compress_path(path, table)


class TestDecompress:
    def test_expands_supernodes(self, table):
        assert decompress_path((100, 9), table) == (1, 2, 3, 9)

    def test_passes_vertices_through(self, table):
        assert decompress_path((7, 8), table) == (7, 8)

    def test_mixed_stream(self, table):
        assert decompress_path((7, 101, 102), table) == (7, 1, 2, 4, 5)

    def test_unknown_supernode_raises(self, table):
        with pytest.raises(TableError):
            decompress_path((150,), table)

    def test_empty(self, table):
        assert decompress_path((), table) == ()


class TestRoundtrip:
    @pytest.mark.parametrize(
        "path",
        [
            (1, 2, 3),
            (1, 2),
            (4, 5, 1, 2, 3),
            (9, 8, 7, 6),
            (1, 2, 3, 1, 2, 3),
            (),
            (1,),
        ],
    )
    def test_roundtrip(self, table, path):
        assert decompress_path(compress_path(path, table), table) == path

    def test_dataset_roundtrip(self, table):
        paths = [(1, 2, 3, 9), (4, 5), (6, 7)]
        tokens = compress_paths_flat(paths, table)
        assert decompress_paths_flat(tokens, table) == [tuple(p) for p in paths]


def reference_tokens(paths, table, backend):
    """The Algorithm 6 / 7 reference route: a per-path loop over a matcher."""
    matcher = static_matcher_from_table(table, backend)
    return [compress_path(p, table, matcher) for p in paths]


class TestFlatBatch:
    PATHS = [(1, 2, 3, 9), (4, 5), (6, 7), (), (1, 2, 3, 4, 5, 1, 2)]

    @pytest.mark.parametrize("backend", MATCHER_BACKENDS)
    def test_matches_per_path_loop(self, table, backend):
        expected = reference_tokens(self.PATHS, table, backend)
        assert compress_paths_flat(self.PATHS, table) == expected

    def test_accepts_corpus_and_iterables(self, table):
        expected = [compress_path(p, table) for p in self.PATHS]
        corpus = FlatCorpus.from_paths(self.PATHS)
        assert compress_paths_flat(corpus, table) == expected
        assert compress_paths_flat(iter(self.PATHS), table) == expected

    def test_as_corpus_round_trip(self, table):
        tokens = FlatCorpus.from_paths(compress_paths_flat(self.PATHS, table))
        restored = decompress_paths_flat(tokens, table)
        assert restored == [tuple(p) for p in self.PATHS]

    def test_decompress_as_corpus(self, table):
        tokens = compress_paths_flat(self.PATHS, table)
        restored = decompress_paths_flat(tokens, table, as_corpus=True)
        assert isinstance(restored, FlatCorpus)
        assert restored.to_paths() == [tuple(p) for p in self.PATHS]

    def test_literal_collision_raises_for_every_backend(self, table):
        with pytest.raises(TableError, match="collides"):
            compress_paths_flat([(100, 1)], table)
        for backend in MATCHER_BACKENDS:
            with pytest.raises(TableError, match="collides"):
                reference_tokens([(100, 1)], table, backend)

    def test_empty_corpus(self, table):
        assert compress_paths_flat([], table) == []
        assert decompress_paths_flat([], table) == []


@pytest.fixture()
def blocked_case():
    """A random table and a 61-path corpus with empty paths and a long one."""
    rng = random.Random(7)
    table = SupernodeTable(
        1000,
        sorted({
            tuple(rng.randrange(10) for _ in range(rng.randrange(2, 6)))
            for _ in range(40)
        }),
    )
    paths = [
        tuple(rng.randrange(10) for _ in range(rng.randrange(0, 9)))
        for _ in range(60)
    ]
    paths[5] = ()
    paths[30] = tuple(rng.randrange(10) for _ in range(48))
    paths.append(())
    return table, paths


class TestBlockedBulkEncode:
    """Bulk encode runs one exact encoder over any input form."""

    @pytest.mark.parametrize("backend", MATCHER_BACKENDS)
    def test_every_backend_matches_per_path_loop(self, blocked_case, backend):
        table, paths = blocked_case
        assert compress_paths_flat(paths, table) == reference_tokens(paths, table, backend)

    def test_counters_equal_across_input_forms(self, blocked_case):
        table, paths = blocked_case
        names = ("compress.symbols_in", "compress.symbols_out",
                 "matcher.probes", "matcher.hashed_vertices")
        results = []
        for source in (lambda: (p for p in paths), lambda: list(paths),
                       lambda: FlatCorpus.from_paths(paths)):
            with instrumented() as obs:
                tokens = compress_paths_flat(source(), table)
            got = obs.registry.counters()
            results.append((tokens, tuple(got[name] for name in names)))
        tokens, counters = results[0]
        assert tokens == [compress_path(p, table) for p in paths]
        assert counters[0] == sum(map(len, paths)) and counters[2] > 0
        assert results == [results[0]] * 3
