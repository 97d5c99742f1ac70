"""Tests for the vectorized batch kernel of bulk encode.

The contract under test: ``FlatBatchKernel`` nominations drive
``compress_paths_flat`` to output byte-identical to the per-path loop,
including under forced hash collisions.
"""

import random

import pytest

from repro.core.builder import TableBuilder
from repro.core.compressor import compress_dataset, compress_paths_flat
from repro.core.config import OFFSConfig
from repro.core.flatcorpus import FlatCorpus
from repro.core.matcher import static_matcher_from_table
from repro.core.rollhash import FlatBatchKernel, _hash_sequence
from repro.core.supernode_table import SupernodeTable

from conftest import narrow_kernel_matcher, narrow_only_nominations


def _random_corpus(rng, n_paths=120, alphabet=12, max_len=15):
    return [
        tuple(rng.randrange(alphabet) for _ in range(rng.randrange(max_len)))
        for _ in range(n_paths)
    ]


class TestHashSequence:
    def test_masking(self):
        full = _hash_sequence((1, 2, 3), (1 << 64) - 1)
        low = _hash_sequence((1, 2, 3), (1 << 8) - 1)
        assert low == full & 0xFF

    def test_content_function(self):
        mask = (1 << 64) - 1
        assert _hash_sequence((1, 2), mask) == _hash_sequence((1, 2), mask)
        assert _hash_sequence((1, 2), mask) != _hash_sequence((2, 1), mask)


class TestFlatBatchKernel:
    @pytest.fixture()
    def table(self):
        return SupernodeTable(100, [(1, 2, 3), (1, 2), (4, 5), (2, 3, 4, 5)])

    def test_bad_hash_bits(self, table):
        with pytest.raises(ValueError):
            FlatBatchKernel(table, hash_bits=0)
        with pytest.raises(ValueError):
            FlatBatchKernel(table, hash_bits=65)

    def test_kernel_nominations_superset_of_matches(self, table):
        kernel = FlatBatchKernel(table)
        paths = [(1, 2, 3, 4, 5), (4, 5, 1, 2), (9, 9)]
        corpus = FlatCorpus.from_paths(paths)
        best = kernel.best_lengths(corpus)
        offsets = corpus.offsets
        inverted = table.inverted()
        for i, path in enumerate(paths):
            for pos in range(len(path)):
                nominated = best[offsets[i] + pos]
                # A true candidate at (pos, L) always hash-hits, so the
                # nomination is an upper bound on the longest real match.
                longest_real = 1
                for length in range(2, len(path) - pos + 1):
                    if path[pos : pos + length] in inverted:
                        longest_real = length
                assert nominated >= longest_real

    def test_batch_probes_counted(self, table):
        kernel = FlatBatchKernel(table)
        kernel.best_lengths(FlatCorpus.from_paths([(1, 2, 3, 4, 5)]))
        assert kernel.batch_probes > 0

    def test_empty_corpus(self, table):
        kernel = FlatBatchKernel(table)
        assert kernel.best_lengths(FlatCorpus.from_paths([])) == []

    def test_empty_table(self):
        kernel = FlatBatchKernel(SupernodeTable(100))
        best = kernel.best_lengths(FlatCorpus.from_paths([(1, 2, 3)]))
        assert best == [1, 1, 1]


class TestBatchEquivalence:
    """compress_paths_flat must be byte-identical to the per-path loop."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables_and_corpora(self, seed):
        rng = random.Random(seed)
        paths = _random_corpus(rng)
        subpaths = set()
        for _ in range(40):
            sp = tuple(rng.randrange(12) for _ in range(rng.randrange(2, 8)))
            subpaths.add(sp)
        table = SupernodeTable(1000, sorted(subpaths))
        expected = compress_dataset(paths, table)
        matcher = static_matcher_from_table(table)
        assert compress_paths_flat(paths, table, matcher) == expected

    @pytest.mark.parametrize("hash_bits", [8, 2, 1])
    def test_adversarial_collisions(self, hash_bits):
        # Tiny hash widths make nearly every window a false-positive
        # nomination; the verify/descend loop must still land on exactly
        # the greedy per-path answer.
        rng = random.Random(hash_bits)
        paths = _random_corpus(rng, n_paths=60, alphabet=6, max_len=12)
        table = SupernodeTable(
            1000,
            sorted({
                tuple(rng.randrange(6) for _ in range(rng.randrange(2, 6)))
                for _ in range(30)
            }),
        )
        assert narrow_only_nominations(table, paths, hash_bits) > 0
        matcher = narrow_kernel_matcher(table, hash_bits)
        assert compress_paths_flat(paths, table, matcher) == compress_dataset(paths, table)

    def test_workload_scale(self):
        from repro.workloads.registry import make_dataset

        ds = make_dataset("alibaba", "tiny", seed=11)
        table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=1)).build(ds)
        expected = compress_dataset(list(ds), table)
        matcher = static_matcher_from_table(table)
        assert compress_paths_flat(ds.to_flat(), table, matcher) == expected
