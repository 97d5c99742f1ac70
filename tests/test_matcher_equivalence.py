"""Property-based equivalence of the matcher backends.

Algorithm 6 (flat hash) and Algorithm 7 (two-level hash) must be
*observationally identical*: same contents → same weights, same
longest-match answers at every position and cap.  Only probe cost may
differ.  Hypothesis drives random candidate sets and queries through both
at once.

The writers probe neither backend: they run the table's exact encoder,
which bounds each position by a 2-prefix index.  It appears here on random
tables, where it must encode exactly like both backends' per-path loops.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compressor import compress_path, compress_paths_flat
from repro.core.matcher import HashCandidates, static_matcher_from_table
from repro.core.multilevel import MultiLevelCandidates
from repro.core.supernode_table import SupernodeTable

candidate = st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=8).map(tuple)
candidates = st.lists(st.tuples(candidate, st.integers(min_value=1, max_value=5)), max_size=30)
query_path = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=20).map(tuple)

#: A fixed corpus over the same alphabet, long enough that most short
#: table entries occur in it.
_RNG = random.Random(0)
_PROBE_CORPUS = [tuple(_RNG.randrange(10) for _ in range(20)) for _ in range(30)]


def _populate(entries):
    backends = [HashCandidates(), MultiLevelCandidates(alpha=4)]
    for seq, weight in entries:
        for backend in backends:
            backend.add(seq, weight)
    return backends


def _label(index, backend):
    return f"{index}:{type(backend).__name__}"


@given(candidates, query_path, st.integers(min_value=1, max_value=10))
def test_longest_match_identical(entries, path, cap):
    backends = _populate(entries)
    answers = {
        _label(i, b): [b.longest_match(path, pos, cap) for pos in range(len(path))]
        for i, b in enumerate(backends)
    }
    assert len(set(map(tuple, answers.values()))) == 1, answers


@given(candidates)
def test_contents_identical(entries):
    backends = _populate(entries)
    views = [dict(b.items()) for b in backends]
    assert all(view == views[0] for view in views)


@given(candidates, st.integers(min_value=1, max_value=10))
def test_top_candidates_identical(entries, keep):
    backends = _populate(entries)
    tops = [b.top_candidates(keep) for b in backends]
    assert all(top == tops[0] for top in tops)


@given(candidates, st.lists(candidate, max_size=10))
def test_discard_identical(entries, to_discard):
    backends = _populate(entries)
    for seq in to_discard:
        for b in backends:
            b.discard(seq)
    views = [dict(b.items()) for b in backends]
    assert all(view == views[0] for view in views)
    assert len({len(b) for b in backends}) == 1


@settings(max_examples=30)
@given(candidates, query_path)
def test_prune_then_match_identical(entries, path):
    backends = _populate(entries)
    for b in backends:
        b.prune_to_top(5)
    for pos in range(len(path)):
        answers = {b.longest_match(path, pos, 8) for b in backends}
        assert len(answers) == 1


@settings(max_examples=50)
@given(st.lists(candidate, min_size=1, max_size=30), st.lists(query_path, max_size=10))
def test_exact_encoder_encodes_identically(entries, queries):
    table = SupernodeTable(100, sorted(set(entries)))
    paths = queries + _PROBE_CORPUS
    hash_matcher = static_matcher_from_table(table, "hash")
    expected = [compress_path(p, table, hash_matcher) for p in paths]
    multilevel = static_matcher_from_table(table, "multilevel")
    assert [compress_path(p, table, multilevel) for p in paths] == expected
    assert [compress_path(p, table) for p in paths] == expected
    assert compress_paths_flat(paths, table) == expected
