"""Property-based equivalence of the matcher backends.

Algorithm 6 (flat hash) and Algorithm 7 (two-level hash) must be
*observationally identical*: same contents → same weights, same
longest-match answers at every position and cap.  Only probe cost may
differ.  Hypothesis drives random candidate sets and queries through both
at once.

Bulk encode probes neither backend: it runs the batch kernel's rolling
window hashes and verifies every nomination.  The kernel appears here at
an adversarial 2-bit hash width, where nearly every window collides — the
verify/descend loop must keep its output identical to the per-path loop.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compressor import compress_dataset, compress_paths_flat
from repro.core.matcher import HashCandidates
from repro.core.multilevel import MultiLevelCandidates
from repro.core.supernode_table import SupernodeTable

from conftest import narrow_kernel_matcher, narrow_only_nominations

candidate = st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=8).map(tuple)
candidates = st.lists(st.tuples(candidate, st.integers(min_value=1, max_value=5)), max_size=30)
query_path = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=20).map(tuple)

#: A fixed corpus over the same alphabet, long enough that a 2-bit kernel
#: collides on it for any non-empty table.
_RNG = random.Random(0)
_COLLISION_PROBE = [tuple(_RNG.randrange(10) for _ in range(20)) for _ in range(30)]


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
def test_colliding_kernel_encodes_identically(entries, queries):
    table = SupernodeTable(100, sorted(set(entries)))
    paths = queries + _COLLISION_PROBE
    assert narrow_only_nominations(table, paths, 2) > 0
    matcher = narrow_kernel_matcher(table, 2)
    assert compress_paths_flat(paths, table, matcher) == compress_dataset(paths, table)
