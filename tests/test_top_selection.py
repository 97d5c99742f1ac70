"""Algorithm 5's top-λ step keeps exactly the full sort's prefix.

``CandidateSet.top_candidates`` / ``prune_to_top`` select the λ best
candidates without sorting all of them.  Hypothesis holds both backends to
a reference full sort, with the ranking key written out here on its own,
over tie-heavy weight distributions; the flat backend's closed-form probe
counters are held to a per-probe loop; and golden CRCs of finished tables
pin Algorithm 5's output on the generated workloads, so any drift in
construction fails here.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import TableBuilder
from repro.core.config import OFFSConfig
from repro.core.errors import InvalidInputError
from repro.core.matcher import HashCandidates
from repro.core.multilevel import MultiLevelCandidates
from repro.core.probestats import ProbeStats
from repro.core.serialize import dumps_table
from repro.obs import instrumented
from repro.workloads import make_dataset


def reference_key(entry):
    """The paper's ranking: gain, then length unless weight 1, weight, sequence."""
    seq, weight = entry
    gain = weight * len(seq)
    tie_len = len(seq) if weight > 1 else 0
    return (-gain, -tie_len, -weight, seq)


def reference_top(entries, count):
    return sorted(entries, key=reference_key)[:count]


# Short sequences over a small alphabet and small weights make gains
# collide constantly, so the λ boundary usually falls inside a tie group.
candidate = st.lists(st.integers(0, 5), min_size=2, max_size=6).map(tuple)
weighted = st.dictionaries(candidate, st.integers(0, 4), max_size=40)
#: Every candidate has gain 6: length 2 at weight 3, length 3 at weight 2,
#: length 6 at weight 1.
equal_gain = st.lists(
    st.sampled_from([2, 3, 6]).flatmap(
        lambda n: st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple)
    ),
    max_size=40,
).map(lambda seqs: {seq: 6 // len(seq) for seq in seqs})
contents = st.one_of(weighted, equal_gain)


def backends(weights):
    out = [HashCandidates(), MultiLevelCandidates(alpha=3)]
    for cands in out:
        for seq, weight in weights.items():
            cands.add(seq, weight)
    return out


@given(contents, st.integers(0, 45))
def test_top_candidates_equal_the_full_sort(weights, count):
    expected = reference_top(list(weights.items()), count)
    for cands in backends(weights):
        assert cands.top_candidates(count) == expected


@given(contents, st.integers(0, 45))
def test_prune_to_top_keeps_the_full_sort_prefix(weights, count):
    expected = dict(reference_top(list(weights.items()), count))
    for cands in backends(weights):
        dropped = cands.prune_to_top(count)
        assert dropped == len(weights) - len(expected)
        assert dict(cands.items()) == expected


@given(weighted)
def test_prune_keeps_insertion_order_of_survivors(weights):
    cands = HashCandidates()
    for seq, weight in weights.items():
        cands.add(seq, weight)
    cands.prune_to_top(len(weights) // 2)
    survivors = [seq for seq, _ in cands.items()]
    kept = set(survivors)
    assert survivors == [seq for seq in weights if seq in kept]


class TestBoundaries:
    def test_tie_group_straddles_lambda(self):
        weights = {(1, 2): 9, (3, 4): 3, (5, 6): 3, (7, 8, 9): 2, (1, 3, 5, 7, 9, 2): 1}
        # One entry above the boundary gain 6, four tied at it.
        for count in range(len(weights) + 2):
            expected = reference_top(list(weights.items()), count)
            for cands in backends(weights):
                assert cands.top_candidates(count) == expected

    def test_zero_keeps_nothing(self):
        for cands in backends({(1, 2): 3, (2, 3): 1}):
            assert cands.top_candidates(0) == []
            assert cands.prune_to_top(0) == 2
            assert len(cands) == 0

    def test_count_at_or_past_size_keeps_everything(self):
        weights = {(1, 2): 3, (2, 3): 1, (4, 5, 6): 0}
        for count in (3, 4, 100):
            for cands in backends(weights):
                assert cands.top_candidates(count) == reference_top(list(weights.items()), 3)
                assert cands.prune_to_top(count) == 0
                assert len(cands) == 3

    def test_negative_count_is_rejected(self):
        for cands in backends({(1, 2): 3}):
            with pytest.raises(InvalidInputError):
                cands.top_candidates(-1)
            with pytest.raises(InvalidInputError):
                cands.prune_to_top(-1)


def per_probe_longest_match(weights, max_len, path, pos, cap, stats):
    """Algorithm 6 with one counter update per probe (the reference)."""
    limit = min(cap, max_len, len(path) - pos)
    for length in range(limit, 1, -1):
        stats.probes += 1
        stats.hashed_vertices += length
        if tuple(path[pos : pos + length]) in weights:
            return length
    return 1


@settings(max_examples=60)
@given(weighted, st.lists(st.integers(0, 5), min_size=1, max_size=20).map(tuple),
       st.integers(1, 10))
def test_closed_form_probe_counts_equal_per_probe_counts(weights, path, cap):
    cands = HashCandidates()
    for seq, weight in weights.items():
        cands.add(seq, weight)
    reference = ProbeStats()
    max_len = max(map(len, weights), default=0)
    for pos in range(len(path) + 1):
        expected = per_probe_longest_match(weights, max_len, path, pos, cap, reference)
        assert cands.longest_match(path, pos, cap) == expected
    assert cands.stats == reference


#: ``zlib.crc32(dumps_table(table))`` and the build counters
#: ``(candidates_pruned, matcher.probes, matcher.hashed_vertices)`` of
#: ``OFFSConfig(sample_exponent=0)`` on each generated workload (seed 0),
#: recorded when construction still sorted every candidate at line 17.
GOLDEN = {
    ("tiny", "alibaba", "hash"): (3525418815, 9373, 25530, 109358),
    ("tiny", "alibaba", "multilevel"): (3525418815, 9373, 22756, 76710),
    ("tiny", "porto", "hash"): (1681510867, 17208, 52189, 230955),
    ("tiny", "porto", "multilevel"): (1681510867, 17208, 43281, 149867),
    ("tiny", "rome", "hash"): (417970727, 13908, 42315, 188414),
    ("tiny", "rome", "multilevel"): (417970727, 13908, 35177, 121990),
    ("small", "alibaba", "hash"): (952302603, 47952, 158832, 679970),
    ("small", "alibaba", "multilevel"): (952302603, 47952, 154189, 508113),
    ("small", "porto", "hash"): (2357884831, 39872, 161059, 694032),
    ("small", "porto", "multilevel"): (2357884831, 39872, 156109, 521125),
    ("small", "rome", "hash"): (1934132356, 32711, 135567, 587547),
    ("small", "rome", "multilevel"): (1934132356, 32711, 131076, 439345),
}


@pytest.mark.parametrize("size,workload,matcher", sorted(GOLDEN))
def test_golden_tables(size, workload, matcher):
    dataset = make_dataset(workload, size, seed=0)
    with instrumented() as obs:
        table, _ = TableBuilder(OFFSConfig(sample_exponent=0, matcher=matcher)).build(dataset)
    counters = obs.registry.counters()
    assert (
        zlib.crc32(dumps_table(table)),
        counters["build.candidates_pruned"],
        counters["build.matcher.probes"],
        counters["build.matcher.hashed_vertices"],
    ) == GOLDEN[size, workload, matcher]
