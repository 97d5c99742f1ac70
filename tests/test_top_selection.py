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


#: The configurations the golden tables are built under: the ingest
#: warm-up's (``sample_exponent=0``, as ``ShardedIngest`` fits its table),
#: the degenerate ``iterations=0`` mode (one non-generating pass), and one
#: top-down round at a capacity large enough that the round trims.
CONFIGS = {
    "warmup": {"sample_exponent": 0},
    "iterations0": {"sample_exponent": 0, "iterations": 0},
    "topdown1": {"sample_exponent": 0, "topdown_rounds": 1, "beta": 20.0},
}

#: ``zlib.crc32(dumps_table(table))``, the build counters
#: ``(candidates_pruned, matcher.probes, matcher.hashed_vertices)`` and each
#: iteration's ``matches_counted`` for each configuration on each generated
#: workload (seed 0); ``medium`` is its first 1,000 paths, the ingest
#: warm-up's sample.  Recorded with the reference scan loop (and, for
#: ``warmup`` on tiny and small, when construction still sorted every
#: candidate at line 17).  The two-level matcher probes differently but
#: must build the same table, except under top-down trimming, whose
#: cut-and-recount order follows the backend's iteration order.
GOLDEN = {
    ("warmup", "tiny", "alibaba", "hash"): (3525418815, 9373, 25530, 109358, (3365, 1757, 1232, 1215)),
    ("warmup", "tiny", "alibaba", "multilevel"): (3525418815, 9373, 22756, 76710, (3365, 1757, 1232, 1215)),
    ("warmup", "tiny", "porto", "hash"): (1681510867, 17208, 52189, 230955, (4426, 2258, 1775, 1622)),
    ("warmup", "tiny", "porto", "multilevel"): (1681510867, 17208, 43281, 149867, (4426, 2258, 1775, 1622)),
    ("warmup", "tiny", "rome", "hash"): (417970727, 13908, 42315, 188414, (3914, 2010, 1551, 1321)),
    ("warmup", "tiny", "rome", "multilevel"): (417970727, 13908, 35177, 121990, (3914, 2010, 1551, 1321)),
    ("warmup", "small", "alibaba", "hash"): (952302603, 47952, 158832, 679970, (33600, 18408, 11876, 11821)),
    ("warmup", "small", "alibaba", "multilevel"): (952302603, 47952, 154189, 508113, (33600, 18408, 11876, 11821)),
    ("warmup", "small", "porto", "hash"): (2357884831, 39872, 161059, 694032, (37640, 19951, 12365, 12090)),
    ("warmup", "small", "porto", "multilevel"): (2357884831, 39872, 156109, 521125, (37640, 19951, 12365, 12090)),
    ("warmup", "small", "rome", "hash"): (1934132356, 32711, 135567, 587547, (31658, 16613, 9995, 9729)),
    ("warmup", "small", "rome", "multilevel"): (1934132356, 32711, 131076, 439345, (31658, 16613, 9995, 9729)),
    ("warmup", "medium", "alibaba", "hash"): (647356835, 18120, 51768, 222663, (8381, 4438, 2973, 2946)),
    ("warmup", "medium", "alibaba", "multilevel"): (647356835, 18120, 47384, 158760, (8381, 4438, 2973, 2946)),
    ("warmup", "medium", "porto", "hash"): (26009355, 33615, 113303, 498189, (18510, 9934, 6708, 6627)),
    ("warmup", "medium", "porto", "multilevel"): (26009355, 33615, 101405, 345553, (18510, 9934, 6708, 6627)),
    ("warmup", "medium", "rome", "hash"): (3013346054, 31672, 123368, 538182, (26268, 13813, 8522, 8232)),
    ("warmup", "medium", "rome", "multilevel"): (3013346054, 31672, 116557, 392891, (26268, 13813, 8522, 8232)),
    ("iterations0", "tiny", "alibaba", "hash"): (2016191878, 973, 3365, 6730, (3365,)),
    ("iterations0", "tiny", "alibaba", "multilevel"): (2016191878, 973, 3365, 6730, (3365,)),
    ("iterations0", "tiny", "porto", "hash"): (996746969, 1917, 4426, 8852, (4426,)),
    ("iterations0", "tiny", "porto", "multilevel"): (996746969, 1917, 4426, 8852, (4426,)),
    ("iterations0", "tiny", "rome", "hash"): (1308265914, 1504, 3914, 7828, (3914,)),
    ("iterations0", "tiny", "rome", "multilevel"): (1308265914, 1504, 3914, 7828, (3914,)),
    ("topdown1", "tiny", "alibaba", "hash"): (3172117823, 7562, 27413, 122349, (3365, 1726, 1120, 1094)),
    ("topdown1", "tiny", "alibaba", "multilevel"): (3172117823, 7562, 25119, 85866, (3365, 1726, 1120, 1094)),
    ("topdown1", "tiny", "porto", "hash"): (164202216, 13205, 52828, 239652, (4426, 2201, 1502, 1294)),
    ("topdown1", "tiny", "porto", "multilevel"): (3876402258, 13205, 45263, 157789, (4426, 2201, 1502, 1294)),
    ("topdown1", "tiny", "rome", "hash"): (3896676225, 10110, 38437, 174446, (3914, 1951, 1228, 1057)),
    ("topdown1", "tiny", "rome", "multilevel"): (3955432674, 10110, 33780, 117455, (3914, 1951, 1228, 1057)),
}


def golden_id(key):
    """``size-workload-matcher``, prefixed with the configuration unless
    it is the warm-up's, the one the first pins were recorded under."""
    return "-".join(part for part in key if part != "warmup")


@pytest.mark.parametrize(
    "config,size,workload,matcher", sorted(GOLDEN), ids=map(golden_id, sorted(GOLDEN))
)
def test_golden_tables(config, size, workload, matcher):
    dataset = make_dataset(workload, size, seed=0)
    if size == "medium":
        dataset = list(dataset)[:1000]
    with instrumented() as obs:
        table, report = TableBuilder(
            OFFSConfig(matcher=matcher, **CONFIGS[config])
        ).build(dataset)
    counters = obs.registry.counters()
    assert (
        zlib.crc32(dumps_table(table)),
        counters["build.candidates_pruned"],
        counters["build.matcher.probes"],
        counters["build.matcher.hashed_vertices"],
        tuple(stats.matches_counted for stats in report.iterations),
    ) == GOLDEN[config, size, workload, matcher]
