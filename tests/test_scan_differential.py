"""The fused Algorithm 5 scan against the reference loop.

``HashCandidates.scan`` inlines the probe, the increment and the
merge/expansion inserts of ``CandidateSet.scan``.  Hypothesis runs both on
twin candidate sets, iteration by iteration with the λ prune in between,
and requires after every step the same weights in the same insertion
order, the same ``_max_len``, the same probe counters and the same match
count.
"""

from hypothesis import given, settings, strategies as st

from repro.core.matcher import CandidateSet, HashCandidates

# A small alphabet makes repeats, and so matches and merges, common; lists
# and tuples both reach the scan, as they do through ``run_iteration``.
vertex_path = st.lists(st.integers(0, 5), min_size=0, max_size=14)
paths_strategy = st.lists(
    st.one_of(vertex_path, vertex_path.map(tuple)), min_size=0, max_size=12
)
iteration = st.tuples(
    st.integers(1, 12),  # cap, often above delta
    st.booleans(),  # generate
    st.integers(0, 30),  # lambda
)


def state(cands):
    return (
        list(cands._weights.items()),
        cands._max_len,
        cands.stats.probes,
        cands.stats.hashed_vertices,
    )


def twins(paths, seeded):
    fused, reference = HashCandidates(), HashCandidates()
    if seeded:
        edges = dict.fromkeys(e for p in paths for e in zip(p, p[1:]))
        for cands in (fused, reference):
            for edge in edges:
                cands.add(edge, 1)
    return fused, reference


@settings(max_examples=300, deadline=None)
@given(
    paths_strategy,
    st.integers(2, 9),
    st.booleans(),
    st.lists(iteration, min_size=1, max_size=5),
)
def test_fused_scan_equals_the_reference_loop(paths, delta, seeded, iterations):
    fused, reference = twins(paths, seeded)
    for cap, generate, lam in iterations:
        fused.reset_weights()
        CandidateSet.reset_weights(reference)
        assert state(fused) == state(reference)
        got = fused.scan(paths, cap, delta, generate)
        want = CandidateSet.scan(reference, paths, cap, delta, generate)
        assert got == want
        assert state(fused) == state(reference)
        assert fused.prune_to_top(lam) == reference.prune_to_top(lam)
        assert state(fused) == state(reference)


def test_an_empty_set_matches_what_it_inserted_earlier_in_the_scan():
    paths = [[1, 2, 1, 2, 1, 2]]
    fused, reference = twins(paths, seeded=False)
    assert fused.scan(paths, 8, 2) == CandidateSet.scan(reference, paths, 8, 2) == 2
    assert state(fused) == state(reference)
    # (1, 2) is merged from the first two bare vertices, then matched at
    # positions 2 and 4; (2, 1) is both a truncated merge and an expansion.
    assert fused._weights == {(1, 2): 3, (2, 1): 2}
    assert (fused.stats.probes, fused.stats.hashed_vertices) == (2, 4)


def test_non_generating_pass_only_counts():
    paths = [[1, 2, 3, 1, 2, 3], (4,), [], [1, 2]]
    fused, reference = twins(paths, seeded=True)
    for cands in (fused, reference):
        cands.add((1, 2, 3), 0)
    assert fused.scan(paths, 4, 8, generate=False) == CandidateSet.scan(
        reference, paths, 4, 8, generate=False
    ) == 3
    assert state(fused) == state(reference)
    # Weights are not reset by the scan, and nothing is inserted.
    assert fused._weights == {(1, 2): 2, (2, 3): 1, (3, 1): 1, (1, 2, 3): 2}
