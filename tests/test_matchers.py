"""Unit tests for the two candidate-set / prefix-matcher backends.

The contract: both backends return identical longest-match lengths for the
same contents (Algorithm 6 and Algorithm 7 differ only in probe cost).
Backend-specific behaviour is tested in its own class; the equivalence
property lives in ``test_matcher_equivalence.py``.
"""

import pytest

from repro.core.config import MATCHER_BACKENDS
from repro.core.matcher import HashCandidates, make_candidate_set
from repro.core.multilevel import MultiLevelCandidates


@pytest.fixture(params=MATCHER_BACKENDS)
def cands(request):
    return make_candidate_set(request.param, alpha=3)


class TestCommonBehaviour:
    def test_add_and_weight(self, cands):
        cands.add((1, 2), 2)
        cands.add((1, 2), 3)
        assert cands.weight((1, 2)) == 5

    def test_missing_weight_is_none(self, cands):
        assert cands.weight((9, 9)) is None

    def test_contains(self, cands):
        cands.add((1, 2))
        assert (1, 2) in cands
        assert (2, 1) not in cands

    def test_len(self, cands):
        cands.add((1, 2))
        cands.add((1, 2, 3))
        cands.add((1, 2))
        assert len(cands) == 2

    def test_discard(self, cands):
        cands.add((1, 2))
        cands.discard((1, 2))
        assert (1, 2) not in cands
        cands.discard((1, 2))  # idempotent

    def test_single_vertex_rejected(self, cands):
        with pytest.raises(ValueError):
            cands.add((1,))

    def test_items(self, cands):
        cands.add((1, 2), 4)
        cands.add((3, 4, 5), 1)
        assert dict(cands.items()) == {(1, 2): 4, (3, 4, 5): 1}

    def test_longest_match_prefers_longer(self, cands):
        cands.add((1, 2))
        cands.add((1, 2, 3, 4))
        path = (1, 2, 3, 4, 5)
        assert cands.longest_match(path, 0, 8) == 4

    def test_longest_match_respects_cap(self, cands):
        cands.add((1, 2))
        cands.add((1, 2, 3, 4))
        path = (1, 2, 3, 4, 5)
        assert cands.longest_match(path, 0, 2) == 2

    def test_longest_match_no_candidate_returns_one(self, cands):
        cands.add((7, 8))
        assert cands.longest_match((1, 2, 3), 0, 8) == 1

    def test_longest_match_at_offset(self, cands):
        cands.add((3, 4))
        assert cands.longest_match((1, 2, 3, 4), 2, 8) == 2

    def test_longest_match_near_path_end(self, cands):
        cands.add((2, 3))
        assert cands.longest_match((1, 2, 3), 2, 8) == 1  # only vertex 3 left

    def test_reset_weights(self, cands):
        cands.add((1, 2), 5)
        cands.reset_weights()
        assert cands.weight((1, 2)) == 0

    def test_set_weight(self, cands):
        cands.add((1, 2), 5)
        cands.set_weight((1, 2), 2)
        assert cands.weight((1, 2)) == 2
        cands.set_weight((8, 9), 7)
        assert cands.weight((8, 9)) == 7

    def test_increment(self, cands):
        cands.add((1, 2))
        cands.increment((1, 2))
        assert cands.weight((1, 2)) == 2


class TestRanking:
    def test_top_candidates_by_weighted_frequency(self, cands):
        cands.add((1, 2), 10)          # gain 20
        cands.add((3, 4, 5, 6), 4)     # gain 16
        cands.add((7, 8), 1)           # gain 2
        top = cands.top_candidates(2)
        assert [seq for seq, _ in top] == [(1, 2), (3, 4, 5, 6)]

    def test_tie_prefers_longer(self, cands):
        cands.add((1, 2), 6)        # gain 12
        cands.add((3, 4, 5), 4)     # gain 12, longer wins
        top = cands.top_candidates(1)
        assert top[0][0] == (3, 4, 5)

    def test_tie_does_not_prefer_longer_when_weight_one(self, cands):
        # Example 1's caveat: "unless it has a frequency of 1".
        cands.add((1, 2), 3)            # gain 6
        cands.add((3, 4, 5, 6, 7, 8), 1)  # gain 6 but weight 1
        top = cands.top_candidates(1)
        assert top[0][0] == (1, 2)

    def test_prune_to_top(self, cands):
        cands.add((1, 2), 10)
        cands.add((3, 4), 5)
        cands.add((5, 6), 1)
        dropped = cands.prune_to_top(2)
        assert dropped == 1
        assert (5, 6) not in cands
        assert len(cands) == 2

    def test_prune_noop_when_under_capacity(self, cands):
        cands.add((1, 2))
        assert cands.prune_to_top(5) == 0


class TestMultiLevelSpecifics:
    def test_split_across_h1_h2(self):
        ml = MultiLevelCandidates(alpha=2)
        ml.add((1, 2))          # H1
        ml.add((1, 2, 3, 4))    # H2: primary (1,2), secondary (3,4)
        assert ml.weight((1, 2)) == 1
        assert ml.weight((1, 2, 3, 4)) == 1
        assert len(ml) == 2

    def test_discard_long_candidate_cleans_bucket(self):
        ml = MultiLevelCandidates(alpha=2)
        ml.add((1, 2, 3, 4))
        ml.discard((1, 2, 3, 4))
        assert len(ml) == 0
        assert ml._h2 == {}

    def test_promote_prefixes_side_effect(self):
        # Algorithm 7 lines 12-13: failed suffix probe registers the prefix.
        ml = MultiLevelCandidates(alpha=2, promote_prefixes=True)
        ml.add((1, 2, 3, 4))
        assert ml.longest_match((1, 2, 9, 9), 0, 8) == 2
        assert ml.weight((1, 2)) == 1

    def test_no_promotion_by_default(self):
        ml = MultiLevelCandidates(alpha=2)
        ml.add((1, 2, 3, 4))
        assert ml.longest_match((1, 2, 9, 9), 0, 8) == 1
        assert ml.weight((1, 2)) is None

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            MultiLevelCandidates(alpha=0)

    def test_probe_cost_bound_minimized_near_half_delta(self):
        # Lemma 3: the optimum of max(α², (δ-α)²) sits near δ/2.
        costs = {a: MultiLevelCandidates(alpha=a).probe_cost_bound(8) for a in (1, 4, 7)}
        assert costs[4] < costs[1] and costs[4] < costs[7]


class TestFactory:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_candidate_set("bloom")

    def test_factory_types(self):
        assert isinstance(make_candidate_set("hash"), HashCandidates)
        assert isinstance(make_candidate_set("multilevel"), MultiLevelCandidates)
