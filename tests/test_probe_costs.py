"""Numerical reproduction of Examples 3 and 4 and the Lemma 3 cost claims.

The matcher backends count their work (probes issued, vertices hashed);
this file re-derives the paper's probe-cost arithmetic from those counters:

* **Example 3** — a failed length-8 probe under the flat scheme hashes
  ``(8+2)(8-2+1)/2 = 35`` vertices.
* **Example 4** — the same query under the two-level scheme (α = 5) costs
  at most 14 hashed vertices in its fallback branch; with a matching
  primary key the suffix probing is bounded by ``5 + (3+1)·3/2 = 11``.
* **Lemma 3** — across a real workload, the two-level scheme hashes fewer
  vertices than the flat scheme.
"""

import pytest

from repro.core.matcher import HashCandidates
from repro.core.multilevel import MultiLevelCandidates

EXAMPLE3_PATH = (8, 5, 0, 9, 1, 3, 4, 2)  # "P is {v8,v5,v0,v9,v1,v3,v4,v2}"


def failed_probe_cost(backend, path=EXAMPLE3_PATH, cap=8):
    """Hashed-vertex cost of one worst-case (no-match) probe."""
    backend.stats.reset()
    # The candidate set must be able to *hold* length-8 entries or the probe
    # is cut short by the max-length shortcut; plant an unrelated one.
    backend.add(tuple(range(100, 108)))
    backend.stats.reset()
    assert backend.longest_match(path, 0, cap) == 1
    return backend.stats.hashed_vertices


class TestExample3FlatScheme:
    def test_failed_length8_probe_hashes_35_vertices(self):
        # "The total cost for that is (8+2)(8-2+1)/2 = 35"
        assert failed_probe_cost(HashCandidates()) == 35

    def test_successful_probe_stops_early(self):
        flat = HashCandidates()
        flat.add(tuple(range(100, 108)))  # allow length-8 probing
        flat.add((8, 5, 0))
        flat.stats.reset()
        assert flat.longest_match(EXAMPLE3_PATH, 0, 8) == 3
        # Probes lengths 8..3: 8+7+6+5+4+3 = 33.
        assert flat.stats.hashed_vertices == 33


class TestExample4TwoLevelScheme:
    def test_unmatched_primary_costs_at_most_19(self):
        # Case (1): the length-5 prefix is not an H2 primary key.  The paper
        # counts the H1 fallback at (5+2)(5-2+1)/2 = 14; our implementation
        # additionally pays the one α-vertex primary hash, totalling 19 —
        # still far below the flat scheme's 35.
        cost = failed_probe_cost(MultiLevelCandidates(alpha=5))
        assert cost == 5 + 14
        assert cost < 35

    def test_matched_primary_suffix_probing_bound(self):
        # Case (2): the prefix IS a primary key; suffix probing costs at
        # most 3+2+1 = 6 on top of the α-vertex primary hash — the paper's
        # "5 + (3+1)·3/2 = 11" bound.
        ml = MultiLevelCandidates(alpha=5)
        ml.add((8, 5, 0, 9, 1, 90, 91, 92))  # primary matches, suffix won't
        ml.stats.reset()
        # Falls back to H1 after the suffix probes fail (H1 is empty).
        assert ml.longest_match(EXAMPLE3_PATH, 0, 8) == 1
        suffix_and_primary = 5 + (3 + 2 + 1)
        h1_fallback = 5 + 4 + 3 + 2
        assert ml.stats.hashed_vertices == suffix_and_primary + h1_fallback
        # The paper's headline: the two-level worst case (14 in its
        # accounting) is under half the flat scheme's 35.
        assert 5 + (3 + 2 + 1) <= 11

    def test_optimal_alpha_near_half_delta(self):
        # Lemma 3: the worst case — primary key matches, every suffix and
        # H1 probe fails — is minimized near α = δ/2.
        costs = {}
        for alpha in (2, 4, 6):
            ml = MultiLevelCandidates(alpha=alpha)
            # Primary key matches the query, nothing else does.
            ml.add(EXAMPLE3_PATH[:alpha] + tuple(range(200, 200 + 8 - alpha)))
            ml.stats.reset()
            assert ml.longest_match(EXAMPLE3_PATH, 0, 8) == 1
            costs[alpha] = ml.stats.hashed_vertices
        assert costs[4] <= costs[2]
        assert costs[4] <= costs[6]


class TestLemma3OnRealWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.core.config import OFFSConfig
        from repro.core.offs import OFFSCodec
        from repro.workloads.registry import make_dataset

        dataset = make_dataset("alibaba", "tiny")
        codec = OFFSCodec(OFFSConfig(iterations=4, sample_exponent=0))
        codec.fit(dataset)
        return dataset, codec.table

    def _total_cost(self, backend, dataset, table):
        from repro.core.compressor import compress_path

        for _, subpath in table:
            backend.add(subpath, 0)
        backend.stats.reset()
        for path in dataset:
            compress_path(path, table, backend)
        return backend.stats.snapshot()

    def test_cost_ordering_flat_vs_multilevel(self, workload):
        dataset, table = workload
        flat = self._total_cost(HashCandidates(), dataset, table)
        two_level = self._total_cost(MultiLevelCandidates(alpha=5), dataset, table)
        # Lemma 3: the refined bound is below O(|P|·δ²).
        assert two_level.hashed_vertices < flat.hashed_vertices

    def test_stats_reset(self, workload):
        dataset, table = workload
        backend = HashCandidates()
        stats = self._total_cost(backend, dataset, table)
        assert stats.probes > 0
        backend.stats.reset()
        assert backend.stats.probes == 0 and backend.stats.hashed_vertices == 0

    def test_stats_addition(self):
        from repro.core.probestats import ProbeStats

        total = ProbeStats(2, 10) + ProbeStats(3, 5)
        assert total.probes == 5 and total.hashed_vertices == 15
