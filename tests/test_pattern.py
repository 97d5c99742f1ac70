"""Unit and property tests for waypoint/wildcard path patterns."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.queries.pattern import ANY, GAP, PathPattern, match_pattern
from repro.workloads.registry import make_dataset


class TestMatchPattern:
    def test_exact(self):
        assert match_pattern((1, 2, 3), (1, 2, 3))
        assert not match_pattern((1, 2, 3), (1, 2))
        assert not match_pattern((1, 2), (1, 2, 3))

    def test_any_is_exactly_one(self):
        assert match_pattern((1, 9, 3), (1, ANY, 3))
        assert not match_pattern((1, 9, 9, 3), (1, ANY, 3))
        assert not match_pattern((1, 3), (1, ANY, 3))

    def test_gap_is_zero_or_more(self):
        assert match_pattern((1, 3), (1, GAP, 3))
        assert match_pattern((1, 9, 9, 9, 3), (1, GAP, 3))
        assert not match_pattern((1, 9, 9), (1, GAP, 3))

    def test_leading_and_trailing_gaps(self):
        assert match_pattern((7, 8, 1, 2, 9), (GAP, 1, 2, GAP))
        assert match_pattern((1, 2), (GAP, 1, 2, GAP))

    def test_multiple_gaps_with_backtracking(self):
        # The first gap must not swallow the 5 the second literal needs.
        assert match_pattern((1, 5, 2, 5, 3), (1, GAP, 5, GAP, 3))
        assert not match_pattern((1, 2, 3), (1, GAP, 5, GAP, 3))

    def test_gap_only_pattern(self):
        assert match_pattern((), (GAP,))
        assert match_pattern((1, 2, 3), (GAP,))

    def test_empty_path_against_literal(self):
        assert not match_pattern((), (1,))

    def test_repeated_vertex_backtracking(self):
        # Classic glob pitfall: GAP must backtrack past an early partial hit.
        assert match_pattern((1, 2, 2, 2, 3), (GAP, 2, 2, 3))


class TestPathPattern:
    def test_doctest_examples(self):
        assert PathPattern([1, GAP, 5]).matches((1, 2, 3, 5))
        assert not PathPattern([1, ANY, 5]).matches((1, 2, 3, 5))

    def test_containing(self):
        pattern = PathPattern.containing([2, 3])
        assert pattern.matches((1, 2, 3, 4))
        assert not pattern.matches((1, 3, 2, 4))

    def test_via(self):
        pattern = PathPattern.via(1, [5], 9)
        assert pattern.matches((1, 2, 5, 7, 9))
        assert pattern.matches((1, 5, 9))
        assert not pattern.matches((1, 2, 9))     # waypoint missing
        assert not pattern.matches((0, 1, 5, 9))  # wrong source

    def test_concrete_vertices(self):
        assert PathPattern([1, GAP, ANY, 5]).concrete_vertices == (1, 5)

    def test_consecutive_gaps_collapse(self):
        assert PathPattern([1, GAP, GAP, 2]).elements == (1, GAP, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathPattern([])
        with pytest.raises(ValueError):
            PathPattern([1, -2])
        with pytest.raises(ValueError):
            PathPattern([1, "x"])


class TestPatternSearcher:
    """``store.pattern_search`` against a brute-force scan."""

    @pytest.fixture(scope="class")
    def setup(self):
        dataset = make_dataset("sanfrancisco", "tiny")
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
        store = CompressedPathStore.from_codec(dataset, codec)
        return dataset, store

    def test_via_matches_brute_force(self, setup):
        dataset, store = setup
        host = dataset[4]
        src, way, dst = host[0], host[len(host) // 2], host[-1]
        pattern = PathPattern.via(src, [way], dst)
        expected = [i for i, p in enumerate(dataset) if pattern.matches(p)]
        assert store.pattern_search_hits(pattern)[0] == expected
        assert store.pattern_search(pattern) == [dataset[i] for i in expected]

    def test_containing_matches_brute_force(self, setup):
        dataset, store = setup
        fragment = tuple(dataset[7][2:5])
        pattern = PathPattern.containing(fragment)
        expected = [i for i, p in enumerate(dataset) if pattern.matches(p)]
        assert store.pattern_search_hits(pattern)[0] == expected

    def test_wildcard_only_pattern_scans_everything(self, setup):
        dataset, store = setup
        length = len(dataset[0])
        pattern = PathPattern([ANY] * length)
        expected = [i for i, p in enumerate(dataset) if len(p) == length]
        assert store.pattern_search_hits(pattern)[0] == expected

    def test_no_match(self, setup):
        _, store = setup
        assert store.pattern_search_hits(PathPattern([10**9, GAP, 10**9 + 1]))[0] == []


@settings(max_examples=80)
@given(
    path=st.lists(st.integers(0, 6), max_size=10).map(tuple),
    pattern=st.lists(
        st.one_of(st.integers(0, 6), st.just(ANY), st.just(GAP)),
        min_size=1, max_size=6,
    ),
)
def test_match_agrees_with_regex_oracle(path, pattern):
    """Glob matching must agree with a regex built from the same pattern."""
    import re

    parts = []
    for element in pattern:
        if element is ANY:
            parts.append("x[0-9]+,")
        elif element is GAP:
            parts.append("(x[0-9]+,)*")
        else:
            parts.append(f"x{element},")
    text = "".join(f"x{v}," for v in path)
    oracle = re.fullmatch("".join(parts), text) is not None
    assert match_pattern(path, tuple(pattern)) == oracle
