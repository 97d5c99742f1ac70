"""Candidate sets and longest-prefix matching (Algorithm 6).

Both table construction (Algorithm 5) and compression (Algorithm 2) repeatedly
ask one question: *starting at position ``pos`` of path ``P``, what is the
longest sequence, no longer than ``cap``, that is present in a given set of
candidate subpaths?*  This module defines the interface for that question and
its baseline answer, a flat hash table probed from the longest length down
(exactly Algorithm 6 of the paper).

The flat hash is table construction's matcher.  The two-level hash of
Algorithm 7 (:mod:`repro.core.multilevel`) is the paper's reference
backend: both return identical match lengths — they differ only in probe
cost — which the test suite checks property-based.  Compressing against a
finished table probes neither by default: the exact encoder of
:func:`repro.core.compressor.compress_path` bounds each position with the
table's 2-prefix index instead, and a matcher passed explicitly is the
reference route that the probe-cost benches measure.

Weights: a candidate set also tracks a non-negative integer weight per
candidate (the *practical frequency* counter of Section IV-A).  Weight
bookkeeping is driven by the builder; matching itself never mutates weights,
keeping (de)compression side-effect free.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigError, InvalidInputError

Subpath = Tuple[int, ...]


class CandidateSet(ABC):
    """A weighted set of candidate subpaths supporting longest-prefix probes.

    Candidates are vertex sequences of length ≥ 2 (a single vertex never
    benefits from a table entry).  Implementations must keep
    :meth:`longest_match` consistent with the set contents: it returns the
    length of the longest candidate that is a prefix of
    ``path[pos:pos + cap]``, or ``1`` when no candidate matches (the paper's
    convention: an unmatched position contributes the single vertex).

    Every backend carries a :class:`~repro.core.probestats.ProbeStats` as
    ``self.stats`` — the §IV-C work counters that :meth:`longest_match`
    implementations must keep current in their own unit of work.  Reset it
    with ``stats.reset()`` between measurement batches; the
    :mod:`repro.obs` layer consumes it via snapshot/delta, never by
    replacing the object.

    Encoding against a finished table calls :meth:`longest_match` only on
    the reference route, ``compress_path(path, table, matcher)``; codecs,
    stores and :func:`~repro.core.compressor.compress_paths_flat` run the
    table's exact encoder and never build a matcher.
    """

    def __init__(self) -> None:
        from repro.core.probestats import ProbeStats

        #: Work counters for the §IV-C cost analysis (see
        #: :mod:`repro.core.probestats`).
        self.stats = ProbeStats()

    @abstractmethod
    def add(self, seq: Sequence[int], weight: int = 1) -> None:
        """Insert *seq* with *weight*, or add *weight* to an existing entry."""

    @abstractmethod
    def weight(self, seq: Sequence[int]) -> Optional[int]:
        """Current weight of *seq*, or ``None`` when absent."""

    @abstractmethod
    def discard(self, seq: Sequence[int]) -> None:
        """Remove *seq* if present (no-op otherwise)."""

    @abstractmethod
    def longest_match(self, path: Sequence[int], pos: int, cap: int) -> int:
        """Length of the longest candidate prefixing ``path[pos:pos+cap]``.

        Returns at least 1 (the bare vertex) and never more than
        ``min(cap, len(path) - pos)``.
        """

    @abstractmethod
    def items(self) -> Iterator[Tuple[Subpath, int]]:
        """Iterate ``(candidate, weight)`` pairs in unspecified order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of candidates currently stored."""

    def __contains__(self, seq: Sequence[int]) -> bool:
        return self.weight(seq) is not None

    # -- shared bookkeeping (concrete) -----------------------------------------

    def increment(self, seq: Sequence[int], by: int = 1) -> None:
        """Add *by* to the weight of an existing candidate or insert it."""
        self.add(seq, by)

    def reset_weights(self) -> None:
        """Zero every weight (start of a construction iteration)."""
        for seq, _ in list(self.items()):
            self.set_weight(seq, 0)

    def scan(
        self, paths: Sequence[Sequence[int]], cap: int, delta: int, generate: bool = True
    ) -> int:
        """One Algorithm 5 scan (lines 4–16) over *paths*; returns the match count.

        Each path is cut greedily into longest matches under *cap*; every
        match longer than one vertex earns its candidate one weight unit.
        With *generate*, each adjacent pair ``(pre, match)`` also inserts the
        merge ``pre ⊕ match`` truncated to *delta* and, when the match is
        longer than one vertex, the expansion ``pre ⊕ first vertex``.  The set
        is live: a candidate inserted early in the scan can match later in it.

        This is the reference loop over :meth:`longest_match`,
        :meth:`increment` and :meth:`add`; a backend may override it with a
        fused loop that leaves the same weights, insertion order and
        :attr:`stats`.
        """
        matches = 0
        for path in paths:
            n = len(path)
            if n < 2:
                continue
            # First match of the path (line 5).
            length = self.longest_match(path, 0, cap)
            match: Subpath = tuple(path[0:length])
            if length > 1:
                self.increment(match)
                matches += 1
            pos = length
            while pos < n:
                pre = match
                length = self.longest_match(path, pos, cap)
                match = tuple(path[pos : pos + length])
                if length > 1:
                    self.increment(match)
                    matches += 1
                if generate:
                    # Merge (lines 10-13): concatenate, truncated to delta.
                    # When pre already fills delta the truncation would
                    # reproduce pre itself, which must not earn it a second
                    # count.
                    room = delta - len(pre)
                    if room > 0:
                        self.add(pre + match[: min(len(match), room)])
                    # Expansion (lines 14-15): pre plus the next vertex.
                    # Skipped when the match is a single vertex because the
                    # merge above already produced exactly that sequence.
                    if length > 1 and len(pre) < delta:
                        self.add(pre + (path[pos],))
                pos += length
        return matches

    def set_weight(self, seq: Sequence[int], weight: int) -> None:
        """Force the weight of *seq* to *weight* (inserting if needed)."""
        current = self.weight(seq)
        if current is None:
            self.add(tuple(seq), weight)
        else:
            self.add(tuple(seq), weight - current)

    def top_candidates(self, count: int) -> List[Tuple[Subpath, int]]:
        """The *count* best candidates under the paper's ranking, best first.

        Ranking is by practical weighted frequency ``weight × length``;
        ties prefer the longer candidate *unless* its weight is 1
        (Example 1's stated rule), then higher weight, then lexicographic
        order for determinism (:func:`_rank_key`).  Only the winners are
        sorted; :func:`_top_indices` selects them.
        """
        entries = list(self.items())
        return sorted((entries[i] for i in _top_indices(entries, count)), key=_rank_key)

    def prune_to_top(self, count: int) -> int:
        """Keep only the top-*count* candidates; return how many were dropped.

        This is line 17 of Algorithm 5 ("keep top-λ items in H").
        """
        if len(self) <= count:
            return 0
        entries = list(self.items())
        keep = {entries[i][0] for i in _top_indices(entries, count)}
        for seq, _ in entries:
            if seq not in keep:
                self.discard(seq)
        return len(entries) - len(keep)


def _rank_key(entry: Tuple[Subpath, int]) -> Tuple[int, int, int, Subpath]:
    """Sort key of a ``(candidate, weight)`` pair: best ranks first.

    ``(-gain, -tie_len, -weight, candidate)`` with ``gain = weight ×
    length`` and ``tie_len`` the length, or 0 for a weight-1 candidate.
    Distinct candidates never share a key, so the order is total.
    """
    seq, w = entry
    tie_len = len(seq) if w > 1 else 0
    return (-w * len(seq), -tie_len, -w, seq)


def _top_indices(entries: List[Tuple[Subpath, int]], count: int) -> List[int]:
    """Positions in *entries*, ascending, of ``sorted(entries, key=_rank_key)[:count]``.

    Exact selection instead of the full sort: the *count*-th largest gain
    ``t`` comes from :func:`heapq.nlargest` over plain ints; every entry
    with a gain above ``t`` ranks before every entry at ``t``, so all of
    them are kept, and only the tie group at ``t`` is ranked with
    :func:`_rank_key` to fill the remaining places.  Fewer than *count*
    gains exceed ``t`` and at least *count* reach it, so the kept set is
    the sorted prefix exactly (the key is total).
    """
    if count < 0:
        raise InvalidInputError(f"count must be >= 0, got {count}")
    if count >= len(entries):
        return list(range(len(entries)))
    if count == 0:
        return []
    gains = [w * len(seq) for seq, w in entries]
    threshold = heapq.nlargest(count, gains)[-1]
    chosen = [i for i, gain in enumerate(gains) if gain > threshold]
    tied = [i for i, gain in enumerate(gains) if gain == threshold]
    tied.sort(key=lambda i: _rank_key(entries[i]))
    chosen += tied[: count - len(chosen)]
    chosen.sort()
    return chosen


class HashCandidates(CandidateSet):
    """Flat hash-table candidate set — the Algorithm 6 baseline.

    ``longest_match`` probes lengths from the cap downward, hashing a fresh
    tuple per probe: the ``O(δ²)`` behaviour Example 3 illustrates.  Table
    construction runs :meth:`scan`, the same probe, increment and inserts
    fused into one loop over the weight dict; the inherited
    :meth:`CandidateSet.scan` stays the reference it is tested against.
    """

    def __init__(self) -> None:
        super().__init__()
        self._weights: Dict[Subpath, int] = {}
        self._max_len = 0

    def add(self, seq: Sequence[int], weight: int = 1) -> None:
        sp = tuple(seq)
        if len(sp) < 2:
            raise InvalidInputError(f"candidates need >= 2 vertices, got {sp!r}")
        self._weights[sp] = self._weights.get(sp, 0) + weight
        if len(sp) > self._max_len:
            self._max_len = len(sp)

    def weight(self, seq: Sequence[int]) -> Optional[int]:
        return self._weights.get(tuple(seq))

    def discard(self, seq: Sequence[int]) -> None:
        self._weights.pop(tuple(seq), None)

    def increment(self, seq: Sequence[int], by: int = 1) -> None:
        sp = tuple(seq)
        weights = self._weights
        current = weights.get(sp)
        if current is None:
            self.add(sp, by)
        else:
            weights[sp] = current + by

    def longest_match(self, path: Sequence[int], pos: int, cap: int) -> int:
        limit = min(cap, self._max_len, len(path) - pos)
        weights = self._weights
        # Every length from limit down to the answer (or to 2) is probed,
        # one hash of each: the counters take the sum in closed form.
        for length in range(limit, 1, -1):
            if tuple(path[pos : pos + length]) in weights:
                probed = limit - length + 1
                stats = self.stats
                stats.probes += probed
                stats.hashed_vertices += (limit + length) * probed // 2
                return length
        if limit > 1:
            stats = self.stats
            stats.probes += limit - 1
            stats.hashed_vertices += (limit + 2) * (limit - 1) // 2
        return 1

    def reset_weights(self) -> None:
        self._weights = dict.fromkeys(self._weights, 0)

    def scan(
        self, paths: Sequence[Sequence[int]], cap: int, delta: int, generate: bool = True
    ) -> int:
        """The reference scan fused into one loop over the weight dict.

        :meth:`longest_match`'s probe, :meth:`increment` and :meth:`add` are
        inlined; everything they observe is kept: ``_max_len`` rises on
        every insert, so a later probe in the same scan sees the new
        candidate, inserts land in the same order, and the probe counters
        take the same closed form, summed once per scan.
        """
        weights = self._weights
        max_len = self._max_len
        # The probe ceiling min(cap, max_len); only a longer insert raises it.
        bound = min(cap, max_len)
        matches = probes = hashed = 0
        for path in paths:
            n = len(path)
            if n < 2:
                continue
            path = tuple(path)
            pos = 0
            match: Subpath = ()
            while pos < n:
                pre = match
                limit = n - pos
                if limit > bound:
                    limit = bound
                # Algorithm 6: lengths limit down to 2, first hit wins; the
                # counters take longest_match's closed form.
                length = 1
                if limit > 1:
                    for length in range(limit, 1, -1):
                        match = path[pos : pos + length]
                        if match in weights:
                            weights[match] += 1
                            matches += 1
                            probed = limit - length + 1
                            probes += probed
                            hashed += (limit + length) * probed // 2
                            break
                    else:
                        length = 1
                        probes += limit - 1
                        hashed += (limit + 2) * (limit - 1) // 2
                if length == 1:
                    match = path[pos : pos + 1]
                if generate and pos:
                    # Merge (lines 10-13), truncated to delta, then expansion
                    # (lines 14-15), both as in the reference.
                    room = delta - len(pre)
                    if room > 0:
                        merged = pre + match if length <= room else pre + match[:room]
                        weights[merged] = weights.get(merged, 0) + 1
                        if len(merged) > max_len:
                            max_len = len(merged)
                            bound = min(cap, max_len)
                        # The expansion is never longer than the merge.
                        if length > 1:
                            expanded = pre + match[:1]
                            weights[expanded] = weights.get(expanded, 0) + 1
                pos += length
        self._max_len = max_len
        stats = self.stats
        stats.probes += probes
        stats.hashed_vertices += hashed
        return matches

    def prune_to_top(self, count: int) -> int:
        weights = self._weights
        if len(weights) <= count:
            return 0
        entries = list(weights.items())
        # The survivors in insertion order; ``_max_len`` stays put, as it
        # does after ``discard``, so later probe counts are unchanged.
        self._weights = dict(entries[i] for i in _top_indices(entries, count))
        return len(entries) - len(self._weights)

    def items(self) -> Iterator[Tuple[Subpath, int]]:
        return iter(list(self._weights.items()))

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"HashCandidates(entries={len(self._weights)})"


def static_matcher_from_table(table, backend: str = "hash") -> CandidateSet:
    """Build a read-only-use matcher over a finished supernode table.

    The Algorithm 6 / 7 reference route of the compressor,
    ``compress_path(path, table, matcher)``, probes this *static*
    inverted table with the same candidate-set backends that table
    construction uses; the A1 and A4 benches and the equivalence tests
    measure it.  Weights are irrelevant here.

    :param table: a :class:`~repro.core.supernode_table.SupernodeTable`.
    :param backend: ``"hash"`` or ``"multilevel"``.
    """
    matcher = make_candidate_set(backend)
    for _, subpath in table:
        matcher.add(subpath, 0)
    return matcher


def make_candidate_set(backend: str, alpha: int = 5) -> CandidateSet:
    """Factory for candidate-set backends by name.

    :param backend: ``"hash"`` or ``"multilevel"``.
    :param alpha: primary-key length for the multilevel backend (ignored by
        the flat hash).
    """
    if backend == "hash":
        return HashCandidates()
    if backend == "multilevel":
        from repro.core.multilevel import MultiLevelCandidates

        return MultiLevelCandidates(alpha=alpha)
    raise ConfigError(f"unknown matcher backend {backend!r}")
