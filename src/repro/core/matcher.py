"""Candidate sets and longest-prefix matching (Algorithm 6).

Both table construction (Algorithm 5) and compression (Algorithm 2) repeatedly
ask one question: *starting at position ``pos`` of path ``P``, what is the
longest sequence, no longer than ``cap``, that is present in a given set of
candidate subpaths?*  This module defines the interface for that question and
its baseline answer, a flat hash table probed from the longest length down
(exactly Algorithm 6 of the paper).

The flat hash is the production matcher.  The two-level hash of Algorithm 7
(:mod:`repro.core.multilevel`) is the paper's reference backend: both
return identical match lengths — they differ only in probe cost — which the
test suite checks property-based.  Bulk encode probes neither: it runs the
vectorized batch kernel of :mod:`repro.core.rollhash`.

Weights: a candidate set also tracks a non-negative integer weight per
candidate (the *practical frequency* counter of Section IV-A).  Weight
bookkeeping is driven by the builder; matching itself never mutates weights,
keeping (de)compression side-effect free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigError, InvalidInputError

if TYPE_CHECKING:
    from repro.core.rollhash import FlatBatchKernel

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

    With numpy, bulk encode does not call :meth:`longest_match`: whatever
    the backend, :func:`~repro.core.compressor.compress_paths_flat` runs the
    vectorized :class:`~repro.core.rollhash.FlatBatchKernel` from
    :meth:`flat_kernel` and publishes the kernel's work on ``self.stats``.
    """

    def __init__(self) -> None:
        from repro.core.probestats import ProbeStats

        #: Work counters for the §IV-C cost analysis (see
        #: :mod:`repro.core.probestats`).
        self.stats = ProbeStats()
        self._kernel: Optional["FlatBatchKernel"] = None

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

    def flat_kernel(self, table) -> "FlatBatchKernel":
        """The batch kernel for *table*, memoized per table (by identity).

        Batch consumers call once per corpus or chunk; the memo amortizes
        the kernel's table hashing and membership bitmaps across calls.
        It assumes *table* is frozen once compression starts, which holds
        for every finished :class:`~repro.core.supernode_table.SupernodeTable`.
        """
        from repro.core.rollhash import FlatBatchKernel

        kernel = self._kernel
        if kernel is None or kernel.table is not table:
            kernel = FlatBatchKernel(table)
            self._kernel = kernel
        return kernel

    # -- shared bookkeeping (concrete) -----------------------------------------

    def increment(self, seq: Sequence[int], by: int = 1) -> None:
        """Add *by* to the weight of an existing candidate or insert it."""
        self.add(seq, by)

    def reset_weights(self) -> None:
        """Zero every weight (start of a construction iteration)."""
        for seq, _ in list(self.items()):
            self.set_weight(seq, 0)

    def set_weight(self, seq: Sequence[int], weight: int) -> None:
        """Force the weight of *seq* to *weight* (inserting if needed)."""
        current = self.weight(seq)
        if current is None:
            self.add(tuple(seq), weight)
        else:
            self.add(tuple(seq), weight - current)

    def top_candidates(self, count: int) -> List[Tuple[Subpath, int]]:
        """The *count* best candidates under the paper's ranking.

        Ranking is by practical weighted frequency ``weight × length``;
        ties prefer the longer candidate *unless* its weight is 1
        (Example 1's stated rule), then higher weight, then lexicographic
        order for determinism.
        """
        def key(entry: Tuple[Subpath, int]):
            seq, w = entry
            gain = w * len(seq)
            tie_len = len(seq) if w > 1 else 0
            return (-gain, -tie_len, -w, seq)

        ranked = sorted(self.items(), key=key)
        return ranked[:count]

    def prune_to_top(self, count: int) -> int:
        """Keep only the top-*count* candidates; return how many were dropped.

        This is line 17 of Algorithm 5 ("keep top-λ items in H").
        """
        if len(self) <= count:
            return 0
        keep = {seq for seq, _ in self.top_candidates(count)}
        dropped = 0
        for seq, _ in list(self.items()):
            if seq not in keep:
                self.discard(seq)
                dropped += 1
        return dropped


class HashCandidates(CandidateSet):
    """Flat hash-table candidate set — the Algorithm 6 baseline.

    ``longest_match`` probes lengths from the cap downward, hashing a fresh
    tuple per probe: the ``O(δ²)`` behaviour Example 3 illustrates.
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

    def longest_match(self, path: Sequence[int], pos: int, cap: int) -> int:
        limit = min(cap, self._max_len, len(path) - pos)
        weights = self._weights
        stats = self.stats
        for length in range(limit, 1, -1):
            stats.probes += 1
            stats.hashed_vertices += length
            if tuple(path[pos : pos + length]) in weights:
                return length
        return 1

    def items(self) -> Iterator[Tuple[Subpath, int]]:
        return iter(list(self._weights.items()))

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"HashCandidates(entries={len(self._weights)})"


def static_matcher_from_table(table, backend: str = "hash") -> CandidateSet:
    """Build a read-only-use matcher over a finished supernode table.

    The compressor (Algorithm 2) needs longest-prefix probes against the
    *static* inverted table; reusing the candidate-set backends keeps one
    matching implementation for both phases.  Weights are irrelevant here.

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
