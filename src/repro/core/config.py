"""Configuration for OFFS table construction and compression.

The paper's tunables, with its deployed defaults (Section VI-A):

* ``delta`` (δ = 8) — maximum subpath length stored in the table, hence the
  longest match the greedy compressor attempts (Algorithm 2).
* ``alpha`` (α = 5) — primary-key length of the two-level hash matcher
  (Algorithm 7); only meaningful for the ``multilevel`` matcher backend.
* ``iterations`` (τ, paper's ``i``; default 4 = the paper's *default mode*,
  2 = *fast mode* OFFS*) — number of merge/expansion refinement passes in
  ``TConstruct*`` (Algorithm 5).
* ``sample_exponent`` (k; default 7) — one path in every ``2**k`` is used for
  table construction, the paper's sample rate of 128.
* ``beta`` (β = 500) — candidate capacity divisor: ``λ = nodes / beta``.
  The paper sets λ "linear to |P| with a fixed factor β"; its space analysis
  (candidate heap ≈ λ·δ bytes with observed overhead ν < 0.03 of the input
  at β = 500, δ = 8) pins β down as a *divisor* of the node count.  The
  top-λ filter at the end of each iteration is also what evicts one-off
  "parasitic" candidates (unique-prefix merges) before they can shadow truly
  frequent sequences in the next pass.  ``capacity`` overrides λ directly.
* ``min_final_weight`` — finalization drops candidates seen fewer times
  (Example 2 drops "the useless ones with weight one").
* ``matcher`` — the candidate set of table construction (Algorithm 5):
  ``"hash"`` (Algorithm 6, the production matcher) or ``"multilevel"``
  (Algorithm 7, the paper's reference).  The table is identical across
  backends.  Compressing against the finished table does not depend on
  it: every codec, store and writer runs the table's exact 2-prefix
  encoder.
* ``topdown_rounds`` (default 0 = off) — hybrid top-down refinement passes
  after the bottom-up iterations (the §IV-D optimization (1); see
  :mod:`repro.core.topdown`).
* ``reorder`` (default ``"identity"`` = off) — compression-aware vertex
  reordering strategy applied before table construction
  (:mod:`repro.paths.reorder`): ``frequency`` gives the hottest vertices
  the smallest ids (cheapest varints).  The codec fits the order alongside
  the table and stores invert it on retrieval, so callers always see
  original ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.errors import ConfigError

MATCHER_BACKENDS = ("hash", "multilevel")


@dataclass(frozen=True)
class OFFSConfig:
    """Immutable OFFS parameter set; see module docstring for semantics."""

    delta: int = 8
    alpha: int = 5
    iterations: int = 4
    sample_exponent: int = 7
    beta: float = 500.0
    capacity: Optional[int] = None
    min_final_weight: int = 2
    matcher: str = "hash"
    topdown_rounds: int = 0
    reorder: str = "identity"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delta < 2:
            raise ConfigError("delta must be >= 2 (supernodes are at least edges)")
        if not 1 <= self.alpha:
            raise ConfigError("alpha must be >= 1")
        if self.alpha >= self.delta:
            raise ConfigError("alpha must be < delta (secondary keys need room)")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.sample_exponent < 0:
            raise ConfigError("sample_exponent must be >= 0")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError("capacity must be >= 1 when given")
        if self.min_final_weight < 1:
            raise ConfigError("min_final_weight must be >= 1")
        if self.matcher not in MATCHER_BACKENDS:
            raise ConfigError(f"matcher must be one of {MATCHER_BACKENDS}, got {self.matcher!r}")
        if self.topdown_rounds < 0:
            raise ConfigError("topdown_rounds must be >= 0")
        if self.reorder != "identity":
            # Imported lazily: repro.paths.reorder pulls in the paths
            # package, which this module must not require at import time.
            from repro.paths.reorder import ORDER_STRATEGIES

            if self.reorder not in ORDER_STRATEGIES:
                raise ConfigError(
                    f"reorder must be one of {ORDER_STRATEGIES}, got {self.reorder!r}"
                )

    @property
    def sample_stride(self) -> int:
        """The paper's ``s``: use one path in every ``2**k``."""
        return 1 << self.sample_exponent

    def lambda_for(self, total_nodes: int) -> int:
        """Candidate-set capacity λ for a dataset of *total_nodes* vertices.

        ``λ = max(64, total_nodes / beta)``; the floor keeps tiny test
        datasets from degenerating to a near-empty table.
        """
        if self.capacity is not None:
            return self.capacity
        return max(64, int(total_nodes / self.beta))

    def with_(self, **changes) -> "OFFSConfig":
        """Return a copy with *changes* applied (validated)."""
        return replace(self, **changes)

    @classmethod
    def default_mode(cls, **overrides) -> "OFFSConfig":
        """The paper's OFFS default mode: ``(i, k) = (4, 7)``."""
        return cls(**{"iterations": 4, "sample_exponent": 7, **overrides})

    @classmethod
    def fast_mode(cls, **overrides) -> "OFFSConfig":
        """The paper's OFFS* fast mode: ``(i, k) = (2, 7)``."""
        return cls(**{"iterations": 2, "sample_exponent": 7, **overrides})
