"""Supernode-table construction — ``TConstruct*`` (Algorithm 5).

This is the heart of OFFS.  The builder selects supernodes by *practical
weighted frequency*: a candidate's weight counts only the matches the greedy
compression scheme would actually make, so overlapped candidates that lose
every match race (the *match collision issue* of Section IV-A) score zero and
fall out of the table.

The bottom-up loop, following the paper:

1. **Initialization** — every edge of the sampled paths enters the candidate
   set with weight 1 ("the weight suggests existence", Example 2).
2. **Iterations** ``it = 1 .. τ`` — weights reset, then each sampled path is
   scanned (:meth:`~repro.core.matcher.CandidateSet.scan`) for greedy
   longest matches under the per-iteration cap ``min(2**it, δ)``; every
   match of length > 1 earns its candidate one weight unit.  New candidates
   are generated from each adjacent pair of matches by

   * **merge** — the concatenation ``pre ⊕ match``, truncated to δ, and
   * **expansion** — ``pre ⊕ first-vertex-of-match`` when the match is longer
     than one vertex and ``pre`` still has room;

   the candidate set is live, so sequences created early in an iteration can
   be matched later in the same iteration.  After each iteration at most λ
   candidates survive (ranked by weight × length).
3. **Finalization** — candidates matched fewer than ``min_final_weight``
   times in the last iteration are dropped and the survivors become the
   :class:`~repro.core.supernode_table.SupernodeTable`, most valuable first
   (so frequent subpaths get the smallest supernode ids — free varint wins).

On the iteration cap: the pseudocode writes ``2^(i+1)`` with an unstated id
base; the worked Example 2 (length-2 matches in iteration one) and Exp-1
(candidates reach δ at iteration three, with δ = 8) pin it to ``2**it`` for
1-indexed ``it``, which is what we use.  See DESIGN.md §3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import OFFSConfig
from repro.core.flatcorpus import as_flat_corpus
from repro.core.matcher import CandidateSet, make_candidate_set
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import active_span, get_active


@dataclass
class IterationStats:
    """Bookkeeping for one construction iteration."""

    iteration: int
    cap: int
    candidates_before: int
    candidates_after: int
    pruned: int
    matches_counted: int
    elapsed_seconds: float


@dataclass
class BuildReport:
    """What happened during table construction (for benches and debugging)."""

    sampled_paths: int = 0
    sampled_nodes: int = 0
    lambda_capacity: int = 0
    iterations: List[IterationStats] = field(default_factory=list)
    topdown_trims: List[int] = field(default_factory=list)
    finalized_entries: int = 0
    dropped_at_finalization: int = 0
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"built {self.finalized_entries}-entry table from "
            f"{self.sampled_paths} sampled paths in "
            f"{len(self.iterations)} iterations "
            f"({self.elapsed_seconds:.3f}s, λ={self.lambda_capacity}, "
            f"{self.dropped_at_finalization} dropped at finalization)"
        )


class TableBuilder:
    """Runs ``TConstruct*`` over a path dataset.

    :param config: the OFFS parameter set.

    Use :meth:`build` for the one-shot path; the intermediate methods
    (:meth:`initialize`, :meth:`run_iteration`, :meth:`finalize`) are public
    so tests and the worked-example reproduction can inspect candidate state
    between stages, mirroring Table II of the paper.
    """

    def __init__(self, config: Optional[OFFSConfig] = None) -> None:
        self.config = config or OFFSConfig()

    # -- stages ------------------------------------------------------------------

    def initialize(self, paths: Sequence[Sequence[int]]) -> CandidateSet:
        """Stage 1: seed the candidate set with every distinct edge, weight 1."""
        with active_span(catalog.SPAN_BUILD_INITIALIZE) as span:
            cands = make_candidate_set(self.config.matcher, alpha=self.config.alpha)
            # Distinct edges in first-seen order: one dict lookup per edge.
            edges = dict.fromkeys(
                edge for path in paths for edge in zip(path, path[1:])
            )
            for edge in edges:
                cands.add(edge, 1)
            if span is not None:
                span.annotate(seed_candidates=len(cands))
        return cands

    def run_iteration(
        self,
        cands: CandidateSet,
        paths: Sequence[Sequence[int]],
        iteration: int,
        lam: int,
        generate: bool = True,
    ) -> IterationStats:
        """Stage 2: one merge/expansion pass (lines 3–17 of Algorithm 5).

        Zeroes the weights, runs the candidate set's
        :meth:`~repro.core.matcher.CandidateSet.scan` under the cap
        ``min(2**iteration, δ)`` (lines 4–16), then keeps the top *lam*
        (line 17).  The flat backend's scan is one fused loop; the
        two-level backend runs the reference loop over ``longest_match``.

        With ``generate=False`` the pass only counts practical matches of the
        existing candidates without creating merge/expansion sequences; the
        degenerate ``iterations=0`` mode and the top-down recount use this to
        turn weights into real frequencies.
        """
        started = time.perf_counter()
        delta = self.config.delta
        cap = min(1 << iteration, delta)
        before = len(cands)

        obs = get_active()
        probes_before = cands.stats.snapshot() if obs is not None else None

        with active_span(
            catalog.SPAN_BUILD_ITERATION, iteration=iteration, cap=cap
        ) as span:
            cands.reset_weights()
            matches_counted = cands.scan(paths, cap, delta, generate)
            scanned = len(cands)
            with active_span(catalog.SPAN_BUILD_PRUNE) as prune_span:
                pruned = cands.prune_to_top(lam)
                if prune_span is not None:
                    prune_span.annotate(
                        candidates_before=scanned, candidates_after=len(cands)
                    )
                    prune_span.add("pruned", pruned)
            if span is not None:
                span.annotate(candidates_before=before, candidates_after=len(cands))
                span.add("matches", matches_counted)
                span.add("pruned", pruned)
        if obs is not None:
            registry = obs.registry
            registry.counter(catalog.BUILD_ITERATIONS).inc()
            registry.counter(catalog.BUILD_MATCHES).inc(matches_counted)
            registry.counter(catalog.BUILD_CANDIDATES_PRUNED).inc(pruned)
            cands.stats.delta_since(probes_before).publish(
                registry, catalog.PROBE_PREFIX_BUILD_MATCHER
            )

        return IterationStats(
            iteration=iteration,
            cap=cap,
            candidates_before=before,
            candidates_after=len(cands),
            pruned=pruned,
            matches_counted=matches_counted,
            elapsed_seconds=time.perf_counter() - started,
        )

    def finalize(self, cands: CandidateSet, base_id: int) -> Tuple[SupernodeTable, int]:
        """Stage 3: drop one-off candidates, build the id-assigned table.

        Returns the table and the number of candidates dropped.
        """
        with active_span(catalog.SPAN_BUILD_FINALIZE):
            return self._finalize(cands, base_id)

    def _finalize(self, cands: CandidateSet, base_id: int) -> Tuple[SupernodeTable, int]:
        survivors = [
            (seq, w)
            for seq, w in cands.items()
            if w >= self.config.min_final_weight and len(seq) >= 2
        ]
        # Most valuable first: frequent long subpaths get the smallest ids.
        survivors.sort(key=lambda e: (-e[1] * len(e[0]), -len(e[0]), e[0]))
        table = SupernodeTable(base_id, (seq for seq, _ in survivors))
        return table, len(cands) - len(survivors)

    # -- one-shot ------------------------------------------------------------------

    def build(
        self,
        dataset,
        base_id: Optional[int] = None,
    ) -> Tuple[SupernodeTable, BuildReport]:
        """Construct a supernode table for *dataset*.

        :param dataset: a :class:`~repro.paths.dataset.PathDataset` (or any
            sequence of int sequences with ``max_vertex_id``-style content).
        :param base_id: first supernode id; defaults to one past the largest
            vertex id in *dataset* (not just the sample — compression must be
            able to emit ids for unsampled paths too).
        """
        started = time.perf_counter()
        report = BuildReport()

        with active_span(catalog.SPAN_BUILD, matcher=self.config.matcher) as span:
            # Intern the dataset once: base_id becomes a single vectorized
            # max over the flat buffer, and sampling
            # materializes only the sampled paths as tuples — the full
            # dataset never becomes a list of tuples here.
            corpus = as_flat_corpus(dataset)
            if base_id is None:
                max_id = corpus.max_vertex()
                base_id = max_id + 1 if max_id >= 0 else 1

            stride = self.config.sample_stride
            sampled = (corpus.every(stride) if stride > 1 else corpus).to_paths()
            report.sampled_paths = len(sampled)
            report.sampled_nodes = sum(len(p) for p in sampled)
            total_nodes = corpus.total_symbols
            lam = self.config.lambda_for(total_nodes)
            report.lambda_capacity = lam

            cands = self.initialize(sampled)
            for it in range(1, self.config.iterations + 1):
                report.iterations.append(self.run_iteration(cands, sampled, it, lam))

            if self.config.topdown_rounds > 0:
                from repro.core.topdown import TopDownRefiner

                refiner = TopDownRefiner(min_weight=self.config.min_final_weight)
                report.topdown_trims = refiner.refine(
                    cands, sampled, self, lam, rounds=self.config.topdown_rounds
                )

            if self.config.iterations == 0:
                # Degenerate i=0 mode (the leftmost points of Fig. 4a-d): no
                # refinement pass runs, so the table is just frequent edges.
                # Count one non-generating pass to turn the existence weights
                # into real frequencies for finalization to rank by.
                report.iterations.append(
                    self.run_iteration(cands, sampled, 1, lam, generate=False)
                )

            table, dropped = self.finalize(cands, base_id)
            report.finalized_entries = len(table)
            report.dropped_at_finalization = dropped
            report.elapsed_seconds = time.perf_counter() - started
            if span is not None:
                span.annotate(
                    sampled_paths=report.sampled_paths,
                    lambda_capacity=lam,
                    table_entries=len(table),
                )

        obs = get_active()
        if obs is not None:
            registry = obs.registry
            registry.counter(catalog.BUILD_SAMPLED_PATHS).inc(report.sampled_paths)
            registry.counter(catalog.BUILD_SAMPLED_NODES).inc(report.sampled_nodes)
            registry.counter(catalog.BUILD_DROPPED_AT_FINALIZATION).inc(dropped)
            registry.set_gauge(catalog.BUILD_TABLE_ENTRIES, len(table))
            registry.set_gauge(catalog.BUILD_LAMBDA_CAPACITY, lam)
            registry.observe(catalog.BUILD_SECONDS, report.elapsed_seconds)
        return table, report


def build_supernode_table(
    dataset,
    config: Optional[OFFSConfig] = None,
    base_id: Optional[int] = None,
) -> SupernodeTable:
    """Convenience wrapper: build and return just the table."""
    table, _ = TableBuilder(config).build(dataset, base_id=base_id)
    return table
