"""Parallel (de)compression over processes — the paper's OpenMP claim.

Section V: "we are able to implement pleasing parallelism on a finer
granularity as small as a path in ``O(|P|·δ²/p)`` on a p-core machine", and
likewise ``O(|P|/p)`` for decompression.  Both algorithms are pure functions
of (path, table), so the parallel scheme is embarrassing: chunk the input,
ship the table to each worker once, map.

Implementation notes:

* Every fan-out goes through one helper, :func:`_map_corpora`: one process
  runs the work in-process against one matcher; more map it over a ``fork``
  pool.  The sharded build (:mod:`repro.core.sharded`) passes it its own
  per-shard work.
  The parent builds the table's matcher once *before* forking, so workers
  inherit (table, matcher) copy-on-write — zero per-worker rebuild, and
  per-chunk pickling cost is the chunk payload only, never table copies.
* Chunks travel both directions as two machine-byte blobs (buffer +
  offsets): out as :class:`~repro.core.flatcorpus.FlatCorpus` shipping
  payloads (slicing a chunk out of the parent corpus is zero-copy, a
  memoryview of the shared buffer), back as result corpora whose ``array``
  buffers pickle as bytes — never a forest of integer tuples.
* Workers run the batch entry points (:func:`~repro.core.compressor.
  compress_paths_flat`); each chunk goes through the vectorized kernel.
  ``processes=1`` runs the *same* chunk functions in-process, so metric
  totals and probe counts are identical across process counts.

Observability: when :mod:`repro.obs` instrumentation is active in the
parent, each worker activates its own counters-only instrumentation at
initializer time, resets it per chunk, and ships the chunk's metric
snapshot back with the results; the parent folds every snapshot into its
registry.  Counter totals therefore equal the sequential run's exactly
(probe counts are pure per path — and, for the batch kernel, additive over
path-aligned chunks), while worker timers pool into CPU-time style
aggregates — see the differential test in
``tests/test_parallel_differential.py``.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.compressor import compress_paths_flat, decompress_paths_flat
from repro.core.errors import InvalidInputError
from repro.core.flatcorpus import FlatCorpus, ShippedCorpus, as_flat_corpus
from repro.core.matcher import CandidateSet, static_matcher_from_table
from repro.core.supernode_table import SupernodeTable
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import Instrumentation, activate, get_active
from repro.obs.spans import SpanTracer

_worker_table: Optional[SupernodeTable] = None
_worker_matcher: Optional[CandidateSet] = None
_worker_registry: Optional[MetricsRegistry] = None

#: One unit of fan-out work: ``(table, matcher, corpus) -> result``.  Module
#: level so a pool can pickle it by reference; the result must pickle cheaply
#: (a corpus the work built owns ``array`` buffers, which pickle as bytes).
_Work = Callable[[SupernodeTable, CandidateSet, FlatCorpus], Any]


def _init_worker_inherited(instrument: bool = False) -> None:
    """Fork-start initializer: the parent set the worker globals *before*
    the fork, so the child already holds table+matcher copy-on-write — no
    per-worker rebuild, no initargs pickling.  Only the instrumentation (a
    per-child registry) must be fresh: a forked child must never write into
    the (copied) parent registry, whose counts would be lost with the
    process."""
    global _worker_registry
    if instrument:
        _worker_registry = MetricsRegistry()
        activate(Instrumentation(_worker_registry, SpanTracer(enabled=False)))
    else:
        _worker_registry = None


@contextmanager
def _table_pool(
    processes: int, table: SupernodeTable, matcher: CandidateSet, instrument: bool
):
    """A ``fork`` pool whose workers inherit (table, matcher) worker state."""
    global _worker_table, _worker_matcher
    _worker_table = table
    _worker_matcher = matcher
    try:
        with multiprocessing.get_context("fork").Pool(
            processes, initializer=_init_worker_inherited, initargs=(instrument,)
        ) as pool:
            yield pool
    finally:
        _worker_table = None
        _worker_matcher = None


def _run_chunk(
    work: _Work, payload: ShippedCorpus
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Pool entry point: *work* on one shipped corpus, plus that chunk's
    metric snapshot (the worker registry is reset per chunk)."""
    assert _worker_table is not None and _worker_matcher is not None
    if _worker_registry is not None:
        _worker_registry.reset()
    result = work(_worker_table, _worker_matcher, FlatCorpus.from_shipping(payload))
    return result, None if _worker_registry is None else _worker_registry.as_dict()


def _map_corpora(
    work: _Work,
    corpora: Sequence[FlatCorpus],
    table: SupernodeTable,
    processes: int,
) -> List[Any]:
    """*work* applied to every corpus of *corpora*; results in input order.

    Worker metric snapshots fold into the parent's active registry, so
    counter totals equal the one-process run's for any process count.
    """
    if processes < 1:
        raise InvalidInputError("processes must be >= 1")
    matcher = static_matcher_from_table(table)
    if processes == 1 or not corpora:
        return [work(table, matcher, corpus) for corpus in corpora]
    obs = get_active()
    tasks = [(work, corpus.to_shipping()) for corpus in corpora]
    with _table_pool(min(processes, len(tasks)), table, matcher, obs is not None) as pool:
        results = pool.starmap(_run_chunk, tasks)
    if obs is not None:
        for _, metrics in results:
            obs.registry.merge_dict(metrics)
    return [result for result, _ in results]


def _compress_chunk(
    table: SupernodeTable, matcher: CandidateSet, corpus: FlatCorpus
) -> FlatCorpus:
    return compress_paths_flat(corpus, table, matcher, as_corpus=True)


def _decompress_chunk(
    table: SupernodeTable, matcher: CandidateSet, corpus: FlatCorpus
) -> FlatCorpus:
    return decompress_paths_flat(corpus, table, as_corpus=True)


def _chunked(
    work: _Work,
    items: Sequence[Sequence[int]],
    table: SupernodeTable,
    processes: int,
    chunk_size: int,
) -> List[Tuple[int, ...]]:
    """Run *work* over *chunk_size*-path chunks of *items*, concatenated."""
    chunks = list(as_flat_corpus(items).chunks(chunk_size))
    results = _map_corpora(work, chunks, table, processes)
    return [path for corpus in results for path in corpus]


def parallel_compress(
    paths: Sequence[Sequence[int]],
    table: SupernodeTable,
    processes: int = 2,
    chunk_size: int = 2048,
) -> List[Tuple[int, ...]]:
    """Compress *paths* against *table* across *processes* workers.

    Order-preserving and bit-identical to the sequential
    :func:`~repro.core.compressor.compress_dataset` for any process count.
    """
    return _chunked(_compress_chunk, paths, table, processes, chunk_size)


def parallel_decompress(
    tokens: Sequence[Sequence[int]],
    table: SupernodeTable,
    processes: int = 2,
    chunk_size: int = 2048,
) -> List[Tuple[int, ...]]:
    """Decompress *tokens* across *processes* workers (order-preserving)."""
    return _chunked(_decompress_chunk, tokens, table, processes, chunk_size)

