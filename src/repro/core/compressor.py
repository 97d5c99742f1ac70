"""Compression and decompression of individual paths (Algorithms 1 and 2).

These are the hot loops of the system.  Both operate per path — the property
that gives OFFS its per-path random access ("the finest granularity of
(de)compression ... as small as a path") — and both are pure functions of
their inputs, so callers may fan them out over processes freely (the paper's
OpenMP parallelism; see :mod:`repro.core.parallel`).

* :func:`compress_path` — greedy longest-match replacement of subpaths by
  supernode ids (Algorithm 2); ``O(|P| · δ²)`` with the hash matcher.
* :func:`decompress_path` — one-pass supernode expansion (Algorithm 1);
  ``O(|P|)`` in the decompressed length (Lemma 1).
* :func:`compress_paths_flat` / :func:`decompress_paths_flat` — the batch
  entry points over a :class:`~repro.core.flatcorpus.FlatCorpus`.
  Compression runs the vectorized
  :class:`~repro.core.rollhash.FlatBatchKernel` in bounded blocks whatever
  the matcher backend.  Results are
  bit-identical to the per-path loop with any backend.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import TableError
from repro.core.flatcorpus import FlatCorpus, as_flat_corpus
from repro.core.matcher import CandidateSet, static_matcher_from_table
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import get_active

CompressedPath = Tuple[int, ...]


def compress_path(
    path: Sequence[int],
    table: SupernodeTable,
    matcher: Optional[CandidateSet] = None,
) -> CompressedPath:
    """Compress one path against a finished supernode table (Algorithm 2).

    Scans left to right; at each position the longest table subpath starting
    there (capped by δ, the table's longest entry) is replaced by its
    supernode id, otherwise the single vertex is copied through.

    :param matcher: a prebuilt static matcher over *table*; pass one when
        compressing many paths to amortize its construction (see
        :func:`repro.core.matcher.static_matcher_from_table`).
    """
    if matcher is None:
        matcher = static_matcher_from_table(table)
    delta = table.max_subpath_length
    out: List[int] = []
    pos = 0
    n = len(path)
    while pos < n:
        length = matcher.longest_match(path, pos, delta) if delta >= 2 else 1
        if length > 1:
            sid = table.get_id(tuple(path[pos : pos + length]))
            if sid is None:
                raise TableError(
                    "matcher and table disagree: matched subpath "
                    f"{tuple(path[pos:pos + length])!r} has no supernode id"
                )
            out.append(sid)
        else:
            vertex = path[pos]
            if vertex >= table.base_id:
                # A literal at or above base_id would decompress as a
                # supernode.  This happens when the table was trained on a
                # sample that missed the id range — train with an explicit
                # base_id covering the whole universe instead.
                raise TableError(
                    f"vertex id {vertex} collides with the supernode id space "
                    f"(base_id={table.base_id}); fit the table with a base_id "
                    "above every vertex id that will ever be compressed"
                )
            out.append(vertex)
        pos += length
    return tuple(out)


def decompress_path(compressed: Sequence[int], table: SupernodeTable) -> Tuple[int, ...]:
    """Restore one path from its compressed form (Algorithm 1).

    Every symbol at or above the table's ``base_id`` is expanded to its
    subpath; vertex ids pass through unchanged.  Expansion reads from the
    table's memoized :class:`~repro.core.expansion.ExpansionCache`, so the
    per-symbol work is one dict lookup and a concatenation — nested
    supernodes were already flattened when the cache was built.
    """
    out: List[int] = []
    base = table.base_id
    expand = table.expansions().expand
    for symbol in compressed:
        if symbol >= base:
            out.extend(expand(symbol))
        else:
            out.append(symbol)
    return tuple(out)


def compress_dataset(
    paths: Iterable[Sequence[int]],
    table: SupernodeTable,
    matcher: Optional[CandidateSet] = None,
) -> List[CompressedPath]:
    """Compress every path in *paths*, sharing one static matcher.

    When :mod:`repro.obs` instrumentation is active, the batch is wrapped in
    a ``compress`` span and accounted on the registry: paths and symbols in
    and out, plus the matcher's probe-work delta (``matcher.probes`` /
    ``matcher.hashed_vertices``).  The per-path inner loop is never touched
    — with instrumentation off this is exactly a list comprehension.
    """
    if matcher is None:
        matcher = static_matcher_from_table(table)
    obs = get_active()
    if obs is None:
        return [compress_path(p, table, matcher) for p in paths]

    probes_before = matcher.stats.snapshot()
    with obs.tracer.span(catalog.SPAN_COMPRESS) as span, obs.registry.timeit(
        catalog.COMPRESS_SECONDS
    ):
        out: List[CompressedPath] = []
        symbols_in = 0
        for p in paths:
            out.append(compress_path(p, table, matcher))
            symbols_in += len(p)
        symbols_out = sum(len(t) for t in out)
        if span is not None:
            span.add("paths", len(out))
            span.add("symbols_in", symbols_in)
            span.add("symbols_out", symbols_out)
    registry = obs.registry
    registry.counter(catalog.COMPRESS_PATHS).inc(len(out))
    registry.counter(catalog.COMPRESS_SYMBOLS_IN).inc(symbols_in)
    registry.counter(catalog.COMPRESS_SYMBOLS_OUT).inc(symbols_out)
    matcher.stats.delta_since(probes_before).publish(
        registry, catalog.PROBE_PREFIX_MATCHER
    )
    return out


def decompress_dataset(
    compressed_paths: Iterable[Sequence[int]],
    table: SupernodeTable,
) -> List[Tuple[int, ...]]:
    """Decompress every compressed path in *compressed_paths*.

    Instrumented like :func:`compress_dataset` (a ``decompress`` span,
    ``decompress.*`` counters) when the obs layer is active.
    """
    obs = get_active()
    if obs is None:
        return [decompress_path(c, table) for c in compressed_paths]

    with obs.tracer.span(catalog.SPAN_DECOMPRESS) as span, obs.registry.timeit(
        catalog.DECOMPRESS_SECONDS
    ):
        out: List[Tuple[int, ...]] = []
        symbols_in = 0
        for c in compressed_paths:
            out.append(decompress_path(c, table))
            symbols_in += len(c)
        symbols_out = sum(len(p) for p in out)
        if span is not None:
            span.add("paths", len(out))
            span.add("symbols_in", symbols_in)
            span.add("symbols_out", symbols_out)
    registry = obs.registry
    registry.counter(catalog.DECOMPRESS_PATHS).inc(len(out))
    registry.counter(catalog.DECOMPRESS_SYMBOLS_IN).inc(symbols_in)
    registry.counter(catalog.DECOMPRESS_SYMBOLS_OUT).inc(symbols_out)
    return out


def compress_paths_flat(
    paths: Union[FlatCorpus, Iterable[Sequence[int]]],
    table: SupernodeTable,
    matcher: Optional[CandidateSet] = None,
    as_corpus: bool = False,
) -> Union[List[CompressedPath], FlatCorpus]:
    """Compress a whole corpus in one batch (the flat pipeline entry point).

    Bit-identical to :func:`compress_dataset` over the same paths with any
    matcher backend.  The probe work runs through the
    vectorized :class:`~repro.core.rollhash.FlatBatchKernel` — window
    hashes over each block of the flat buffer, then a thin greedy verify
    loop — for every backend.

    :param paths: a :class:`FlatCorpus` (preferred; anything else is
        interned first).
    :param matcher: a prebuilt static matcher over *table*; it supplies the
        batch kernel (:meth:`~repro.core.matcher.CandidateSet.flat_kernel`)
        and receives its work counters.
    :param as_corpus: return the compressed tokens as a :class:`FlatCorpus`
        (what the parallel workers ship back) instead of a list of tuples.
    """
    corpus = as_flat_corpus(paths)
    if matcher is None:
        matcher = static_matcher_from_table(table)
    obs = get_active()
    if obs is None:
        out = _compress_corpus(corpus, table, matcher)
        return FlatCorpus.from_paths(out, name=corpus.name) if as_corpus else out

    probes_before = matcher.stats.snapshot()
    with obs.tracer.span(catalog.SPAN_COMPRESS) as span, obs.registry.timeit(
        catalog.COMPRESS_SECONDS
    ):
        out = _compress_corpus(corpus, table, matcher)
        symbols_in = corpus.total_symbols
        symbols_out = sum(len(t) for t in out)
        if span is not None:
            span.add("paths", len(out))
            span.add("symbols_in", symbols_in)
            span.add("symbols_out", symbols_out)
            span.add("flat", 1)
    registry = obs.registry
    registry.counter(catalog.COMPRESS_PATHS).inc(len(out))
    registry.counter(catalog.COMPRESS_SYMBOLS_IN).inc(symbols_in)
    registry.counter(catalog.COMPRESS_SYMBOLS_OUT).inc(symbols_out)
    registry.counter(catalog.COMPRESS_FLAT_BATCHES).inc()
    matcher.stats.delta_since(probes_before).publish(
        registry, catalog.PROBE_PREFIX_MATCHER
    )
    return FlatCorpus.from_paths(out, name=corpus.name) if as_corpus else out


def _compress_corpus(
    corpus: FlatCorpus, table: SupernodeTable, matcher: CandidateSet
) -> List[CompressedPath]:
    """Bulk encode for :func:`compress_paths_flat` (obs-free inner part).

    The matcher's :meth:`~repro.core.matcher.CandidateSet.
    flat_kernel` nominates match lengths block by block, whatever the
    backend.
    """
    kernel = matcher.flat_kernel(table)
    base_id = table.base_id
    max_vertex = corpus.max_vertex()
    if max_vertex >= base_id:
        raise TableError(
            f"vertex id {max_vertex} collides with the supernode id space "
            f"(base_id={base_id}); fit the table with a base_id above every "
            "vertex id that will ever be compressed"
        )
    get_id = table.inverted().get
    delta = table.max_subpath_length
    stats = matcher.stats
    out: List[CompressedPath] = []
    for block in corpus.blocks():
        best = kernel.best_lengths(block)
        verified = _verify_block(block, best, get_id, delta, out)
        # The kernel's work lands on the matcher's counters, so the obs
        # layer sees the batch like any other matcher run.
        stats.probes += kernel.batch_probes
        stats.hashed_vertices += kernel.batch_probes + verified
    return out


def _verify_block(
    block: FlatCorpus, best: List[int], get_id, delta: int, out: List[CompressedPath]
) -> int:
    """The greedy verify loop over one block; returns the vertices it read.

    *best* nominates, per symbol position of *block*, the longest candidate
    length whose rolling hash matches the table.  This loop walks each path
    greedily, verifies every nomination against the exact table through
    *get_id* (collisions descend to the next shorter length) and appends
    each path's supernode ids and literals to *out*.
    """
    buffer = block.buffer
    emit = out.append
    verify_vertices = 0
    start = 0
    for end in list(block.offsets)[1:]:
        path = tuple(buffer[start:end])
        n = end - start
        tokens: List[int] = []
        push = tokens.append
        pos = 0
        while pos < n:
            length = best[start + pos]
            if length > 1 and length <= delta:
                verify_vertices += length
                sid = get_id(path[pos : pos + length])
                while sid is None and length > 2:
                    # Hash collision: the nomination was a false positive;
                    # descend until a real candidate (or a literal) remains.
                    length -= 1
                    verify_vertices += length
                    sid = get_id(path[pos : pos + length])
                if sid is not None:
                    push(sid)
                    pos += length
                    continue
            push(path[pos])
            pos += 1
        emit(tuple(tokens))
        start = end
    return verify_vertices


def decompress_paths_flat(
    tokens: Union[FlatCorpus, Iterable[Sequence[int]]],
    table: SupernodeTable,
    as_corpus: bool = False,
) -> Union[List[Tuple[int, ...]], FlatCorpus]:
    """Decompress a whole batch of tokens (flat-pipeline counterpart).

    Accepts a :class:`FlatCorpus` of compressed tokens (what the parallel
    workers receive) or any token iterable; instrumented exactly like
    :func:`decompress_dataset`.

    The kernel writes straight into one flat output buffer through the
    table's precomputed expansion offsets in a single vectorized gather,
    and is byte-identical to per-path :func:`decompress_path` over the
    same tokens.

    :param as_corpus: return the restored paths as a :class:`FlatCorpus`
        (zero tuple churn; the fast path for bulk consumers).
    """
    corpus = as_flat_corpus(tokens)
    obs = get_active()
    if obs is None:
        restored = _decompress_corpus(corpus, table)
        return restored if as_corpus else restored.to_paths()

    with obs.tracer.span(catalog.SPAN_DECOMPRESS) as span, obs.registry.timeit(
        catalog.DECOMPRESS_SECONDS
    ):
        restored = _decompress_corpus(corpus, table)
        symbols_in = corpus.total_symbols
        symbols_out = restored.total_symbols
        if span is not None:
            span.add("paths", len(restored))
            span.add("symbols_in", symbols_in)
            span.add("symbols_out", symbols_out)
            span.add("flat", 1)
    registry = obs.registry
    registry.counter(catalog.DECOMPRESS_PATHS).inc(len(restored))
    registry.counter(catalog.DECOMPRESS_SYMBOLS_IN).inc(symbols_in)
    registry.counter(catalog.DECOMPRESS_SYMBOLS_OUT).inc(symbols_out)
    registry.counter(catalog.DECOMPRESS_FLAT_BATCHES).inc()
    return restored if as_corpus else restored.to_paths()


def _decompress_corpus(corpus: FlatCorpus, table: SupernodeTable) -> FlatCorpus:
    """Batch-expand a token corpus into a fresh path corpus (obs-free inner).

    Per-symbol output lengths come from the expansion cache's
    dense length array; their prefix sum places every symbol's expansion in
    the output, and one gather through a combined source (expansions
    concatenated ++ the token buffer itself, for literals) fills the whole
    buffer without per-path Python work.
    """
    buf, offs = corpus.as_numpy()
    concat, starts, exp_lengths = table.expansions().as_numpy()
    base = table.base_id
    mask = buf >= base
    sids = buf[mask] - base
    if len(sids) and (int(sids.max()) >= len(exp_lengths) or int(sids.min()) < 0):
        bad = int(sids.max()) + base
        raise TableError(f"unknown supernode id {bad}")
    lengths = np.ones(len(buf), dtype=np.int64)
    lengths[mask] = exp_lengths[sids]
    out_starts = np.empty(len(buf) + 1, dtype=np.int64)
    out_starts[0] = 0
    np.cumsum(lengths, out=out_starts[1:])
    # Unified gather source: expansion vertices first, then the token
    # buffer itself so a literal at position i reads combined[C + i].
    combined = np.concatenate((concat, buf))
    src_start = np.arange(len(concat), len(concat) + len(buf), dtype=np.int64)
    src_start[mask] = starts[sids]
    within = np.arange(int(out_starts[-1]), dtype=np.int64) - np.repeat(
        out_starts[:-1], lengths
    )
    out = combined[np.repeat(src_start, lengths) + within]
    out_buffer = array("q")
    out_buffer.frombytes(np.ascontiguousarray(out, dtype="<i8").tobytes())
    out_offsets = array("q")
    out_offsets.frombytes(np.ascontiguousarray(out_starts[offs], dtype="<i8").tobytes())
    return FlatCorpus(out_buffer, out_offsets, name=corpus.name)
