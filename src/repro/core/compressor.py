"""Compression and decompression of individual paths (Algorithms 1 and 2).

These are the hot loops of the system.  Both operate per path — the property
that gives OFFS its per-path random access ("the finest granularity of
(de)compression ... as small as a path") — and both are pure functions of
their inputs, so a batch may be split between processes freely (the
sharded build, :func:`repro.core.sharded.build_sharded_store`, does so).

* :func:`compress_path` — greedy longest-match replacement of subpaths by
  supernode ids (Algorithm 2).  Without a matcher it runs the one exact
  encoder, :func:`_encode`: a 2-prefix index on the finished table bounds
  each position's probes of the subpath→id dict, at most δ − 1 of them
  (Lemma 2).  Every codec, store and writer takes that route.  With an
  explicit matcher it asks that matcher's ``longest_match`` (Algorithm 6
  or 7): the reference route of the A1/A4 benches and the equivalence
  tests.
* :func:`decompress_path` — one-pass supernode expansion (Algorithm 1);
  ``O(|P|)`` in the decompressed length (Lemma 1).
* :func:`compress_paths_flat` / :func:`decompress_paths_flat` — the batch
  entry points.  Compression is one exact-encoder pass over the caller's
  paths, so its tokens equal the per-path loop's; decompression is one
  vectorized gather over a :class:`~repro.core.flatcorpus.FlatCorpus`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import TableError
from repro.core.flatcorpus import FlatCorpus, as_flat_corpus
from repro.core.matcher import CandidateSet
from repro.core.probestats import ProbeStats
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

    Without a *matcher* this runs the table's exact encoder
    (:func:`_encode`); every codec, store and writer takes that route.

    :param matcher: a static matcher over *table* (see
        :func:`repro.core.matcher.static_matcher_from_table`) whose
        :meth:`~repro.core.matcher.CandidateSet.longest_match` answers each
        position instead: the Algorithm 6 / 7 reference route whose probe
        cost the A1 bench and the Lemma 2/3 tests measure, and the A4
        bench's per-path baseline.  The tokens are the same either way.
    """
    if matcher is None:
        return _encode(path, table)
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
                raise _collision(vertex, table.base_id)
            out.append(vertex)
        pos += length
    return tuple(out)


def _encode(
    path: Sequence[int], table: SupernodeTable, work: Optional[ProbeStats] = None
) -> CompressedPath:
    """Algorithm 2 through the table's 2-prefix index.

    At each position the next two vertices look up the longest entry
    length with that prefix (:meth:`~repro.core.supernode_table.
    SupernodeTable.prefix_index`); the subpath→id dict is then probed
    from ``min(bound, remaining)`` down to 2, and the first hit is the
    longest match.  A position with no bound or no hit emits its vertex.
    That is at most δ − 1 probes per position (Lemma 2's bound), never
    more than Algorithm 6 issues at the same position.

    When given *work*, its ``probes`` counts the subpath→id lookups and
    its ``hashed_vertices`` the vertices they hash; the 2-prefix lookups
    are the filter and count in neither.  Without it nothing is counted,
    which keeps the per-path ``append`` loop lean.
    """
    bounds, ids = table.prefix_index()
    get_bound = bounds.get
    get_id = ids.get
    base_id = table.base_id
    path = tuple(path)
    n = len(path)
    out: List[int] = []
    push = out.append
    pos = 0
    while pos < n:
        top = get_bound(path[pos : pos + 2])
        if top is not None:
            if top > n - pos:
                top = n - pos
            length = top
            sid = get_id(path[pos : pos + length])
            while sid is None and length > 2:
                length -= 1
                sid = get_id(path[pos : pos + length])
            if work is not None:
                work.probes += top - length + 1
                work.hashed_vertices += (top + length) * (top - length + 1) // 2
            if sid is not None:
                push(sid)
                pos += length
                continue
        vertex = path[pos]
        if vertex >= base_id:
            raise _collision(vertex, base_id)
        push(vertex)
        pos += 1
    return tuple(out)


def _collision(vertex: int, base_id: int) -> TableError:
    """The error for a literal at or above *base_id*.

    Such a literal would decompress as a supernode.  This happens when the
    table was trained on a sample that missed the id range.
    """
    return TableError(
        f"vertex id {vertex} collides with the supernode id space "
        f"(base_id={base_id}); fit the table with a base_id above every "
        "vertex id that will ever be compressed"
    )


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


def compress_paths_flat(
    paths: Iterable[Sequence[int]], table: SupernodeTable
) -> List[CompressedPath]:
    """Compress a batch of paths with the table's exact encoder.

    One :func:`_encode` pass over *paths* in the order given — a
    :class:`FlatCorpus`, a list of tuples or a generator, each read once —
    so the tokens equal ``compress_path(p, table)`` per path.  A literal at
    or above ``base_id`` raises :class:`TableError` at that path.

    With :mod:`repro.obs` active the batch is one ``compress`` span and
    publishes ``compress.*`` plus the encoder's ``matcher.probes`` /
    ``matcher.hashed_vertices`` work, all counted in that same pass.
    """
    obs = get_active()
    if obs is None:
        return [_encode(path, table) for path in paths]

    work = ProbeStats()
    with obs.tracer.span(catalog.SPAN_COMPRESS) as span, obs.registry.timeit(
        catalog.COMPRESS_SECONDS
    ):
        out: List[CompressedPath] = []
        symbols_in = 0
        for path in paths:
            out.append(_encode(path, table, work))
            symbols_in += len(path)
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
    work.publish(registry, catalog.PROBE_PREFIX_MATCHER)
    return out


def decompress_paths_flat(
    tokens: Union[FlatCorpus, Iterable[Sequence[int]]],
    table: SupernodeTable,
    as_corpus: bool = False,
) -> Union[List[Tuple[int, ...]], FlatCorpus]:
    """Decompress a whole batch of tokens (flat-pipeline counterpart).

    Accepts a :class:`FlatCorpus` of compressed tokens or any token
    iterable.  With :mod:`repro.obs` active the batch is one
    ``decompress`` span and publishes the ``decompress.*`` counters.

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
