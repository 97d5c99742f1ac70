"""The one read path: per-path random-access decompression over a token source.

The paper's key property is that any single path decompresses on its own,
``f^T : (Q', R) => Q`` (Algorithm 1).  :class:`PathReader` implements that
operation — and everything built on it — exactly once, for every store
kind.  A store supplies five members, the *token-source contract*:

* ``__len__()`` — the number of paths;
* ``token(path_id)`` — one compressed token (validating *path_id*);
* ``tokens()`` — every token, in path-id order;
* ``table`` — the :class:`~repro.core.supernode_table.SupernodeTable`
  tokens expand against;
* ``order`` — the persisted :class:`~repro.paths.reorder.VertexOrder`,
  or ``None``.

A sixth, :meth:`~PathReader.token_corpus` — every token in path-id order
as one :class:`~repro.core.flatcorpus.FlatCorpus` — defaults to interning
``tokens()``; a store whose tokens sit in one buffer overrides it with a
bulk parse that keeps every check of ``token``.

Over those, the reader provides retrieval (:meth:`~PathReader.retrieve`,
:meth:`~PathReader.retrieve_slice`, :meth:`~PathReader.expanded_length`,
:meth:`~PathReader.retrieve_batch`, :meth:`~PathReader.retrieve_all`,
:meth:`~PathReader.retrieve_fraction`, iteration), order inversion (callers
always speak original vertex ids), id checks, ``store.*`` observability,
the paper's size accounting, and the one query engine: Case 1/2, subpath
and pattern queries, each a lazily built
:class:`~repro.queries.index.VertexIndex` lookup, one batch decode of the
candidates and a predicate over the decoded paths.

:class:`~repro.core.store.CompressedPathStore` (in memory) and
:class:`~repro.core.mapped.MappedPathStore` (mmap over a v2 file) keep only
their storage code; :class:`~repro.core.sharded.ShardedPathStore` reads
each token from the shard that owns its id and shares shard 0's table.
"""

from __future__ import annotations

import random
import threading
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.compressor import decompress_path, decompress_paths_flat
from repro.core.errors import InvalidInputError, PathIdError
from repro.core.expansion import slice_token
from repro.core.flatcorpus import FlatCorpus
from repro.obs import catalog
from repro.obs.runtime import get_active
from repro.paths.encoding import DEFAULT_ENCODING, Encoding

if TYPE_CHECKING:
    from repro.queries.pattern import PathPattern

Path = Tuple[int, ...]

#: Guards the one-time vertex-index build of every reader; a build happens
#: once per store, so one lock for all of them never contends in practice.
_INDEX_LOCK = threading.Lock()


def _contains(path: Path, query: Path) -> bool:
    """``True`` when *query* (non-empty) occurs in *path* contiguously."""
    first = query[0]
    width = len(query)
    position = -1
    try:
        while True:
            position = path.index(first, position + 1)
            if path[position : position + width] == query:
                return True
    except ValueError:
        return False


class PathReader:
    """Retrieval, accounting and queries over the token-source contract."""

    # -- retrieval ----------------------------------------------------------------

    def retrieve(self, path_id: int) -> Path:
        """Decompress and return the single path *path_id*."""
        token = self.token(path_id)
        obs = get_active()
        if obs is None:
            return self._restore(decompress_path(token, self.table))
        with obs.registry.timeit(catalog.STORE_RETRIEVE_SECONDS):
            path = self._restore(decompress_path(token, self.table))
        obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).inc()
        return path

    def retrieve_slice(
        self, path_id: int, start: Optional[int] = None, stop: Optional[int] = None
    ) -> Path:
        """``retrieve(path_id)[start:stop]`` without full-path materialization.

        Python slice semantics (``None`` bounds, negatives, clamping; no
        step).  Token symbols outside the window are *skipped by
        arithmetic* over the expansion cache's precomputed lengths, so a
        narrow window into a long path costs O(token prefix + window) —
        the Fig. 6 "partial" access pattern at sub-path granularity.
        """
        token = self.token(path_id)
        obs = get_active()
        if obs is None:
            return self._restore(slice_token(token, self.table.expansions(), start, stop))
        with obs.registry.timeit(catalog.STORE_RETRIEVE_SLICE_SECONDS):
            out = self._restore(slice_token(token, self.table.expansions(), start, stop))
        obs.registry.counter(catalog.STORE_RETRIEVED_SLICES).inc()
        return out

    def expanded_length(self, path_id: int) -> int:
        """Decompressed length of *path_id* in O(token) — nothing expanded."""
        return self.table.expansions().token_length(self.token(path_id))

    def retrieve_batch(self, path_ids: Iterable[int]) -> List[Path]:
        """Decompress exactly the given paths, leaving the rest compressed.

        This is the paper's partial decompression ``f^T : (Q', R) => Q``.
        Every token is fetched (and its id validated) *before* any decode
        work starts, so a bad id fails the whole call without side effects;
        output order follows input order (duplicates repeat).  All tokens
        go through one :func:`~repro.core.compressor.decompress_paths_flat`
        call and one flat restore (:meth:`_decode`).
        """
        tokens = [self.token(pid) for pid in path_ids]
        if not tokens:
            return []
        obs = get_active()
        if obs is None:
            return self._decode(tokens)
        with obs.registry.timeit(catalog.STORE_RETRIEVE_SECONDS):
            out = self._decode(tokens)
        obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).inc(len(tokens))
        return out

    def retrieve_all(self) -> List[Path]:
        """Decompress the full store in flat passes (Fig. 6a's DS).

        :meth:`token_corpus` parses every token, then :meth:`_decode`
        expands and restores them with no per-path Python loop.
        """
        obs = get_active()
        if obs is None:
            return self._decode(self.token_corpus())
        with obs.tracer.span(
            catalog.SPAN_STORE_RETRIEVE_ALL
        ) as span, obs.registry.timeit(catalog.STORE_RETRIEVE_ALL_SECONDS):
            paths = self._decode(self.token_corpus())
            if span is not None:
                span.add("paths", len(paths))
        obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).inc(len(paths))
        return paths

    def retrieve_fraction(self, fraction: float, seed: int = 0) -> List[Path]:
        """Decompress a uniform random *fraction* of paths (Fig. 6b's PDS).

        Deterministic for a given *seed*.
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidInputError("fraction must be in (0, 1]")
        count = max(1, round(fraction * len(self)))
        ids = random.Random(seed).sample(range(len(self)), count)
        return self.retrieve_batch(ids)

    def __iter__(self) -> Iterator[Path]:
        """Iterate decompressed paths in path-id order, one token at a time."""
        table = self.table
        restore = self._restore
        return (
            restore(decompress_path(self.token(pid), table))
            for pid in range(len(self))
        )

    def token_corpus(self) -> FlatCorpus:
        """Every token in path-id order as one flat corpus (interns :meth:`tokens`)."""
        return FlatCorpus.from_paths(self.tokens())

    # -- queries ------------------------------------------------------------------

    def vertex_index(self):
        """The store's :class:`~repro.queries.index.VertexIndex`, built on first use.

        A store that grew since the build (in-memory appends) refreshes the
        index incrementally before it is returned.
        """
        with _INDEX_LOCK:
            index = self.__dict__.get("_vertex_index")
            if index is None:
                from repro.queries.index import VertexIndex

                index = self._vertex_index = VertexIndex(self)
            elif index.indexed_paths != len(self):
                index.refresh()
            return index

    def _matching(
        self, vertices: Sequence[int], keep: Optional[Callable[[Path], bool]]
    ) -> Tuple[List[int], List[Path]]:
        """``(ids, paths)`` of the candidates for which *keep* holds, ascending id.

        The candidates are the paths containing every vertex of *vertices*
        (every path when it is empty), found in the index without decoding
        anything.  They, and only they, are decoded, each exactly once, by
        one :meth:`retrieve_batch` call; *keep* (``None`` keeps every
        candidate) then runs on the decoded paths in original vertex ids, so
        no predicate needs to know the token form or the vertex order.
        """
        if vertices:
            candidates = self.vertex_index().paths_containing_all(vertices)
        else:
            candidates = list(range(len(self)))
        paths = self.retrieve_batch(candidates)
        if keep is None:
            return candidates, paths
        ids: List[int] = []
        hits: List[Path] = []
        for path_id, path in zip(candidates, paths):
            if keep(path):
                ids.append(path_id)
                hits.append(path)
        return ids, hits

    def paths_containing(self, vertex: int) -> List[int]:
        """Sorted ids of the paths whose decompressed form contains *vertex*."""
        return self.vertex_index().paths_containing(vertex)

    def affected_paths(self, issue_vertex: int) -> List[Path]:
        """Case 1: every path through *issue_vertex*, decompressed."""
        return self._matching((issue_vertex,), None)[1]

    def affected_vertices(self, issue_vertex: int) -> Set[int]:
        """Case 1's answer: every other vertex sharing a path with *issue_vertex*.

        The accurate alternative to the exponential neighbourhood search the
        paper warns against.
        """
        affected = set().union(*self.affected_paths(issue_vertex))
        affected.discard(issue_vertex)
        return affected

    def paths_between_hits(
        self, source: int, destination: int
    ) -> Tuple[List[int], List[Path]]:
        """``(ids, paths)`` of the paths from *source* to *destination*.

        Terminal positions are not indexed, so the candidates are the paths
        containing both vertices, kept when they start and end at them.
        """
        return self._matching(
            (source, destination),
            lambda path: path[0] == source and path[-1] == destination,
        )

    def paths_between(self, source: int, destination: int) -> List[Path]:
        """Case 2: all paths from *source* to *destination*, ascending id."""
        return self.paths_between_hits(source, destination)[1]

    def intermediate_vertices(self, source: int, destination: int) -> Set[int]:
        """Case 2's answer: every intermediate hop between two terminals."""
        return set().union(
            *(path[1:-1] for path in self.paths_between(source, destination))
        )

    def subpath_search_hits(self, query: Sequence[int]) -> Tuple[List[int], List[Path]]:
        """``(ids, paths)`` of the paths containing *query* contiguously.

        A query of one vertex (or none) is answered by its candidates alone.
        """
        q = tuple(query)
        if len(q) <= 1:
            return self._matching(q, None)
        return self._matching(q, lambda path: _contains(path, q))

    def subpath_search_ids(self, query: Sequence[int]) -> List[int]:
        """Sorted ids of the paths containing *query* contiguously."""
        return self.subpath_search_hits(query)[0]

    def subpath_search(self, query: Sequence[int]) -> List[Path]:
        """The paths containing *query* contiguously, decompressed."""
        return self.subpath_search_hits(query)[1]

    def pattern_search_hits(self, pattern: "PathPattern") -> Tuple[List[int], List[Path]]:
        """``(ids, paths)`` of the paths matching *pattern*.

        The pattern's literal vertices select the candidates (a
        wildcard-only pattern scans every path).
        """
        return self._matching(pattern.concrete_vertices, pattern.matches)

    def pattern_search(self, pattern: "PathPattern") -> List[Path]:
        """The paths matching *pattern*, decompressed, ascending id."""
        return self.pattern_search_hits(pattern)[1]

    # -- size accounting ----------------------------------------------------------

    def compressed_symbol_count(self) -> int:
        """Total integer symbols across all stored tokens."""
        return sum(len(t) for t in self.tokens())

    def compressed_size_bytes(self, encoding: Optional[Encoding] = None) -> int:
        """``|P'| + |R|`` in bytes: tokens (with length markers) plus rules."""
        if encoding is None:
            encoding = DEFAULT_ENCODING
        total = self._rule_bytes(encoding)
        for token in self.tokens():
            total += encoding.size_of_value(len(token)) + encoding.size_of(token)
        obs = get_active()
        if obs is not None:
            obs.registry.set_gauge(catalog.STORE_COMPRESSED_BYTES, total)
        return total

    def _rule_bytes(self, encoding: Encoding) -> int:
        """``|R|``: the table, plus the vertex order a reader needs to
        restore original ids."""
        table = self.table
        total = encoding.size_of_value(table.base_id)
        for _, subpath in table:
            total += encoding.size_of_value(len(subpath)) + encoding.size_of(subpath)
        order = self.order
        if order is not None:
            total += order.size_bytes(encoding)
        return total

    def raw_size_bytes(self, encoding: Optional[Encoding] = None) -> int:
        """``|P|`` in bytes: what the uncompressed paths would cost.

        Measured over *original* ids, so varint accounting prices the paths
        the caller actually handed in.
        """
        if encoding is None:
            encoding = DEFAULT_ENCODING
        total = 0
        for path in self:
            total += encoding.size_of_value(len(path)) + encoding.size_of(path)
        obs = get_active()
        if obs is not None:
            obs.registry.set_gauge(catalog.STORE_RAW_BYTES, total)
        return total

    def compression_ratio(self, encoding: Optional[Encoding] = None) -> float:
        """``CR = |P| / (|P'| + |R|)`` for the store's current contents."""
        compressed = self.compressed_size_bytes(encoding)
        return self.raw_size_bytes(encoding) / compressed if compressed else 0.0

    # -- internals ----------------------------------------------------------------

    def _restore(self, path: Path) -> Path:
        """Invert the vertex order on an outgoing path (no-op when unordered)."""
        order = self.order
        if order is None:
            return path
        return order.invert_path(path)

    def _decode(self, tokens) -> List[Path]:
        """Expand *tokens* and restore original ids, each in one flat pass.

        With an order, the whole expanded buffer is mapped through it and
        then sliced into tuples, which share the order's int objects
        instead of allocating one per vertex.  Without one, the buffer is
        sliced as it is.
        """
        corpus = decompress_paths_flat(tokens, self.table, as_corpus=True)
        order = self.order
        vertices = corpus.buffer if order is None else order.invert_flat(corpus.buffer)
        offsets = corpus.offsets
        bounds = map(slice, offsets[:-1], offsets[1:])
        return list(map(tuple, map(vertices.__getitem__, bounds)))

    def _check_id(self, path_id: int) -> None:
        count = len(self)
        if not 0 <= path_id < count:
            raise PathIdError(f"path id {path_id} not in store of {count} paths")
