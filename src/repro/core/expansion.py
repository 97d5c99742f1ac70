"""Memoized supernode expansion — the decode-side fast path.

Algorithm 1 expands every supernode symbol on every decompression call.
For retrieval-heavy workloads (the paper's Cases 1 and 2, Fig. 6) that
re-derives the same subpath tuples millions of times.  An
:class:`ExpansionCache` flattens every supernode of a table to its full
vertex tuple exactly **once** and keeps the results in three aligned
structures:

* ``expand(sid)`` — the fully-flattened tuple (nested/multilevel
  supernodes — entries whose subpath itself contains supernode ids — are
  resolved iteratively, never recursively, with cycle detection);
* ``symbol_length(symbol)`` — expanded length of any stream symbol in
  O(1), which turns slice retrieval (Fig. 6 "partial") into arithmetic;
* a flat concatenation + offsets pair (``as_numpy()``) that the batch
  decode kernel of :func:`repro.core.compressor.decompress_paths_flat`
  gathers from in one vectorized pass.

The cache is built lazily by :meth:`SupernodeTable.expansions
<repro.core.supernode_table.SupernodeTable.expansions>` and memoized on
the table; any mutation (``add``) invalidates it.  Hit/miss counts land on
the ``table.expansion_cache.*`` metrics when :mod:`repro.obs` is active.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import TableError

Subpath = Tuple[int, ...]


def flatten_subpaths(
    base_id: int, by_id: Dict[int, Subpath]
) -> Dict[int, Subpath]:
    """Fully flatten every entry of ``by_id`` (id → subpath) to vertex tuples.

    Entries may reference other supernodes (symbols ``>= base_id``) in any
    order — forward, backward, or chained through several levels.  The
    resolution is **iterative** (an explicit work stack), so a
    pathologically deep nesting chain cannot hit Python's recursion limit,
    and reference cycles are detected and reported as :class:`TableError`
    instead of looping forever.
    """
    flat: Dict[int, Subpath] = {}
    in_progress: List[int] = []  # DFS stack of ids being expanded
    on_stack = set()
    for root in by_id:
        if root in flat:
            continue
        in_progress.append(root)
        on_stack.add(root)
        while in_progress:
            sid = in_progress[-1]
            subpath = by_id.get(sid)
            if subpath is None:
                raise TableError(f"unknown supernode id {sid} referenced in table")
            blocked = False
            for symbol in subpath:
                if symbol >= base_id and symbol not in flat:
                    if symbol in on_stack:
                        raise TableError(
                            f"supernode {sid} participates in an expansion "
                            f"cycle through {symbol}"
                        )
                    in_progress.append(symbol)
                    on_stack.add(symbol)
                    blocked = True
                    break
            if blocked:
                continue
            out: List[int] = []
            for symbol in subpath:
                if symbol >= base_id:
                    out.extend(flat[symbol])
                else:
                    out.append(symbol)
            flat[sid] = tuple(out)
            in_progress.pop()
            on_stack.discard(sid)
    return flat


class ExpansionCache:
    """Immutable snapshot of a table's fully-flattened expansions.

    Build with :meth:`from_table`; obtain the memoized instance through
    :meth:`SupernodeTable.expansions
    <repro.core.supernode_table.SupernodeTable.expansions>` instead of
    constructing one per call site.
    """

    __slots__ = ("base_id", "_flat", "_lengths", "_concat", "_starts", "_np_arrays")

    def __init__(self, base_id: int, flat: Dict[int, Subpath]) -> None:
        self.base_id = base_id
        self._flat = flat
        # Dense, id-ordered companions for O(1) arithmetic and the batch
        # kernel: lengths[i] and concat[starts[i]:starts[i+1]] describe
        # supernode base_id + i.
        count = len(flat)
        lengths = array("q", bytes(8 * count))
        concat = array("q")
        starts = array("q", [0])
        for i in range(count):
            expansion = flat[base_id + i]
            lengths[i] = len(expansion)
            concat.extend(expansion)
            starts.append(len(concat))
        self._lengths = lengths
        self._concat = concat
        self._starts = starts
        self._np_arrays = None

    @classmethod
    def from_table(cls, table) -> "ExpansionCache":
        """Flatten *table* (a :class:`SupernodeTable`) into a fresh cache."""
        return cls(table.base_id, flatten_subpaths(table.base_id, dict(table)))

    # -- lookups -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flat)

    def __contains__(self, supernode_id: int) -> bool:
        return supernode_id in self._flat

    def expand(self, supernode_id: int) -> Subpath:
        """The fully-flattened vertex tuple for *supernode_id*."""
        try:
            return self._flat[supernode_id]
        except KeyError:
            raise TableError(f"unknown supernode id {supernode_id}") from None

    def expansion_length(self, supernode_id: int) -> int:
        """Expanded length of one supernode in O(1)."""
        index = supernode_id - self.base_id
        if not 0 <= index < len(self._lengths):
            raise TableError(f"unknown supernode id {supernode_id}")
        return self._lengths[index]

    def symbol_length(self, symbol: int) -> int:
        """Expanded length of any stream symbol: 1 for a vertex literal."""
        if symbol < self.base_id:
            return 1
        return self.expansion_length(symbol)

    def token_length(self, token: Sequence[int]) -> int:
        """Decompressed length of a whole compressed token, no materialization."""
        base = self.base_id
        lengths = self._lengths
        total = 0
        for symbol in token:
            if symbol < base:
                total += 1
            else:
                index = symbol - base
                if index >= len(lengths):
                    raise TableError(f"unknown supernode id {symbol}")
                total += lengths[index]
        return total

    def items(self) -> Iterator[Tuple[int, Subpath]]:
        """``(supernode_id, flattened_expansion)`` pairs in id order."""
        base = self.base_id
        for i in range(len(self._flat)):
            yield base + i, self._flat[base + i]

    # -- batch-kernel views -------------------------------------------------------

    @property
    def flat_concat(self) -> array:
        """All expansions concatenated in id order (``array('q')``)."""
        return self._concat

    @property
    def flat_starts(self) -> array:
        """``len(self) + 1`` fenceposts into :attr:`flat_concat`."""
        return self._starts

    def as_numpy(self):
        """``(concat, starts, lengths)`` int64 views."""
        if self._np_arrays is None:
            self._np_arrays = (
                np.frombuffer(self._concat, dtype=np.int64)
                if len(self._concat)
                else np.zeros(0, dtype=np.int64),
                np.frombuffer(self._starts, dtype=np.int64),
                np.frombuffer(self._lengths, dtype=np.int64)
                if len(self._lengths)
                else np.zeros(0, dtype=np.int64),
            )
        return self._np_arrays

    def __repr__(self) -> str:
        return (
            f"ExpansionCache(base_id={self.base_id}, entries={len(self)}, "
            f"vertices={len(self._concat)})"
        )


def slice_token(
    token: Sequence[int],
    cache: ExpansionCache,
    start: Optional[int] = None,
    stop: Optional[int] = None,
) -> Subpath:
    """``decompress(token)[start:stop]`` without materializing the full path.

    Slice semantics match Python's (``None`` bounds, negatives, clamping;
    no step).  Cost is O(symbols skipped + vertices returned): positions
    are advanced by precomputed expansion lengths, and only the symbols
    overlapping the window are expanded.
    """
    total = cache.token_length(token)
    begin, end, _ = slice(start, stop).indices(total)
    if end <= begin:
        return ()
    base = cache.base_id
    out: List[int] = []
    pos = 0
    for symbol in token:
        if pos >= end:
            break
        length = 1 if symbol < base else cache.expansion_length(symbol)
        if pos + length <= begin:
            pos += length
            continue
        if symbol < base:
            out.append(symbol)
        elif pos >= begin and pos + length <= end:
            out.extend(cache.expand(symbol))
        else:
            expansion = cache.expand(symbol)
            out.extend(expansion[max(0, begin - pos) : min(length, end - pos)])
        pos += length
    return tuple(out)
