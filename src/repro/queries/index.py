"""A supernode-aware inverted index over a compressed store.

Case 1 of the paper ("retrieving all indexed IP paths containing the issue
node") needs vertex → paths lookup.  Decompressing everything to build it
would defeat the archive, so the index exploits the table structure instead:

* each supernode's member set is derived once from the table;
* each compressed token is scanned once — a vertex symbol indexes directly,
  a supernode symbol indexes every vertex it expands to.

The result is exact (no false positives/negatives) and construction touches
only compressed data, ``O(symbols + table)``.

Over a *reordered* store (one carrying a
:class:`~repro.paths.reorder.VertexOrder`) postings are naturally keyed by
new ids — tokens are stored in new-id space — so every lookup translates
its argument through the store's order first.  Callers therefore always
query in original ids, the same contract the store's retrieval surface
keeps; a vertex the order does not cover simply has no postings.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List, Set, Tuple

from repro.core.errors import InvalidInputError
from repro.core.store import CompressedPathStore


class VertexIndex:
    """Inverted index: vertex id → sorted list of path ids containing it.

    :param store: the compressed store to index.  The index reflects the
        store at construction time; call :meth:`refresh` after appends.
    """

    def __init__(self, store: CompressedPathStore) -> None:
        self.store = store
        self._postings: DefaultDict[int, List[int]] = defaultdict(list)
        self._indexed_paths = 0
        self.refresh()

    def refresh(self) -> None:
        """Post the paths appended since the last build (the first build posts all).

        Path ids only grow, so appending each new id to the postings of its
        path's vertices keeps every list sorted with no re-sort and leaves
        the old postings untouched.
        """
        table = self.store.table
        base = table.base_id
        members: Dict[int, Tuple[int, ...]] = {sid: subpath for sid, subpath in table}
        postings = self._postings
        tokens = self.store.tokens()
        for path_id in range(self._indexed_paths, len(tokens)):
            vertices: Set[int] = set()
            for symbol in tokens[path_id]:
                if symbol >= base:
                    vertices.update(members[symbol])
                else:
                    vertices.add(symbol)
            for vertex in vertices:
                postings[vertex].append(path_id)
        self._indexed_paths = len(tokens)

    # -- lookups -----------------------------------------------------------------
    #
    # Lookup arguments are ORIGINAL vertex ids; _key translates them into
    # the posting key space (new ids when the store carries an order).  A
    # sentinel that can never be a posting key stands in for "the order
    # does not cover this vertex" so the membership checks below stay
    # uniform.

    _MISSING = -1

    def _key(self, vertex: int) -> int:
        """The posting key for an original-id *vertex* (_MISSING if unmapped)."""
        order = getattr(self.store, "order", None)
        if order is None:
            return vertex
        try:
            return order.apply_vertex(vertex)
        except InvalidInputError:
            return self._MISSING

    def paths_containing(self, vertex: int) -> List[int]:
        """Sorted path ids whose decompressed form contains *vertex*."""
        return list(self._postings.get(self._key(vertex), ()))

    def paths_containing_all(self, vertices) -> List[int]:
        """Path ids containing **every** vertex in *vertices* (intersection)."""
        postings = sorted(
            (self._postings.get(self._key(vertex), ()) for vertex in vertices), key=len
        )
        if not postings:
            return []
        return sorted(set(postings[0]).intersection(*postings[1:]))

    @property
    def indexed_paths(self) -> int:
        """How many of the store's paths the postings cover."""
        return self._indexed_paths

    def vertex_count(self) -> int:
        """Number of distinct vertices with at least one posting."""
        return len(self._postings)

    def __contains__(self, vertex: int) -> bool:
        return self._key(vertex) in self._postings

    def __repr__(self) -> str:
        return (
            f"VertexIndex(vertices={len(self._postings)}, "
            f"paths={self._indexed_paths})"
        )
