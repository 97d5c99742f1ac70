"""Subpath search over compressed archives.

Beyond the paper's vertex-level queries (Cases 1 and 2), operators ask
*pattern* questions: "which transactions traversed firewall F then web
server W then app server A, in that order, consecutively?"  That is a
subpath-containment query, and the OFFS representation helps answer it
without bulk decompression:

1. **candidate pruning** — a path can only contain the query subpath if it
   contains *every query vertex*; the supernode-aware
   :class:`~repro.queries.index.VertexIndex` intersects postings without
   decompressing anything.
2. **decode once** — the candidates, and only they, are decoded by one
   ``retrieve_batch`` call; each is parsed and expanded exactly once, and
   the hits' decoded paths are what a search returns.  The contiguity test
   runs on those paths in original vertex ids, so a reordered store needs
   no query translation.

The result is exact; the test suite checks it against a brute-force scan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.store import CompressedPathStore
from repro.queries.index import VertexIndex

Subpath = Tuple[int, ...]


def _contains(path: Tuple[int, ...], query: Subpath) -> bool:
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


class SubpathSearcher:
    """Exact subpath-containment search over a compressed store.

    :param store: the archive to search.
    :param index: an existing vertex index (built on demand when omitted).
    """

    def __init__(
        self,
        store: CompressedPathStore,
        index: Optional[VertexIndex] = None,
    ) -> None:
        self.store = store
        self.index = index or VertexIndex(store)

    def candidate_ids(self, query: Sequence[int]) -> List[int]:
        """Path ids containing every vertex of *query* (superset of hits)."""
        if not query:
            return list(range(len(self.store)))
        return self.index.paths_containing_all(tuple(query))

    def search_hits(self, query: Sequence[int]) -> Tuple[List[int], List[Subpath]]:
        """``(ids, paths)`` of the paths containing *query* contiguously.

        *query* is in original vertex ids, and so are the decoded
        candidates it is matched against.  Ids ascend.
        """
        q = tuple(query)
        candidates = self.candidate_ids(q)
        paths = self.store.retrieve_batch(candidates)
        if len(q) <= 1:
            return candidates, paths
        ids: List[int] = []
        hits: List[Subpath] = []
        for path_id, path in zip(candidates, paths):
            if _contains(path, q):
                ids.append(path_id)
                hits.append(path)
        return ids, hits

    def search_ids(self, query: Sequence[int]) -> List[int]:
        """Path ids whose decompressed form contains *query* contiguously."""
        q = tuple(query)
        if len(q) == 1:
            return self.index.paths_containing(q[0])
        return self.search_hits(q)[0]

    def search(self, query: Sequence[int]) -> List[Subpath]:
        """The matching paths, decompressed."""
        return self.search_hits(query)[1]

    def count(self, query: Sequence[int]) -> int:
        """Number of paths containing *query*."""
        return len(self.search_ids(query))

    def __repr__(self) -> str:
        return f"SubpathSearcher(store={self.store!r})"
