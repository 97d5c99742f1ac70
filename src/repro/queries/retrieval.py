"""The two operational queries from the paper's introduction.

**Case 1 — identifying affected nodes.**  "Once there is an anomaly in a host
server ... by retrieving all indexed IP paths containing the issue node, we
can fetch all affected IP nodes accurately."

**Case 2 — locating anomalies.**  "Given a user client IP and a terminal
IP ... we need to investigate all intermediate IP nodes of network
transactions ... by collecting all IP paths with given terminals."

:class:`PathQueryEngine` answers both over a :class:`CompressedPathStore`
(or any :class:`~repro.core.reader.PathReader`) without bulk decompression: the
vertex index narrows each query to its *candidates* — the paths containing
every queried vertex — and only those are decoded, each exactly once, by
one ``retrieve_batch`` call.  The match test then runs on the decoded
paths, in original vertex ids, so it needs no knowledge of the archive's
token form or vertex order.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.store import CompressedPathStore
from repro.queries.index import VertexIndex


class PathQueryEngine:
    """Case 1 / Case 2 query service over a compressed store.

    :param store: the compressed archive.
    :param index: an existing :class:`VertexIndex`; built on demand when
        omitted.
    """

    def __init__(
        self,
        store: CompressedPathStore,
        index: Optional[VertexIndex] = None,
    ) -> None:
        self.store = store
        self.index = index or VertexIndex(store)

    # -- Case 1 -------------------------------------------------------------------

    def affected_paths(self, issue_vertex: int) -> List[Tuple[int, ...]]:
        """All paths passing through *issue_vertex*, decompressed.

        Only the matching paths are decompressed; everything else stays
        compressed in the store.
        """
        ids = self.index.paths_containing(issue_vertex)
        return self.store.retrieve_batch(ids)

    def affected_vertices(self, issue_vertex: int) -> Set[int]:
        """Case 1's answer: every vertex sharing a path with *issue_vertex*.

        The accurate alternative to the exponential neighbourhood search the
        paper warns against.
        """
        affected: Set[int] = set()
        for path in self.affected_paths(issue_vertex):
            affected.update(path)
        affected.discard(issue_vertex)
        return affected

    # -- Case 2 -------------------------------------------------------------------

    def paths_between(self, source: int, destination: int) -> List[Tuple[int, ...]]:
        """All paths starting at *source* and ending at *destination*."""
        return self.paths_between_hits(source, destination)[1]

    def paths_between_hits(
        self, source: int, destination: int
    ) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """``(ids, paths)`` of the paths from *source* to *destination*.

        The index narrows candidates to paths containing both vertices
        (terminal positions are not indexed); each candidate is decoded
        once and kept when its first and last vertices are the terminals.
        Ids ascend, as the index returns them.
        """
        candidates = self.index.paths_containing_all((source, destination))
        ids: List[int] = []
        paths: List[Tuple[int, ...]] = []
        for path_id, path in zip(candidates, self.store.retrieve_batch(candidates)):
            if path[0] == source and path[-1] == destination:
                ids.append(path_id)
                paths.append(path)
        return ids, paths

    def intermediate_vertices(self, source: int, destination: int) -> Set[int]:
        """Case 2's answer: all intermediate hops between two terminals."""
        intermediates: Set[int] = set()
        for path in self.paths_between(source, destination):
            intermediates.update(path[1:-1])
        return intermediates

    def __repr__(self) -> str:
        return f"PathQueryEngine(store={self.store!r})"
