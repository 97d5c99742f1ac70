"""Queries over compressed path stores (the paper's Cases 1 & 2 and beyond).

Every store answers its queries itself: the one query engine is
:class:`~repro.core.reader.PathReader` (``affected_paths``,
``paths_between``, ``subpath_search``, ``pattern_search`` and their
``_hits`` / ``_vertices`` forms).  This package holds what that engine
and its callers build on:

* :mod:`repro.queries.index` — a supernode-aware inverted index from vertex
  ids to the compressed paths containing them, built *without* decompressing
  anything; it narrows every query to its candidates.
* :mod:`repro.queries.pattern` — waypoint/wildcard path patterns
  (:class:`PathPattern`, :data:`ANY`, :data:`GAP`), the predicate
  ``store.pattern_search`` runs over the decoded candidates.
* :mod:`repro.queries.analytics` — statistics computed directly on the
  compressed form (histograms, lengths, table usage), the minability that
  byte-level generic compression loses.
"""

from repro.queries.analytics import (
    compression_summary,
    hot_subpaths,
    path_lengths,
    supernode_usage,
    vertex_histogram,
)
from repro.queries.index import VertexIndex
from repro.queries.pattern import ANY, GAP, PathPattern

__all__ = [
    "VertexIndex",
    "ANY",
    "GAP",
    "PathPattern",
    "compression_summary",
    "hot_subpaths",
    "path_lengths",
    "supernode_usage",
    "vertex_histogram",
]
