"""Path model, datasets, preprocessing, encoding and I/O.

This subpackage provides the substrate on which every compressor in the
repository operates:

* :mod:`repro.paths.path` — the path abstraction (a sequence of vertex ids)
  and validity helpers matching the paper's definitions (Section II-A).
* :mod:`repro.paths.dataset` — an in-memory collection of paths with the
  statistics reported in Table III of the paper.
* :mod:`repro.paths.preprocess` — the preprocessing pipeline of Section VI-A
  (id remapping, noise removal, cycle cutting, pruning, grouping).
* :mod:`repro.paths.encoding` — integer stream encodings (fixed width and
  varint) used for byte-accurate size accounting.
* :mod:`repro.paths.reorder` — compression-aware vertex reordering: the
  invertible hottest-first :class:`~repro.paths.reorder.VertexOrder` fit by
  the ``frequency`` strategy (``identity`` keeps ids as they are).
* :mod:`repro.paths.io` — simple text/binary persistence for path sets.
"""

from repro.paths.path import (
    Path,
    is_simple,
    is_valid_path,
    subpath,
    subpaths_of_length,
    common_prefix_length,
)
from repro.paths.dataset import PathDataset, DatasetStats
from repro.paths.preprocess import (
    PreprocessReport,
    assign_new_ids,
    cut_cycles,
    drop_adjacent_duplicates,
    group_by_terminals,
    preprocess_paths,
    prune_trivial,
)
from repro.paths.encoding import (
    FixedWidthEncoding,
    VarintEncoding,
    decode_stream,
    encode_stream,
)
from repro.paths.reorder import (
    ORDER_STRATEGIES,
    VertexOrder,
    fit_order,
    order_entropy_bits,
    varint_bytes_saved,
)
from repro.paths.lightweight import (
    LIGHTWEIGHT_CODECS,
    DeltaCoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
    lightweight_sizes,
)

__all__ = [
    "Path",
    "is_simple",
    "is_valid_path",
    "subpath",
    "subpaths_of_length",
    "common_prefix_length",
    "PathDataset",
    "DatasetStats",
    "PreprocessReport",
    "assign_new_ids",
    "cut_cycles",
    "drop_adjacent_duplicates",
    "group_by_terminals",
    "preprocess_paths",
    "prune_trivial",
    "FixedWidthEncoding",
    "VarintEncoding",
    "encode_stream",
    "decode_stream",
    "LIGHTWEIGHT_CODECS",
    "DeltaCoding",
    "FrameOfReference",
    "NullSuppression",
    "RunLengthEncoding",
    "lightweight_sizes",
    "ORDER_STRATEGIES",
    "VertexOrder",
    "fit_order",
    "order_entropy_bits",
    "varint_bytes_saved",
]
