"""repro — Overlap-Free Frequent Subpath (OFFS) path compression.

A complete reproduction of *"Efficient and Effective Path Compression in
Large Graphs"* (Huang, Wen, Lai, Qian, Qin, Zhang — ICDE 2023): the OFFS
compressor, every baseline it is compared against, the preprocessing
pipeline, workload surrogates for the paper's datasets, the retrieval
use-cases, and a benchmark harness regenerating every table and figure of
the evaluation.

Quickstart::

    from repro import OFFSCodec, CompressedPathStore, PathDataset

    dataset = PathDataset([[1, 2, 3, 4, 9], [0, 1, 2, 3, 4], [1, 2, 3, 4, 7]])
    codec = OFFSCodec.default().fit(dataset)
    store = CompressedPathStore.from_corpus(dataset, codec.table)
    assert store.retrieve(1) == (0, 1, 2, 3, 4)
    print(store.compression_ratio())

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
paper's experiments.
"""

from repro.core import (
    CompressedPathStore,
    OFFSCodec,
    OFFSConfig,
    PathCodec,
    ReproError,
    SupernodeTable,
    TableBuilder,
    TableCodec,
    build_supernode_table,
    compress_path,
    decompress_path,
)
from repro.paths import Path, PathDataset, preprocess_paths
from repro.queries import VertexIndex

__version__ = "1.0.0"

__all__ = [
    "CompressedPathStore",
    "OFFSCodec",
    "OFFSConfig",
    "PathCodec",
    "ReproError",
    "SupernodeTable",
    "TableBuilder",
    "TableCodec",
    "build_supernode_table",
    "compress_path",
    "decompress_path",
    "Path",
    "PathDataset",
    "preprocess_paths",
    "VertexIndex",
    "__version__",
]
