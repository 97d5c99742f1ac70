"""OFFS core: supernode tables, table construction, (de)compression, storage.

The paper's primary contribution lives here:

* :mod:`repro.core.config` — the δ/α/τ/k/β parameter set with paper defaults.
* :mod:`repro.core.supernode_table` — the rule ``R``: supernode ↔ subpath.
* :mod:`repro.core.matcher` / :mod:`~repro.core.multilevel` —
  longest-prefix matching backends (Algorithms 6 and 7).
* :mod:`repro.core.builder` — ``TConstruct*`` (Algorithm 5): merge &
  expansion under practical weighted frequency.
* :mod:`repro.core.compressor` — Algorithms 1 and 2, plus the flat batch
  entry points (``compress_paths_flat`` / ``decompress_paths_flat``).
* :mod:`repro.core.flatcorpus` / :mod:`repro.core.rollhash` — the
  flat-corpus layout and the vectorized batch kernel of bulk encode.
* :mod:`repro.core.offs` — the :class:`OFFSCodec` façade.
* :mod:`repro.core.reader` — :class:`PathReader`, the one read path
  (retrieval, order inversion, size accounting, queries) every store
  kind shares.
* :mod:`repro.core.store` — per-path random-access compressed storage.
* :mod:`repro.core.expansion` — the memoized supernode-expansion cache
  behind the decode fast path (batch kernel, slice retrieval).
* :mod:`repro.core.serialize` — versioned binary persistence (v1 blobs
  and the mmap-friendly v2 single-file layout).
* :mod:`repro.core.mapped` — :class:`MappedPathStore`, zero-copy random
  access over v2 files.
* :mod:`repro.core.sharded` — :class:`ShardedPathStore`: parallel sharded
  builds, LSM-style streaming ingest, and one token source over the shards.
"""

from repro.core.autotune import (
    TuningResult,
    ablation_overrides,
    autotune,
)
from repro.core.builder import BuildReport, TableBuilder, build_supernode_table
from repro.core.codec import PathCodec, TableCodec
from repro.core.compressor import (
    compress_dataset,
    compress_path,
    compress_paths_flat,
    decompress_dataset,
    decompress_path,
    decompress_paths_flat,
)
from repro.core.flatcorpus import FlatCorpus, as_flat_corpus
from repro.core.config import OFFSConfig
from repro.core.errors import (
    BoundsError,
    ConfigError,
    CorruptDataError,
    InvalidInputError,
    NotFittedError,
    PathIdError,
    ReproError,
    StateError,
    TableError,
    TruncatedDataError,
)
from repro.core.expansion import ExpansionCache, slice_token
from repro.core.matcher import CandidateSet, HashCandidates, make_candidate_set
from repro.core.stream import StreamingCompressor
from repro.core.topdown import TopDownRefiner
from repro.core.validate import ValidationReport, validate_store
from repro.core.multilevel import MultiLevelCandidates
from repro.core.rollhash import FlatBatchKernel
from repro.core.offs import OFFSCodec
from repro.core.mapped import MappedPathStore
from repro.core.sharded import (
    ShardedIngest,
    ShardedPathStore,
    ShardManifest,
    build_sharded_store,
    open_store,
)
from repro.core.serialize import (
    dump_store_file,
    dumps_store,
    dumps_store_v2,
    dumps_table,
    loads_store,
    loads_store_v2,
    loads_table,
)
from repro.core.reader import PathReader
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable

__all__ = [
    "TuningResult",
    "ablation_overrides",
    "autotune",
    "ValidationReport",
    "validate_store",
    "BuildReport",
    "TableBuilder",
    "build_supernode_table",
    "PathCodec",
    "TableCodec",
    "compress_dataset",
    "compress_path",
    "compress_paths_flat",
    "decompress_dataset",
    "decompress_path",
    "decompress_paths_flat",
    "FlatCorpus",
    "as_flat_corpus",
    "FlatBatchKernel",
    "OFFSConfig",
    "BoundsError",
    "ConfigError",
    "CorruptDataError",
    "InvalidInputError",
    "NotFittedError",
    "PathIdError",
    "ReproError",
    "StateError",
    "TableError",
    "CandidateSet",
    "StreamingCompressor",
    "TopDownRefiner",
    "HashCandidates",
    "MultiLevelCandidates",
    "make_candidate_set",
    "OFFSCodec",
    "dump_store_file",
    "dumps_store",
    "dumps_store_v2",
    "dumps_table",
    "loads_store",
    "loads_store_v2",
    "loads_table",
    "PathReader",
    "CompressedPathStore",
    "MappedPathStore",
    "ShardedIngest",
    "ShardedPathStore",
    "ShardManifest",
    "build_sharded_store",
    "open_store",
    "SupernodeTable",
    "TruncatedDataError",
    "ExpansionCache",
    "slice_token",
]
