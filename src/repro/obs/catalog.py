"""The metric and span name catalog — single source of observability names.

Every counter, gauge, timer and span name used anywhere in this repository
is declared here, once, as a module-level constant.  Call sites import the
constant instead of repeating the string::

    from repro.obs.catalog import COMPRESS_PATHS
    registry.counter(COMPRESS_PATHS).inc(n)

Why a catalog instead of loose literals:

* **Cross-process conservation.**  The parallel differential tests assert
  that counter totals are identical across 1/2/4 worker processes.  That
  only holds if every process spells a metric the same way; a typo'd name
  silently forks a counter and the totals drift.
* **Dashboards aggregate on names.**  docs/observability.md promises a
  small closed set of dotted names.  The catalog *is* that set; the
  ``repro.lint`` rule R004 statically rejects any call site that passes a
  name not drawn from here.
* **Duplicate registration is a hard error.**  Declaring the same name
  twice (e.g. once as a counter and once as a gauge) raises
  :class:`DuplicateNameError` at import time, before any test can pass.

The only names not spelled literally here are the probe-counter families
published by :meth:`repro.core.probestats.ProbeStats.publish`, which carry
a caller-chosen prefix.  Those prefixes are still closed: every valid
``(prefix + suffix)`` combination is registered below and resolved through
:func:`probe_counter_names`, which rejects unknown prefixes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_TIMER = "timer"


class DuplicateNameError(ValueError):
    """The same observability name was registered twice."""


class UnknownNameError(KeyError):
    """A name (or probe prefix) is not in the catalog."""


_METRICS: Dict[str, str] = {}
_SPANS: Dict[str, str] = {}


def _register(table: Dict[str, str], name: str, kind: str) -> str:
    if name in table:
        raise DuplicateNameError(
            f"observability name {name!r} registered twice (as {table[name]} "
            f"and again as {kind}); every name may be declared exactly once"
        )
    table[name] = kind
    return name


def _counter(name: str) -> str:
    return _register(_METRICS, name, KIND_COUNTER)


def _gauge(name: str) -> str:
    return _register(_METRICS, name, KIND_GAUGE)


def _timer(name: str) -> str:
    return _register(_METRICS, name, KIND_TIMER)


def _span(name: str) -> str:
    return _register(_SPANS, name, "span")


# -- compression / decompression batches (repro.core.compressor) ----------------

COMPRESS_PATHS = _counter("compress.paths")
COMPRESS_SYMBOLS_IN = _counter("compress.symbols_in")
COMPRESS_SYMBOLS_OUT = _counter("compress.symbols_out")
COMPRESS_FLAT_BATCHES = _counter("compress.flat_batches")
COMPRESS_SECONDS = _timer("compress.seconds")

DECOMPRESS_PATHS = _counter("decompress.paths")
DECOMPRESS_SYMBOLS_IN = _counter("decompress.symbols_in")
DECOMPRESS_SYMBOLS_OUT = _counter("decompress.symbols_out")
DECOMPRESS_FLAT_BATCHES = _counter("decompress.flat_batches")
DECOMPRESS_SECONDS = _timer("decompress.seconds")

# -- table construction (repro.core.builder / repro.core.topdown) ---------------

BUILD_ITERATIONS = _counter("build.iterations")
BUILD_MATCHES = _counter("build.matches")
BUILD_CANDIDATES_PRUNED = _counter("build.candidates_pruned")
BUILD_SAMPLED_PATHS = _counter("build.sampled_paths")
BUILD_SAMPLED_NODES = _counter("build.sampled_nodes")
BUILD_DROPPED_AT_FINALIZATION = _counter("build.dropped_at_finalization")
BUILD_TOPDOWN_ROUNDS = _counter("build.topdown.rounds")
BUILD_TOPDOWN_TRIMMED = _counter("build.topdown.trimmed")
BUILD_TABLE_ENTRIES = _gauge("build.table_entries")
BUILD_LAMBDA_CAPACITY = _gauge("build.lambda_capacity")
BUILD_SECONDS = _timer("build.seconds")

# -- compressed store (repro.core.store) ----------------------------------------

STORE_INGESTED_PATHS = _counter("store.ingested_paths")
STORE_INGESTED_SYMBOLS_IN = _counter("store.ingested_symbols_in")
STORE_INGESTED_SYMBOLS_OUT = _counter("store.ingested_symbols_out")
STORE_RETRIEVED_PATHS = _counter("store.retrieved_paths")
STORE_RETRIEVED_SLICES = _counter("store.retrieved_slices")
STORE_COMPRESSED_BYTES = _gauge("store.compressed_bytes")
STORE_RAW_BYTES = _gauge("store.raw_bytes")
STORE_MAPPED_BYTES = _gauge("store.mapped_bytes")
STORE_INGEST_SECONDS = _timer("store.ingest.seconds")
STORE_RETRIEVE_SECONDS = _timer("store.retrieve.seconds")
STORE_RETRIEVE_SLICE_SECONDS = _timer("store.retrieve_slice.seconds")
STORE_RETRIEVE_ALL_SECONDS = _timer("store.retrieve_all.seconds")
STORE_OPEN_SECONDS = _timer("store.open.seconds")
STORE_SERIALIZE_SECONDS = _timer("store.serialize.seconds")

# -- path-query serving layer (repro.serve) --------------------------------------
#
# Every worker process owns its own registry (activated post-fork, like the
# repro.core.parallel workers); the integration tests assert that the sum of
# ``serve.requests`` over the per-worker shutdown snapshots equals the number
# of requests the client sent — counters below must therefore be incremented
# exactly once per handled request.

SERVE_REQUESTS = _counter("serve.requests")
SERVE_ERRORS = _counter("serve.errors")
SERVE_REQUEST_SECONDS = _timer("serve.request.seconds")
SERVE_RETRIEVE_REQUESTS = _counter("serve.retrieve.requests")
SERVE_RETRIEVE_SECONDS = _timer("serve.retrieve.seconds")
SERVE_RETRIEVE_SLICE_REQUESTS = _counter("serve.retrieve_slice.requests")
SERVE_RETRIEVE_SLICE_SECONDS = _timer("serve.retrieve_slice.seconds")
SERVE_RETRIEVE_MANY_REQUESTS = _counter("serve.retrieve_many.requests")
SERVE_RETRIEVE_MANY_SECONDS = _timer("serve.retrieve_many.seconds")
SERVE_EXPANDED_LENGTH_REQUESTS = _counter("serve.expanded_length.requests")
SERVE_EXPANDED_LENGTH_SECONDS = _timer("serve.expanded_length.seconds")
SERVE_PATHS_BETWEEN_REQUESTS = _counter("serve.paths_between.requests")
SERVE_PATHS_BETWEEN_SECONDS = _timer("serve.paths_between.seconds")
SERVE_SUBPATH_SEARCH_REQUESTS = _counter("serve.subpath_search.requests")
SERVE_SUBPATH_SEARCH_SECONDS = _timer("serve.subpath_search.seconds")
SERVE_BATCHES = _counter("serve.batches")
SERVE_BATCH_PATHS = _counter("serve.batch_paths")

# -- sharded store (repro.core.sharded) ------------------------------------------
#
# The sharded layer reports build-side work (parallel per-shard compression,
# memtable seals) and the shape of the stores it opens.  Like every other
# counter family, totals must be conserved across process counts: the
# parallel build workers ship their snapshots back through the
# repro.core.parallel pool machinery.

SHARD_COUNT = _gauge("shard.count")
SHARD_MAPPED_BYTES = _gauge("shard.mapped_bytes")
SHARD_OPEN_SECONDS = _timer("shard.open.seconds")
SHARD_BUILD_SECONDS = _timer("shard.build.seconds")
SHARD_BUILT = _counter("shard.built")
SHARD_SEALED = _counter("shard.sealed")
SHARD_SEAL_SECONDS = _timer("shard.seal.seconds")
SHARD_MEMTABLE_PATHS = _gauge("shard.memtable_paths")
SHARD_INGESTED_PATHS = _counter("shard.ingested_paths")

# -- ablation harness (repro.bench.ablation) --------------------------------------
#
# The run-matrix executor counts every cell it measures and every cell it
# skipped because a resumable partial-results file already contained it —
# ``cells + cells_skipped`` therefore always equals the generated matrix
# size, which the resume tests assert.  Per-cell wall time lands on the
# timer so nightly runs can watch matrix cost drift.

ABLATION_CELLS = _counter("ablation.cells")
ABLATION_CELLS_SKIPPED = _counter("ablation.cells_skipped")
ABLATION_CELL_SECONDS = _timer("ablation.cell.seconds")
ABLATION_SECONDS = _timer("ablation.seconds")

# -- vertex reordering (repro.paths.reorder) --------------------------------------
#
# ``fit_order`` publishes one timer per fit plus three gauges describing the
# order it produced: how many vertices it covers, the Shannon entropy of the
# vertex-frequency distribution (low entropy predicts large hottest-first
# wins), and the net varint bytes the order saves across the fitted corpus.

REORDER_FIT_SECONDS = _timer("reorder.fit.seconds")
REORDER_VERTICES = _gauge("reorder.vertices")
REORDER_ORDER_ENTROPY = _gauge("reorder.order_entropy")
REORDER_VARINT_BYTES_SAVED = _gauge("reorder.varint_bytes_saved")

# -- supernode-expansion cache (repro.core.expansion) ----------------------------

TABLE_EXPANSION_CACHE_HITS = _counter("table.expansion_cache.hits")
TABLE_EXPANSION_CACHE_MISSES = _counter("table.expansion_cache.misses")
TABLE_EXPANSION_CACHE_ENTRIES = _gauge("table.expansion_cache.entries")

# -- probe-cost families (repro.core.probestats) --------------------------------
#
# ProbeStats.publish(registry, prefix) emits "<prefix>.probes" and
# "<prefix>.hashed_vertices"; the closed set of prefixes is declared here and
# every resulting full name is registered like any other counter.

_PROBE_SUFFIXES: Tuple[str, str] = ("probes", "hashed_vertices")

MATCHER_PROBES = _counter("matcher.probes")
MATCHER_HASHED_VERTICES = _counter("matcher.hashed_vertices")
BUILD_MATCHER_PROBES = _counter("build.matcher.probes")
BUILD_MATCHER_HASHED_VERTICES = _counter("build.matcher.hashed_vertices")

PROBE_PREFIX_MATCHER = "matcher"
PROBE_PREFIX_BUILD_MATCHER = "build.matcher"
PROBE_PREFIXES: FrozenSet[str] = frozenset(
    (PROBE_PREFIX_MATCHER, PROBE_PREFIX_BUILD_MATCHER)
)

# -- spans ----------------------------------------------------------------------

SPAN_COMPRESS = _span("compress")
SPAN_DECOMPRESS = _span("decompress")
SPAN_BUILD = _span("build")
SPAN_BUILD_INITIALIZE = _span("build.initialize")
SPAN_BUILD_ITERATION = _span("build.iteration")
SPAN_BUILD_PRUNE = _span("build.prune")
SPAN_BUILD_FINALIZE = _span("build.finalize")
SPAN_BUILD_TOPDOWN = _span("build.topdown")
SPAN_BUILD_TOPDOWN_ROUND = _span("build.topdown.round")
SPAN_STORE_INGEST = _span("store.ingest")
SPAN_STORE_RETRIEVE_ALL = _span("store.retrieve_all")
SPAN_STORE_OPEN = _span("store.open")
SPAN_STORE_SERIALIZE = _span("store.serialize")
SPAN_SHARD_BUILD = _span("shard.build")
SPAN_SHARD_SEAL = _span("shard.seal")
SPAN_SHARD_OPEN = _span("shard.open")
SPAN_ABLATION_CELL = _span("ablation.cell")


# -- queries --------------------------------------------------------------------


def probe_counter_names(prefix: str) -> Tuple[str, str]:
    """The registered ``(probes, hashed_vertices)`` counter names for *prefix*.

    :raises UnknownNameError: for a prefix outside :data:`PROBE_PREFIXES` —
        publishing probe work under an unregistered prefix would create
        counters no dashboard (and no conservation test) knows about.
    """
    if prefix not in PROBE_PREFIXES:
        raise UnknownNameError(
            f"unknown probe prefix {prefix!r}; registered prefixes: "
            f"{sorted(PROBE_PREFIXES)}"
        )
    return (f"{prefix}.{_PROBE_SUFFIXES[0]}", f"{prefix}.{_PROBE_SUFFIXES[1]}")


def metric_names() -> Dict[str, str]:
    """Every registered metric name mapped to its kind (counter/gauge/timer)."""
    return dict(_METRICS)


def span_names() -> FrozenSet[str]:
    """Every registered span name."""
    return frozenset(_SPANS)


def is_registered(name: str) -> bool:
    """Whether *name* is a declared metric or span name."""
    return name in _METRICS or name in _SPANS
