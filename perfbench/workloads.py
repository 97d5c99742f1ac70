"""The four workloads of the repository benchmark.

Each workload generates its corpus with ``repro.workloads.make_dataset(name,
"medium", DATASET_SEED)``, puts the paths in an order drawn from the run's
seed, and draws its whole op stream from that seed before timing starts.
All load comes from this one process: one thread, and for ``serve`` one
keep-alive HTTP connection in a closed loop.

* ``build`` — what ``repro compress --format v2 --reorder frequency`` does
  with the CLI defaults, as library calls, on medium alibaba; then the
  archive is reopened and decoded in full.  The write path: reorder,
  builder, matcher, compressor and serialize do their work here.
* ``ingest`` — medium porto fed one path at a time through
  ``ShardedIngest`` (foreground seals; the flush policy is the code's:
  atomic rename, no fsync).  The compressor runs per path, and the seal
  and manifest publish run about nine times per ingest.
* ``point-read`` — Zipf-skewed retrieve / slice / batch reads over the
  ``build`` archive opened with ``MappedPathStore.open``.  Offset lookup,
  varint parse, expansion gather and id inversion; no compress layer.
* ``serve`` — ``python -m repro serve`` with one worker over a v2 archive
  of medium rome, driven through one persistent HTTP/1.1 connection with
  uniform ids.  The only workload that measures HTTP, JSON encoding and
  the query engine.

End-to-end metrics
------------------
Every run's result line carries the same metric names, whatever the
workload.  The latencies each workload is judged by therefore travel in
four ordered slots, ``op1_ms`` to ``op4_ms``, which each workload fills
with its own quantities (its ``SLOTS``), converted to milliseconds.  The
record line repeats them under their own names:

==========  ===================  =======================  ===================  ====================
slot        build                ingest                   point-read           serve
==========  ===================  =======================  ===================  ====================
``op1_ms``  ``build_s``          ``ingest_s``             ``retrieve_p50_us``  ``serve_p50_ms``
``op2_ms``  ``decode_all_s``     ``decode_all_s``         ``slice_p50_us``     ``query_p50_ms``
``op3_ms``  ``fit_s``            ``feed_p50_us``          ``batch_p50_us``     ``many_p50_ms``
``op4_ms``  ``encode_s``         ``seal_p50_ms``          ``retrieve_p99_us``  ``serve_p90_ms``
==========  ===================  =======================  ===================  ====================

* ``build_s``: one build, corpus in memory to closed v2 file (the paper's
  CS), the median over the run's builds; ``fit_s`` is its
  ``OFFSCodec.fit`` part, ``encode_s`` the rest (compress, serialize,
  write).  ``decode_all_s``: reopen and ``retrieve_all`` (the paper's DS).
* ``ingest_s``: one ingest, first ``feed`` to the end of ``close()``;
  ``feed_p50_us`` the median ``feed`` call, ``seal_p50_ms`` the median
  ``feed`` call that sealed a shard.
* ``slice_p50_us`` is the paper's PDS; ``batch`` is ``retrieve_batch`` of
  32 ids.  ``retrieve_p99_us`` is the median over blocks of
  :data:`POINT_BLOCK` reads of each block's p99: a run-wide p99 moves by
  a tenth between runs of one seed with the host's brief stalls.
* ``serve_*`` cover every request, from send to the last response byte;
  ``query_p50_ms`` only ``paths_between`` and ``subpath_search``,
  ``many_p50_ms`` only ``retrieve_many``.

``compression_ratio`` and ``archive_bytes_per_path`` describe the archive
the workload writes or reads (shards plus manifest for ``ingest``), and
``peak_rss_mb`` is the ``VmHWM`` of the process that does the work, reset
just before that work starts: each build or ingest, the block of point
reads, and the server's worker before the requests.  Wrong answers are
counted in the result line's ``failed``, never dropped.

Every timing except ``serve``'s is scaled to reference host speed by
:mod:`speed`: a shared 2-vCPU VM switches between a fast and a slow
phase every few seconds, and a probe of a fixed loop beside each unit
of work cancels that.  ``serve`` latencies stay raw wall times: they wait
on the server process, and today on a fixed 44 ms keep-alive stall.  The
raw wall times are in each record (``wall_s``).

A traced run (``trace``) times the layers from outside with a
:class:`~ledger.Ledger` and reconciles them against the wall time of the
same operations.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

from ledger import Ledger, percentile, reset_hwm, vm_hwm_mb
from speed import SpeedProbe

from repro.core import compressor, expansion, matcher, serialize
from repro.core.builder import TableBuilder
from repro.core.config import OFFSConfig
from repro.core.mapped import MappedPathStore
from repro.core.offs import OFFSCodec
from repro.core.sharded import ShardedIngest, open_store
from repro.core.store import CompressedPathStore
from repro.core.stream import StreamingCompressor
from repro.paths import reorder
from repro.paths.dataset import PathDataset
from repro.paths.reorder import VertexOrder
from repro.queries.index import VertexIndex
from repro.serve import protocol
from repro.serve.app import StoreApp
from repro.workloads import make_dataset

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THIS = sys.modules[__name__]

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3
#: Fewest build / ingest cycles a run measures, whatever ``--seconds`` says.
MIN_CYCLES = 3
#: A traced run fails when more than this share of the traced wall time
#: lies outside every layer span.  Point reads take microseconds, so the
#: method-call glue between layers (id checks, lazy-property lookups) and
#: part of each span's own cost are a visible share of every op there.
RECONCILE_TOLERANCE = {"build": 0.10, "ingest": 0.10, "point-read": 0.35, "serve": 0.10}

#: The generator seed of every workload's corpus; the run's seed orders
#: the paths and draws the op streams.  Seeds of the generator itself move
#: the synthetic city layout, and with it rome's CR between 3.7 and 4.6.
DATASET_SEED = 0

BATCH = 32
POINT_OPS = 40_000
#: Point reads between two host-speed probes; also the window of one
#: ``retrieve`` p99 sample (about 1,400 retrieves, 14 beyond their p99).
POINT_BLOCK = 2048
SERVE_OPS = 3_000
SERVE_WINDOW = 6
INGEST_TRAIN_AFTER = 1000
INGEST_MEMTABLE_PATHS = 1024
#: Feeds between two host-speed probes in an ingest.
INGEST_CHUNK = 1024

#: The latency slots of the result line, in the order of each ``SLOTS``.
SLOT_NAMES = ("op1_ms", "op2_ms", "op3_ms", "op4_ms")

#: End-to-end metrics every workload reports from an untraced run.
END_TO_END = {
    "setup_s": "s",
    **{slot: "ms" for slot in SLOT_NAMES},
    "compression_ratio": "x",
    "archive_bytes_per_path": "B",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run; a layer a workload does not touch reads 0.
PER_LAYER = {
    "reorder.fit_s": "s",
    "reorder.transform_s": "s",
    "builder.table_build_s": "s",
    "builder.table_entries": "count",
    "matcher.setup_s": "s",
    "compressor.match_s": "s",
    "compressor.symbols_in": "count",
    "compressor.symbols_out": "count",
    "serialize.dump_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes": "B",
    "mapped.tokens_s": "s",
    "expansion.decode_all_s": "s",
    "reorder.invert_all_s": "s",
    "stream.feed_us": "us",
    "stream.train_s": "s",
    "sharded.seal_s": "s",
    "sharded.seals": "count",
    "sharded.seal_max_ms": "ms",
    "sharded.close_s": "s",
    "sharded.bytes_written": "B",
    "mapped.open_s": "s",
    "mapped.table_s": "s",
    "mapped.token_us": "us",
    "expansion.expand_us": "us",
    "expansion.slice_us": "us",
    "expansion.batch_us": "us",
    "reorder.invert_us": "us",
    "mapped.over_memory": "x",
    "serve.app_ms.retrieve": "ms",
    "serve.app_ms.retrieve_many": "ms",
    "serve.app_ms.paths_between": "ms",
    "serve.app_ms.subpath_search": "ms",
    "serve.encode_ms": "ms",
    "serve.response_bytes": "B",
    "serve.transport_ms": "ms",
    "serve.reconnects": "count",
    "serve.connection_close": "count",
    "queries.index_build_s": "s",
    "queries.candidates": "count",
    "queries.matches": "count",
    "queries.hit_ratio": "fraction",
    "unattributed_share": "fraction",
    "trace_overhead_share": "fraction",
    "fail_ratio": "fraction",
}


def to_ms(name: str, value: float) -> float:
    """*value*, a quantity whose *name* ends in its unit, in milliseconds."""
    for suffix, factor in (("_us", 1e-3), ("_ms", 1.0), ("_s", 1e3)):
        if name.endswith(suffix):
            return value * factor
    raise ValueError(f"{name!r} does not end in a time unit")


class Outcome:
    """What one run attempted, what failed, and what it measured."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: End-to-end quantities of an untraced run, under their own names.
        self.values = {}
        #: Per-layer metrics of a traced run.
        self.metrics = {}
        #: Everything else worth keeping: op counts and the loop shape.
        self.record = {}

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def check_paths(self, got, want, what: str) -> None:
        """Count every path of *want*; a missing or different one fails."""
        wrong = abs(len(got) - len(want))
        wrong += sum(1 for a, b in zip(got, want) if tuple(a) != b)
        self.attempted += max(len(got), len(want))
        if wrong:
            self.fail(f"{what}: {wrong} path(s) differ from the dataset", wrong)

    def reconcile(self, ledger: Ledger, traced_wall: float, untraced_wall: float) -> None:
        """Report how much traced wall time the layer spans leave uncovered."""
        unattributed = 1.0 - ledger.covered / traced_wall
        self.metrics["unattributed_share"] = unattributed
        self.metrics["trace_overhead_share"] = traced_wall / untraced_wall - 1.0
        tolerance = RECONCILE_TOLERANCE[self.workload]
        self.record["reconcile_tolerance"] = tolerance
        if unattributed > tolerance:
            self.problems.append(
                f"layer spans leave {unattributed:.1%} of the traced wall time "
                f"unattributed (tolerance {tolerance:.0%})"
            )


# -- shared steps -------------------------------------------------------------------


def fresh_dataset(name: str, seed: int):
    """Generate medium *name* anew (bypassing the memo), paths shuffled by *seed*.

    Returns the dataset and its paths as a list of tuples.
    """
    make_dataset.cache_clear()
    paths = [tuple(path) for path in make_dataset(name, "medium", DATASET_SEED)]
    random.Random(seed).shuffle(paths)
    return PathDataset(paths, name=name), paths


def median_of(items, attr: str) -> float:
    return statistics.median(getattr(item, attr) for item in items)


def digest(value) -> str:
    """A short stable fingerprint of *value*'s repr."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def start_clean() -> None:
    """Free the previous cycle's garbage, then restart the peak-RSS count."""
    gc.collect()
    reset_hwm()


def cli_config(strategy: str) -> OFFSConfig:
    """The configuration ``repro compress`` uses with its default flags."""
    return OFFSConfig(
        iterations=4, sample_exponent=2, delta=8, alpha=5, beta=500.0,
        topdown_rounds=0, matcher="hash", reorder=strategy,
    )


def write_file(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


def write_archive(corpus, codec: OFFSCodec, config: OFFSConfig, path: str) -> bytes:
    """Compress *corpus* with a fitted *codec*, serialize and write it as v2."""
    store = CompressedPathStore.from_corpus(
        corpus, codec.table, matcher_backend=config.matcher, order=codec.order
    )
    blob = serialize.dumps_store_v2(store)
    write_file(path, blob)
    return blob


def build_archive(corpus, config: OFFSConfig, path: str) -> bytes:
    """Fit, compress, serialize and write one v2 archive."""
    return write_archive(corpus, OFFSCodec(config).fit(corpus), config, path)


def timed_decode(path: str):
    """Reopen the archive at *path* and decode every path; returns (s, paths)."""
    start = perf_counter()
    store = open_store(path)
    try:
        decoded = store.retrieve_all()
    finally:
        store.close()
    return perf_counter() - start, decoded


def archive_ratio(path: str) -> float:
    store = open_store(path)
    try:
        return store.compression_ratio()
    finally:
        store.close()


def interleaved(deadline: float, step) -> None:
    """Call ``step(True)`` (traced) and ``step(False)`` alternately until *deadline*.

    Alternating keeps drift of the machine from landing on one side of the
    tracing-overhead comparison.
    """
    rounds = 0
    while rounds < 2 or perf_counter() < deadline:
        step(True)
        step(False)
        rounds += 1


# -- build ------------------------------------------------------------------------


class Build:
    """Medium alibaba, frequency reorder: build, write, reopen, decode all."""

    SLOTS = ("build_s", "decode_all_s", "fit_s", "encode_s")

    def setup(self, seed: int, workdir: str):
        dataset, paths = fresh_dataset("alibaba", seed)
        config = cli_config("frequency")
        return SimpleNamespace(
            paths=paths,
            corpus=dataset.to_flat(),
            config=config,
            archive=os.path.join(workdir, "alibaba.rpc2"),
            digests={"dataset": digest(paths), "ops": digest(config)},
        )

    def teardown(self, state) -> None:
        pass

    def cycle(self, state, out: Outcome):
        """One checked build and full decode.

        Returns each phase's time scaled to reference speed, and the raw
        wall time of the whole.
        """
        start_clean()
        speed = SpeedProbe()
        start = perf_counter()
        codec = OFFSCodec(state.config).fit(state.corpus)
        fit_wall = perf_counter() - start
        fit_s = fit_wall * speed.scale()
        start = perf_counter()
        blob = write_archive(state.corpus, codec, state.config, state.archive)
        encode_wall = perf_counter() - start
        encode_s = encode_wall * speed.scale()
        decode_wall, decoded = timed_decode(state.archive)
        decode_s = decode_wall * speed.scale()
        peak_mb = vm_hwm_mb()
        out.check_paths(decoded, state.paths, "decode_all")
        return SimpleNamespace(
            build_s=fit_s + encode_s, fit_s=fit_s, encode_s=encode_s, decode_s=decode_s,
            wall_s=fit_wall + encode_wall + decode_wall, peak_mb=peak_mb,
            size=len(blob), digest=digest(blob),
        )

    def measure(self, state, seconds: float, out: Outcome) -> None:
        cycles = []
        deadline = perf_counter() + seconds
        while len(cycles) < MIN_CYCLES or perf_counter() < deadline:
            cycles.append(self.cycle(state, out))
        for cycle in cycles[1:]:
            out.check(cycle.digest == cycles[0].digest,
                      "two builds of one corpus wrote different bytes")
        out.values.update(
            build_s=median_of(cycles, "build_s"),
            decode_all_s=median_of(cycles, "decode_s"),
            fit_s=median_of(cycles, "fit_s"),
            encode_s=median_of(cycles, "encode_s"),
            compression_ratio=archive_ratio(state.archive),
            archive_bytes_per_path=cycles[0].size / len(state.paths),
            peak_rss_mb=median_of(cycles, "peak_mb"),
        )
        out.record.update(builds=len(cycles), wall_s=[c.wall_s for c in cycles])

    def trace(self, state, seconds: float, out: Outcome) -> None:
        ledger = Ledger()
        ledger.wrap(reorder, "fit_order", "reorder.fit")
        ledger.wrap(VertexOrder, "transform_corpus", "reorder.transform")
        ledger.wrap(TableBuilder, "build", "builder.table_build",
                    after=lambda led, args, result: led.count(
                        "builder.table_entries", len(result[0])))
        ledger.wrap(matcher, "static_matcher_from_table", "matcher.setup")
        ledger.wrap(compressor, "compress_paths_flat", "compressor.match",
                    after=_count_symbols)
        ledger.wrap(serialize, "dumps_store_v2", "serialize.dump",
                    after=lambda led, args, result: led.count("serialize.bytes", len(result)))
        ledger.wrap(THIS, "write_file", "serialize.write")
        ledger.wrap(MappedPathStore, "open", "mapped.open")
        ledger.wrap(MappedPathStore, "tokens", "mapped.tokens")
        ledger.wrap(compressor, "decompress_paths_flat", "expansion.decode_all")
        ledger.wrap(VertexOrder, "invert_path", "reorder.invert")
        walls = {True: 0.0, False: 0.0}
        digests = {}

        def step(traced: bool) -> None:
            if traced:
                ledger.install()
            try:
                cycle = self.cycle(state, out)
            finally:
                ledger.remove()
            if traced:
                ledger.end_cycle()
                digests["traced"] = cycle.digest
            else:
                out.check(cycle.digest == digests["traced"],
                          "the traced build wrote different bytes than the untraced one")
            walls[traced] += cycle.wall_s

        interleaved(perf_counter() + seconds, step)
        out.reconcile(ledger, walls[True], walls[False])
        per_cycle = ledger.per_cycle
        out.metrics.update({
            "reorder.fit_s": per_cycle("reorder.fit"),
            "reorder.transform_s": per_cycle("reorder.transform"),
            "builder.table_build_s": per_cycle("builder.table_build"),
            "builder.table_entries": per_cycle("builder.table_entries"),
            "matcher.setup_s": per_cycle("matcher.setup"),
            "compressor.match_s": per_cycle("compressor.match"),
            "compressor.symbols_in": per_cycle("compressor.symbols_in"),
            "compressor.symbols_out": per_cycle("compressor.symbols_out"),
            "serialize.dump_s": per_cycle("serialize.dump"),
            "serialize.write_s": per_cycle("serialize.write"),
            "serialize.bytes": per_cycle("serialize.bytes"),
            "mapped.open_s": per_cycle("mapped.open"),
            "mapped.tokens_s": per_cycle("mapped.tokens"),
            "expansion.decode_all_s": per_cycle("expansion.decode_all"),
            "reorder.invert_all_s": per_cycle("reorder.invert"),
        })


def _count_symbols(ledger: Ledger, args: tuple, result) -> None:
    corpus = args[0]
    symbols_in = getattr(corpus, "total_symbols", None)
    if symbols_in is None:
        symbols_in = sum(len(path) for path in corpus)
    ledger.count("compressor.symbols_in", symbols_in)
    ledger.count("compressor.symbols_out", sum(len(token) for token in result))


# -- ingest -----------------------------------------------------------------------


class Ingest:
    """Medium porto, one path at a time through ``ShardedIngest``."""

    SLOTS = ("ingest_s", "decode_all_s", "feed_p50_us", "seal_p50_ms")

    def setup(self, seed: int, workdir: str):
        _, paths = fresh_dataset("porto", seed)
        return SimpleNamespace(
            paths=paths,
            chunks=[paths[i:i + INGEST_CHUNK] for i in range(0, len(paths), INGEST_CHUNK)],
            workdir=workdir,
            cycles=0,
            digests={
                "dataset": digest(paths),
                "ops": digest(("feed", INGEST_TRAIN_AFTER, INGEST_MEMTABLE_PATHS)),
            },
        )

    def teardown(self, state) -> None:
        pass

    def cycle(self, state, out: Outcome):
        """One ingest into a fresh directory, then a checked read-back.

        Times are scaled to reference speed chunk by chunk, with a host
        speed probe between chunks; ``wall_s`` is the raw ingest time.
        """
        state.cycles += 1
        directory = os.path.join(state.workdir, f"ingest-{state.cycles}")
        os.makedirs(directory)
        manifest = os.path.join(directory, "porto.rpsm")
        start_clean()
        ingest = ShardedIngest(
            manifest, train_after=INGEST_TRAIN_AFTER, memtable_paths=INGEST_MEMTABLE_PATHS
        )
        speed = SpeedProbe()
        feeds, seals = [], []
        ingest_s = wall_s = 0.0
        for chunk in state.chunks:
            chunk_feeds, chunk_seals = [], []
            start = perf_counter()
            for path in chunk:
                shards = ingest.shard_count
                began = perf_counter()
                ingest.feed(path)
                elapsed = perf_counter() - began
                (chunk_seals if ingest.shard_count > shards else chunk_feeds).append(elapsed)
            wall = perf_counter() - start
            factor = speed.scale()
            wall_s += wall
            ingest_s += wall * factor
            feeds.extend(t * factor for t in chunk_feeds)
            seals.extend(t * factor for t in chunk_seals)
        start = perf_counter()
        ingest.close()
        wall = perf_counter() - start
        wall_s += wall
        ingest_s += wall * speed.scale()
        peak_mb = vm_hwm_mb()
        size = sum(
            os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
        )
        decode_wall, decoded = timed_decode(manifest)
        decode_s = decode_wall * speed.scale()
        out.check_paths(decoded, state.paths, "ingested paths read back")
        return SimpleNamespace(
            ingest_s=ingest_s, wall_s=wall_s, decode_s=decode_s, feeds=feeds, seals=seals,
            peak_mb=peak_mb, size=size, manifest=manifest,
        )

    def measure(self, state, seconds: float, out: Outcome) -> None:
        cycles = []
        deadline = perf_counter() + seconds
        while len(cycles) < MIN_CYCLES or perf_counter() < deadline:
            cycles.append(self.cycle(state, out))
        feeds = [t for cycle in cycles for t in cycle.feeds]
        seals = [t for cycle in cycles for t in cycle.seals]
        ingest_s = median_of(cycles, "ingest_s")
        out.values.update(
            ingest_s=ingest_s,
            ingest_paths_per_s=len(state.paths) / ingest_s,
            decode_all_s=median_of(cycles, "decode_s"),
            feed_p50_us=statistics.median(feeds) * 1e6,
            seal_p50_ms=statistics.median(seals) * 1e3,
            compression_ratio=archive_ratio(cycles[-1].manifest),
            archive_bytes_per_path=median_of(cycles, "size") / len(state.paths),
            peak_rss_mb=median_of(cycles, "peak_mb"),
        )
        out.record.update(ingests=len(cycles), seals=len(seals),
                          wall_s=[c.wall_s for c in cycles])

    def trace(self, state, seconds: float, out: Outcome) -> None:
        ledger = Ledger()
        ledger.substitute(ShardedIngest, "feed", lambda fn: _traced_feed(ledger, fn))
        ledger.wrap(StreamingCompressor, "train_now", "stream.train")
        ledger.wrap(ShardedIngest, "close", "sharded.close")
        walls = {True: 0.0, False: 0.0}

        def step(traced: bool) -> None:
            if traced:
                ledger.install()
            try:
                cycle = self.cycle(state, out)
            finally:
                ledger.remove()
            if traced:
                ledger.count("sharded.bytes_written", cycle.size)
                ledger.end_cycle()
            walls[traced] += cycle.wall_s

        interleaved(perf_counter() + seconds, step)
        out.reconcile(ledger, walls[True], walls[False])
        out.metrics.update({
            "stream.feed_us": ledger.p50("stream.feed") * 1e6,
            "stream.train_s": ledger.per_cycle("stream.train"),
            "sharded.seal_s": ledger.per_cycle("sharded.seal"),
            "sharded.seals": ledger.per_cycle("sharded.seals"),
            "sharded.seal_max_ms": ledger.per_cycle("sharded.seal_max") * 1e3,
            "sharded.close_s": ledger.per_cycle("sharded.close"),
            "sharded.bytes_written": ledger.per_cycle("sharded.bytes_written"),
        })


def _traced_feed(ledger: Ledger, feed):
    """``ShardedIngest.feed``, filed under the work the call did.

    A call after which the shard count grew sealed a memtable
    (``sharded.seal``); a call that trained the table is kept apart from
    the plain per-path feeds whose median is ``stream.feed_us``.
    """
    trains = ledger.calls["stream.train"]

    def traced(ingest, path):
        shards = ingest.shard_count
        trained = len(trains)
        start = ledger.enter()
        try:
            return feed(ingest, path)
        finally:
            if ingest.shard_count > shards:
                elapsed = ledger.leave("sharded.seal", start)
                ledger.count("sharded.seals")
                ledger.maximum("sharded.seal_max", elapsed)
            elif len(trains) > trained:
                ledger.leave("stream.feed_train", start)
            else:
                ledger.leave("stream.feed", start)

    return traced


# -- point-read -------------------------------------------------------------------


def point_ops(paths, seed: int):
    """Zipf (s = 1) ids over a seeded permutation; 70/20/10 retrieve/slice/batch."""
    rng = random.Random(seed)
    ranked = list(range(len(paths)))
    rng.shuffle(ranked)
    weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(paths) + 1)))

    def zipf(k: int):
        return rng.choices(ranked, cum_weights=weights, k=k)

    ops = []
    for path_id in zipf(POINT_OPS):
        draw = rng.random()
        if draw < 0.7:
            ops.append(("retrieve", path_id))
        elif draw < 0.9:
            length = len(paths[path_id])
            start = rng.randrange(length)
            ops.append(("slice", path_id, start, rng.randrange(start + 1, length + 1)))
        else:
            ops.append(("batch", tuple(zipf(BATCH))))
    return ops


def point_op(store, op):
    kind = op[0]
    if kind == "retrieve":
        return store.retrieve(op[1])
    if kind == "slice":
        return store.retrieve_slice(op[1], op[2], op[3])
    return store.retrieve_batch(op[1])


def point_truth(paths, op):
    kind = op[0]
    if kind == "retrieve":
        return paths[op[1]]
    if kind == "slice":
        return paths[op[1]][op[2]:op[3]]
    return [paths[i] for i in op[1]]


def replay_points(store, ops, paths, out: Outcome, latencies) -> float:
    """Run *ops* on *store*, checking each answer; returns seconds in the calls."""
    busy = 0.0
    for op in ops:
        start = perf_counter()
        got = point_op(store, op)
        elapsed = perf_counter() - start
        busy += elapsed
        latencies[op[0]].append(elapsed)
        out.attempted += 1
        if got != point_truth(paths, op):
            out.fail(f"wrong answer to {op!r}")
    return busy


def blocks(ops):
    """Endless consecutive blocks of :data:`POINT_BLOCK` ops, wrapping around."""
    for start in itertools.count(0, POINT_BLOCK):
        yield [ops[(start + i) % len(ops)] for i in range(POINT_BLOCK)]


class PointRead:
    """Closed-loop reads over the ``build`` archive, mapped from disk."""

    SLOTS = ("retrieve_p50_us", "slice_p50_us", "batch_p50_us", "retrieve_p99_us")

    def setup(self, seed: int, workdir: str):
        dataset, paths = fresh_dataset("alibaba", seed)
        archive = os.path.join(workdir, "alibaba.rpc2")
        build_archive(dataset.to_flat(), cli_config("frequency"), archive)
        start = perf_counter()
        store = MappedPathStore.open(archive)
        open_s = perf_counter() - start
        start = perf_counter()
        store.table.expansions()
        table_s = perf_counter() - start
        _ = store.order
        ops = point_ops(paths, seed)
        return SimpleNamespace(
            paths=paths, archive=archive, store=store, ops=ops,
            open_s=open_s, table_s=table_s,
            digests={"dataset": digest(paths), "ops": digest(ops)},
        )

    def teardown(self, state) -> None:
        state.store.close()

    def measure(self, state, seconds: float, out: Outcome) -> None:
        # Compact arrays: the run's own bookkeeping stays out of peak_rss_mb.
        latencies = defaultdict(lambda: array("d"))
        block_p99s = []
        busy = 0.0
        start_clean()
        speed = SpeedProbe()
        deadline = perf_counter() + seconds
        for block in blocks(state.ops):
            if perf_counter() >= deadline:
                break
            block_latencies = defaultdict(list)
            busy += replay_points(state.store, block, state.paths, out, block_latencies)
            factor = speed.scale()
            for kind, values in block_latencies.items():
                latencies[kind].extend(t * factor for t in values)
            block_p99s.append(percentile(block_latencies["retrieve"], 99) * factor)
        peak_mb = vm_hwm_mb()
        retrieves = latencies["retrieve"]
        out.values.update(
            retrieve_p50_us=statistics.median(retrieves) * 1e6,
            retrieve_p99_us=statistics.median(block_p99s) * 1e6,
            slice_p50_us=statistics.median(latencies["slice"]) * 1e6,
            batch_p50_us=statistics.median(latencies["batch"]) * 1e6,
            compression_ratio=state.store.compression_ratio(),
            archive_bytes_per_path=os.path.getsize(state.archive) / len(state.paths),
            peak_rss_mb=peak_mb,
        )
        out.record.update(
            ops={kind: len(values) for kind, values in latencies.items()},
            wall_s=busy,
            loop="closed",
            clients=1,
        )

    def trace(self, state, seconds: float, out: Outcome) -> None:
        ledger = Ledger()
        ledger.wrap(MappedPathStore, "token", "mapped.token")
        ledger.wrap(compressor, "decompress_path", "expansion.expand")
        ledger.wrap(expansion, "slice_token", "expansion.slice")
        ledger.wrap(compressor, "decompress_paths_flat", "expansion.batch")
        ledger.wrap(VertexOrder, "invert_path", "reorder.invert")
        walls = {True: 0.0, False: 0.0}
        stream = blocks(state.ops)
        block = []

        def step(traced: bool) -> None:
            nonlocal block
            if traced:
                block = next(stream)
                ledger.install()
            try:
                busy = replay_points(state.store, block, state.paths, out, defaultdict(list))
            finally:
                ledger.remove()
            walls[traced] += busy

        start = perf_counter()
        interleaved(start + seconds * 0.6, step)
        ledger.end_cycle()
        out.reconcile(ledger, walls[True], walls[False])
        out.metrics.update({
            "mapped.open_s": state.open_s,
            "mapped.table_s": state.table_s,
            "mapped.token_us": ledger.p50("mapped.token") * 1e6,
            "expansion.expand_us": ledger.p50("expansion.expand") * 1e6,
            "expansion.slice_us": ledger.p50("expansion.slice") * 1e6,
            "expansion.batch_us": ledger.p50("expansion.batch") * 1e6,
            "reorder.invert_us": ledger.p50("reorder.invert") * 1e6,
            "mapped.over_memory": self.over_memory(state, start + seconds, out),
        })

    def over_memory(self, state, deadline: float, out: Outcome) -> float:
        """Median mapped ``retrieve`` latency over the in-memory store's.

        Both stores replay the same retrieve ids, in alternating blocks.
        """
        memory = state.store.to_store()
        retrieves = [op for op in state.ops if op[0] == "retrieve"]
        mapped_lat, memory_lat = defaultdict(list), defaultdict(list)
        for block in blocks(retrieves):
            replay_points(state.store, block, state.paths, out, mapped_lat)
            replay_points(memory, block, state.paths, out, memory_lat)
            if perf_counter() >= deadline:
                break
        return (statistics.median(mapped_lat["retrieve"])
                / statistics.median(memory_lat["retrieve"]))


# -- serve ------------------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` with one worker on an ephemeral port."""

    def __init__(self, archive: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", archive,
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://([0-9.]+):([0-9]+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce an address: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        """SIGINT (the CLI's graceful drain), then wait for the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class KeepAliveClient:
    """One persistent HTTP/1.1 connection that counts every reconnect.

    ``http.client`` silently reopens a connection the server closed; the
    counters make that visible, so a server cannot hide per-request cost by
    dropping keep-alive.
    """

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.requests = 0
        self.reconnects = 0
        self.closes = 0

    def send(self, method: str, target: str, body):
        """One request; returns ``(status, body bytes)``."""
        if self.requests and self.conn.sock is None:
            self.reconnects += 1
        self.requests += 1
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, target, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        if response.will_close:
            self.closes += 1
        return response.status, data

    def close(self) -> None:
        self.conn.close()


def serve_ops(paths, seed: int):
    """Uniform ids; 60/20/10/10 retrieve / retrieve_many / paths_between /
    subpath_search, the queries built from sampled stored paths."""
    rng = random.Random(seed)
    count = len(paths)
    ops = []
    for _ in range(SERVE_OPS):
        draw = rng.random()
        path_id = rng.randrange(count)
        path = paths[path_id]
        if draw < 0.6:
            ops.append(("retrieve", "GET", f"/v1/retrieve?id={path_id}", None, path_id))
        elif draw < 0.8:
            ids = tuple(rng.randrange(count) for _ in range(BATCH))
            body = json.dumps({"ids": list(ids)}).encode()
            ops.append(("retrieve_many", "POST", "/v1/retrieve_many", body, ids))
        elif draw < 0.9:
            target = f"/v1/paths_between?source={path[0]}&destination={path[-1]}"
            ops.append(("paths_between", "GET", target, None, (path[0], path[-1])))
        else:
            start = rng.randrange(max(1, len(path) - SERVE_WINDOW + 1))
            window = path[start:start + SERVE_WINDOW]
            body = json.dumps({"query": list(window)}).encode()
            ops.append(("subpath_search", "POST", "/v1/subpath_search", body,
                        (window, path_id)))
    return ops


def app_call(app: StoreApp, op):
    endpoint, arg = op[0], op[4]
    if endpoint == "retrieve":
        return app.retrieve(arg)
    if endpoint == "retrieve_many":
        return app.retrieve_many(arg)
    if endpoint == "paths_between":
        return app.paths_between(arg[0], arg[1])
    return app.subpath_search(arg[0])


def _contains(path, window) -> bool:
    width = len(window)
    return any(tuple(path[i:i + width]) == window for i in range(len(path) - width + 1))


def truth_ok(state, op, payload) -> bool:
    """Does *payload* agree with the dataset itself?"""
    endpoint, arg = op[0], op[4]
    paths = state.paths
    if endpoint == "retrieve":
        return payload["path"] == list(paths[arg])
    if endpoint == "retrieve_many":
        return payload["paths"] == [list(paths[i]) for i in arg]
    if endpoint == "paths_between":
        source, destination = arg
        return payload["count"] == state.terminals[(source, destination)] and all(
            p[0] == source and p[-1] == destination for p in payload["paths"]
        )
    window, path_id = arg
    return path_id in payload["ids"] and all(_contains(p, window) for p in payload["paths"])


QUERIES = ("paths_between", "subpath_search")


class Serve:
    """One keep-alive client against a one-worker server over medium rome."""

    SLOTS = ("serve_p50_ms", "query_p50_ms", "many_p50_ms", "serve_p90_ms")

    def setup(self, seed: int, workdir: str):
        dataset, paths = fresh_dataset("rome", seed)
        archive = os.path.join(workdir, "rome.rpc2")
        build_archive(dataset.to_flat(), cli_config("identity"), archive)
        ops = serve_ops(paths, seed)
        server = ServerProcess(archive, os.path.join(workdir, "serve.log"))
        client = KeepAliveClient(server.host, server.port)
        # The first query builds the worker's vertex index.
        warm = next(op for op in ops if op[0] == "paths_between")
        try:
            status, _ = client.send(warm[1], warm[2], warm[3])
            _, health = client.send("GET", "/healthz", None)
            worker_pid = json.loads(health)["worker"]["pid"]
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            status = None
        if status != 200:
            client.close()
            server.stop()
            raise RuntimeError(f"warm-up query answered {status}")
        return SimpleNamespace(
            paths=paths, archive=archive, ops=ops, server=server, client=client,
            warm=warm, worker_pid=str(worker_pid),
            terminals=Counter((p[0], p[-1]) for p in paths),
            digests={"dataset": digest(paths), "ops": digest(ops)},
        )

    def teardown(self, state) -> None:
        state.client.close()
        state.server.stop()

    def drive(self, state, seconds: float):
        """The closed loop: send, read the whole response, send the next.

        Returns ``[(op, status, body, seconds)]`` for every request sent.
        """
        sent = []
        client = state.client
        deadline = perf_counter() + seconds
        for op in itertools.cycle(state.ops):
            if perf_counter() >= deadline and len(sent) >= 20:
                break
            start = perf_counter()
            try:
                status, body = client.send(op[1], op[2], op[3])
            except (OSError, http.client.HTTPException) as exc:
                status, body = None, repr(exc).encode()
            sent.append((op, status, body, perf_counter() - start))
        return sent

    def verify(self, state, sent, out: Outcome):
        """Check every response against the in-process app and the dataset.

        Returns the decoded payloads (``None`` for a failed request).
        """
        store = open_store(state.archive)
        app = StoreApp(store)
        payloads = []
        try:
            for op, status, body, _ in sent:
                out.attempted += 1
                if status != 200:
                    out.fail(f"{op[2]} answered {status}: {body[:200]!r}")
                    payloads.append(None)
                    continue
                payload = json.loads(body)
                expected = json.loads(json.dumps(app_call(app, op)))
                if payload != expected or not truth_ok(state, op, payload):
                    out.fail(f"{op[2]} answered differently from the dataset")
                payloads.append(payload)
        finally:
            store.close()
        return payloads

    def measure(self, state, seconds: float, out: Outcome) -> None:
        reset_hwm(state.worker_pid)
        sent = self.drive(state, seconds)
        peak_mb = vm_hwm_mb(state.worker_pid)
        self.verify(state, sent, out)
        by_kind = defaultdict(list)
        for op, _, _, elapsed in sent:
            by_kind[op[0]].append(elapsed)
        latencies = [request[3] for request in sent]
        queries = by_kind[QUERIES[0]] + by_kind[QUERIES[1]]
        many = by_kind["retrieve_many"]
        out.values.update(
            serve_p50_ms=statistics.median(latencies) * 1e3,
            serve_p90_ms=percentile(latencies, 90) * 1e3,
            query_p50_ms=statistics.median(queries) * 1e3 if queries else 0.0,
            many_p50_ms=statistics.median(many) * 1e3 if many else 0.0,
            compression_ratio=archive_ratio(state.archive),
            archive_bytes_per_path=os.path.getsize(state.archive) / len(state.paths),
            peak_rss_mb=peak_mb,
        )
        out.record.update(
            ops={kind: len(values) for kind, values in by_kind.items()},
            reconnects=state.client.reconnects,
            connection_close=state.client.closes,
            loop="closed",
            clients=1,
        )

    def trace(self, state, seconds: float, out: Outcome) -> None:
        """HTTP first (untraced), then the same requests replayed in-process.

        The replay times ``StoreApp`` and ``encode_body``; what the HTTP
        round trip costs beyond them is ``serve.transport_ms``.
        """
        sent = self.drive(state, seconds * 0.4)
        payloads = self.verify(state, sent, out)
        e2e = statistics.fmean(request[3] for request in sent)
        ledger = Ledger()
        for endpoint in ("retrieve", "retrieve_many", "paths_between", "subpath_search"):
            ledger.wrap(StoreApp, endpoint, f"serve.app.{endpoint}")
        ledger.wrap(protocol, "encode_body", "serve.encode",
                    after=lambda led, args, result: led.count(
                        "serve.response_bytes", len(result)))
        ledger.wrap(VertexIndex, "__init__", "queries.index_build")
        ledger.wrap(VertexIndex, "paths_containing_all", "queries.lookup",
                    after=lambda led, args, result: led.count(
                        "queries.candidates", len(result)))
        answered = [(request[0], payload) for request, payload in zip(sent, payloads)
                    if payload is not None]
        chunks = iter([answered[i:i + 32] for i in range(0, len(answered), 32)])
        walls = {True: 0.0, False: 0.0}
        store = open_store(state.archive)
        try:
            app = StoreApp(store)
            ledger.install()
            try:
                app_call(app, state.warm)
            finally:
                ledger.remove()
            index_build_s = ledger.calls.pop("queries.index_build")[0]
            ledger.calls.clear()
            ledger.end_cycle()
            ledger.covered = 0.0
            chunk = []

            def step(traced: bool) -> None:
                nonlocal chunk
                if traced:
                    chunk = next(chunks, [])
                    ledger.install()
                try:
                    for op, payload in chunk:
                        start = perf_counter()
                        body = protocol.encode_body(app_call(app, op))
                        walls[traced] += perf_counter() - start
                        out.check(json.loads(body) == payload,
                                  f"{op[2]}: in-process answer differs from HTTP")
                        if traced and op[0] in QUERIES:
                            ledger.count("queries.matches", payload["count"])
                            ledger.count("queries.requests")
                finally:
                    ledger.remove()

            for _ in range(-(-len(answered) // 32)):
                step(True)
                step(False)
            ledger.end_cycle()
        finally:
            store.close()
        counts = ledger.cycles[-1]
        queries = counts.get("queries.requests", 0)
        candidates = counts.get("queries.candidates", 0)
        matches = counts.get("queries.matches", 0)
        replayed = len(ledger.calls["serve.encode"])
        in_process = ledger.covered / replayed if replayed else 0.0
        out.reconcile(ledger, walls[True], walls[False])
        out.metrics.update({
            "serve.app_ms.retrieve": ledger.p50("serve.app.retrieve") * 1e3,
            "serve.app_ms.retrieve_many": ledger.p50("serve.app.retrieve_many") * 1e3,
            "serve.app_ms.paths_between": ledger.p50("serve.app.paths_between") * 1e3,
            "serve.app_ms.subpath_search": ledger.p50("serve.app.subpath_search") * 1e3,
            "serve.encode_ms": ledger.p50("serve.encode") * 1e3,
            "serve.response_bytes": counts.get("serve.response_bytes", 0) / max(1, replayed),
            "serve.transport_ms": (e2e - in_process) * 1e3,
            "serve.reconnects": state.client.reconnects,
            "serve.connection_close": state.client.closes,
            "queries.index_build_s": index_build_s,
            "queries.candidates": candidates / queries if queries else 0.0,
            "queries.matches": matches / queries if queries else 0.0,
            "queries.hit_ratio": matches / candidates if candidates else 0.0,
        })


WORKLOADS = {
    "build": Build,
    "ingest": Ingest,
    "point-read": PointRead,
    "serve": Serve,
}
