"""Sharded path stores: parallel builds, streaming ingest, one token source.

A monolithic v2 archive is one blob built in one shot: build time is bound
to a single process and ingest memory grows with the dataset.  This module
partitions the same data into *shards* — independent v2 (``RPC2``) files
under one CRC'd JSON manifest — which buys two things the WebGraph /
Log(Graph) lineage of partitioned compressed representations is built on:

* **parallel build** (:func:`build_sharded_store`) — per-shard compression
  fans out over :mod:`repro.core.parallel` workers using the FlatCorpus
  shipping path, and the output stays bit-identical to the sequential
  build.  The fan-out does not pay on the measured host:
  ``BENCH_shard.json`` (medium alibaba, 4 shards, 2 processes on 2 CPUs)
  records 0.67–0.72× of one process's speed at 20,000 and 100,000 paths,
  and no crossover size;
* **constant-memory streaming ingest** (:class:`ShardedIngest`) — arriving
  paths land in a mutable in-memory *memtable* compressed against a table
  fixed at warm-up (a :class:`~repro.core.stream.StreamingCompressor`);
  when the memtable fills it is *sealed* to an immutable v2 shard,
  LSM-style, so ingest memory is bounded by memtable + table, never by
  dataset size.

Every shard of a store is compressed against the *same* rule table R and
carries the same vertex order, so a shard is just a contiguous id range of
one token source: shard *s* holds the global ids ``[start_s, start_s +
count_s)``.  :class:`ShardedPathStore` supplies that token source and
:class:`~repro.core.reader.PathReader` does all the decoding with shard 0's
table and order, byte-identical to the same dataset in one monolithic v2
file.

Layout on disk: a manifest file (magic ``RPSM``, CRC32-protected JSON; see
docs/formats.md) next to its shard files ``<stem>.shard-00000.rpc2``,
``<stem>.shard-00001.rpc2``, ....  Each shard is a complete, self-contained
v2 store (own header, own copy of the table, own CRCs), so a damaged shard
is isolated and any v2 tooling can open one directly.

Both writers put files on disk through one shard writer, which seals one
finished v2 blob per partition (build) or memtable (ingest): it reads the
path count and table fingerprint from the blob's own header, publishes the
shard, then a manifest naming every shard so far.  Its close removes the
shard files of an earlier store at the same path that the final manifest
no longer names.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import threading
import zlib
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.compressor import compress_paths_flat
from repro.core.errors import (
    CorruptDataError,
    InvalidInputError,
    PathIdError,
    StateError,
    TruncatedDataError,
)
from repro.core.flatcorpus import FlatCorpus, as_flat_corpus
from repro.core.mapped import MappedPathStore
from repro.core.parallel import _map_corpora
from repro.core.reader import PathReader
from repro.core.serialize import dumps_store_v2_tokens, parse_store_v2_header, publish_file
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import active_span, active_timer, get_active

#: Manifest file layout: magic(4) version(B) pad(3x) json_crc(I) json_len(I),
#: then the UTF-8 JSON document.  See docs/formats.md.
MANIFEST_MAGIC = b"RPSM"
MANIFEST_VERSION = 1
_MANIFEST_HEADER = struct.Struct("<4sB3xII")

PARTITION_RANGE = "range"


def shard_filename(stem: str, index: int) -> str:
    """The canonical shard file name: ``<stem>.shard-00042.rpc2``."""
    return f"{stem}.shard-{index:05d}.rpc2"


class ShardInfo:
    """One shard's manifest entry.

    :param file: shard file name, a plain name in the manifest's directory.
    :param start: first global path id of the shard.
    :param count: number of paths in the shard.
    :param table_crc: CRC32 of the shard's RPST table blob — the table
        *fingerprint*.  Every shard of a store records the same value.
    """

    __slots__ = ("file", "start", "count", "table_crc")

    def __init__(self, file: str, start: int, count: int, table_crc: int) -> None:
        self.file = file
        self.start = start
        self.count = count
        self.table_crc = table_crc

    def as_json(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "start": self.start,
            "count": self.count,
            "table_crc": self.table_crc,
        }

    def __repr__(self) -> str:
        return (
            f"ShardInfo(file={self.file!r}, start={self.start}, "
            f"count={self.count}, table_crc={self.table_crc:#010x})"
        )


class ShardManifest:
    """The routing table of a sharded store: contiguous id ranges under one table.

    Instances are immutable descriptions; :func:`dumps_manifest` /
    :func:`loads_manifest` move them to and from the CRC'd on-disk form.
    Construction checks what a reader relies on: the ranges tile the id
    space, every shard records one table fingerprint, and every shard file
    is a distinct plain name inside the manifest's directory.
    """

    def __init__(self, shards: Sequence[ShardInfo]) -> None:
        self.shards: Tuple[ShardInfo, ...] = tuple(shards)
        self.path_count = sum(info.count for info in self.shards)
        expected = 0
        for info in self.shards:
            if info.start != expected:
                raise CorruptDataError(
                    f"range manifest does not tile the id space: shard "
                    f"{info.file!r} starts at {info.start}, expected {expected}"
                )
            expected += info.count
        self._starts = [info.start for info in self.shards]
        fingerprints = {info.table_crc for info in self.shards}
        if len(fingerprints) > 1:
            raise CorruptDataError(
                f"shard manifest records {len(fingerprints)} table fingerprints; "
                "a sharded store has one table (open each shard on its own "
                "with MappedPathStore.open)"
            )
        names = set()
        for info in self.shards:
            _check_shard_name(info.file)
            if info.file in names:
                raise CorruptDataError(
                    f"shard manifest names shard file {info.file!r} twice"
                )
            names.add(info.file)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def locate(self, path_id: int) -> Tuple[int, int]:
        """Global ``path_id`` → ``(shard index, local path id)``."""
        if not 0 <= path_id < self.path_count:
            raise PathIdError(
                f"path id {path_id} not in sharded store of {self.path_count} paths"
            )
        shard = bisect_right(self._starts, path_id) - 1
        return shard, path_id - self._starts[shard]

    def __repr__(self) -> str:
        return (
            f"ShardManifest(shards={len(self.shards)}, paths={self.path_count})"
        )


def _check_shard_name(name: str) -> None:
    """A shard file must resolve inside the manifest's own directory."""
    if not name or name in (".", "..") or "/" in name or "\\" in name:
        raise CorruptDataError(
            f"shard manifest names shard file {name!r}; a shard name must "
            "be a plain file name in the manifest's directory"
        )


def dumps_manifest(manifest: ShardManifest) -> bytes:
    """Serialize *manifest* to the ``RPSM`` wire form (CRC'd JSON)."""
    document = {
        "schema_version": 1,
        "partition": {"fn": PARTITION_RANGE},
        "path_count": manifest.path_count,
        "shards": [info.as_json() for info in manifest.shards],
    }
    payload = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
    header = _MANIFEST_HEADER.pack(
        MANIFEST_MAGIC, MANIFEST_VERSION, zlib.crc32(payload), len(payload)
    )
    return header + payload


def loads_manifest(data: bytes) -> ShardManifest:
    """Parse and validate an ``RPSM`` manifest blob."""
    if len(data) < _MANIFEST_HEADER.size:
        raise TruncatedDataError(
            f"shard manifest needs {_MANIFEST_HEADER.size} header bytes, "
            f"buffer has {len(data)}"
        )
    magic, version, crc, length = _MANIFEST_HEADER.unpack_from(data, 0)
    if magic != MANIFEST_MAGIC:
        raise CorruptDataError("not a shard manifest (bad magic)")
    if version != MANIFEST_VERSION:
        raise CorruptDataError(f"unsupported shard-manifest version {version}")
    for offset in range(5, 8):  # the header's three pad bytes
        if data[offset]:
            raise CorruptDataError(
                f"shard manifest header pad byte at byte offset {offset} is not zero"
            )
    payload = data[_MANIFEST_HEADER.size:]
    if len(payload) != length:
        raise TruncatedDataError(
            f"shard manifest declares {length} JSON bytes but carries "
            f"{len(payload)} (truncated at byte offset "
            f"{_MANIFEST_HEADER.size + min(length, len(payload))})"
        )
    if zlib.crc32(payload) != crc:
        raise CorruptDataError("shard manifest checksum mismatch (file is corrupt)")
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptDataError(f"shard manifest JSON is invalid: {exc}") from exc
    return _manifest_from_json(document)


def _manifest_from_json(document: Any) -> ShardManifest:
    if not isinstance(document, dict):
        raise CorruptDataError("shard manifest JSON must be an object")
    partition = document.get("partition")
    if not isinstance(partition, dict) or "fn" not in partition:
        raise CorruptDataError("shard manifest lacks a partition descriptor")
    shards_json = document.get("shards")
    if not isinstance(shards_json, list):
        raise CorruptDataError("shard manifest lacks a shard list")
    shards = []
    for entry in shards_json:
        if not isinstance(entry, dict):
            raise CorruptDataError("shard manifest entry must be an object")
        for field in ("file", "start", "count", "table_crc"):
            if field not in entry:
                raise CorruptDataError(f"shard manifest entry is missing field {field!r}")
        if not isinstance(entry["file"], str):
            raise CorruptDataError(
                f"shard manifest entry has a non-string file {entry['file']!r}"
            )
        for field in ("start", "count", "table_crc"):
            value = entry[field]
            # A bool is an int, and int() would coerce a float or a string.
            if type(value) is not int or value < 0:
                raise CorruptDataError(
                    f"shard manifest entry has an invalid {field} {value!r}"
                )
        if entry["table_crc"] >= 1 << 32:
            raise CorruptDataError(
                f"shard manifest entry has an invalid table_crc {entry['table_crc']!r}"
            )
        shards.append(
            ShardInfo(entry["file"], entry["start"], entry["count"], entry["table_crc"])
        )
    if partition["fn"] != PARTITION_RANGE:
        raise CorruptDataError(
            f"shard manifest uses partition fn {partition['fn']!r}; only "
            f"{PARTITION_RANGE!r} manifests open (open each shard on its own "
            "with MappedPathStore.open)"
        )
    manifest = ShardManifest(shards)
    declared = document.get("path_count")
    if declared is not None and declared != manifest.path_count:
        raise CorruptDataError(
            f"shard manifest declares {declared} paths but its shards sum "
            f"to {manifest.path_count}"
        )
    return manifest


class _ShardWriter:
    """The one writer of a sharded store's files (see the module docstring).

    :attr:`manifest` records a shard only after both of its writes succeed,
    so a failed :meth:`seal` leaves the writer unchanged.
    """

    def __init__(self, out_path: str) -> None:
        self.out_path = out_path
        self._directory = os.path.dirname(os.path.abspath(out_path))
        self._stem = os.path.splitext(os.path.basename(out_path))[0]
        self.manifest = ShardManifest([])

    def seal(self, blob: bytes) -> ShardInfo:
        """Publish the v2 *blob* as the next shard; returns its manifest entry."""
        header = parse_store_v2_header(blob)
        start = header.table_offset
        info = ShardInfo(
            shard_filename(self._stem, self.manifest.shard_count),
            self.manifest.path_count,
            header.path_count,
            zlib.crc32(blob[start : start + header.table_size]),
        )
        manifest = ShardManifest(self.manifest.shards + (info,))
        publish_file(os.path.join(self._directory, info.file), blob)
        self._publish(manifest)
        return info

    def close(self) -> None:
        """Publish the empty manifest if nothing was sealed (an empty store
        still has one), then remove the shard files it no longer names.

        A store rebuilt with fewer shards, or an ingest over a larger store,
        leaves ``shard_filename(stem, i)`` for ``i`` at or beyond the new
        shard count; they go only after the final manifest is published, so
        the manifest on disk never names a removed file.
        """
        if not self.manifest.shards:
            self._publish(self.manifest)
        count = self.manifest.shard_count
        prefix, suffix = shard_filename(self._stem, 0).rsplit("00000", 1)
        for name in os.listdir(self._directory):
            index = name[len(prefix) : len(name) - len(suffix)]
            if (
                index.isdecimal()
                and int(index) >= count
                and name == shard_filename(self._stem, int(index))
            ):
                os.remove(os.path.join(self._directory, name))

    def _publish(self, manifest: ShardManifest) -> None:
        publish_file(self.out_path, dumps_manifest(manifest))
        self.manifest = manifest


class ShardedPathStore(PathReader):
    """One token source over a manifest of v2 shards — one store, many files.

    A :class:`~repro.core.reader.PathReader` whose token source spans the
    shards: a global id is located in its shard's id range and the token
    read from that shard's mapping, and every decode runs against shard 0's
    table and order.  That is sound because every shard must carry the
    same table and order sections byte for byte; a shard is checked
    against the manifest (path count, table fingerprint) and against
    shard 0's sections before any of its tokens is handed out.

    Shards open lazily (header-only, O(1) each).  Thread-safe for readers;
    fork/pickle-safe via the same ``process_local()`` / ``reopen()``
    protocol the mapped store uses.
    """

    def __init__(self, manifest: ShardManifest, directory: str, name: str = "<manifest>") -> None:
        self.manifest = manifest
        self.directory = directory
        self.name = name
        self._path: Optional[str] = None
        self._owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._shards: List[Optional[MappedPathStore]] = [None] * manifest.shard_count
        obs = get_active()
        if obs is not None:
            obs.registry.set_gauge(catalog.SHARD_COUNT, manifest.shard_count)

    @classmethod
    def open(cls, path: str) -> "ShardedPathStore":
        """Open the manifest file at *path* (shards open lazily).

        With :mod:`repro.obs` active the open is timed as
        ``shard.open.seconds`` under a ``shard.open`` span and the summed
        shard file sizes land on ``shard.mapped_bytes``.
        """
        obs = get_active()
        if obs is None:
            return cls._open(path)
        with obs.tracer.span(catalog.SPAN_SHARD_OPEN) as span, obs.registry.timeit(
            catalog.SHARD_OPEN_SECONDS
        ):
            store = cls._open(path)
            if span is not None:
                span.add("shards", store.shard_count)
                span.add("paths", len(store))
            obs.registry.set_gauge(catalog.SHARD_MAPPED_BYTES, store.mapped_bytes)
        return store

    @classmethod
    def _open(cls, path: str) -> "ShardedPathStore":
        with open(path, "rb") as fh:
            manifest = loads_manifest(fh.read())
        directory = os.path.dirname(os.path.abspath(path))
        store = cls(manifest, directory, name=path)
        store._path = path
        return store

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close every shard opened so far."""
        with self._lock:
            for index, shard in enumerate(self._shards):
                if shard is not None:
                    shard.close()
                    self._shards[index] = None

    def __enter__(self) -> "ShardedPathStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- process boundaries --------------------------------------------------------

    @property
    def owner_pid(self) -> int:
        """The pid of the process that opened (or unpickled) this store."""
        return self._owner_pid

    def reopen(self) -> "ShardedPathStore":
        """A fresh store over the same manifest — new readers, new mappings.

        :raises StateError: for a store constructed directly from a
            :class:`ShardManifest` with no backing manifest file.
        """
        if self._path is None:
            raise StateError(
                f"cannot reopen {self!r}: it has no backing manifest file; "
                "use ShardedPathStore.open(path)"
            )
        return type(self).open(self._path)

    def process_local(self) -> "ShardedPathStore":
        """This store if owned by the current process, else :meth:`reopen`."""
        if os.getpid() == self._owner_pid:
            return self
        return self.reopen()

    def __getstate__(self):
        if self._path is None:
            raise StateError(
                f"cannot pickle {self!r}: it has no backing manifest file; "
                "use ShardedPathStore.open(path)"
            )
        return {"path": self._path}

    def __setstate__(self, state) -> None:
        fresh = type(self)._open(state["path"])
        self.__dict__.update(fresh.__dict__)

    # -- shard access --------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self.manifest.shard_count

    def shard_path(self, index: int) -> str:
        return os.path.join(self.directory, self.manifest.shards[index].file)

    def shard(self, index: int) -> MappedPathStore:
        """The per-shard mapped reader, opened and checked lazily."""
        store = self._shards[index]
        if store is not None:
            return store
        # Shard 0 is the reference every other shard is checked against;
        # open it before taking the lock, which is not reentrant.
        reference = self.shard(0) if index else None
        with self._lock:
            store = self._shards[index]
            if store is None:
                store = self._open_shard(index, reference)
                self._shards[index] = store
        return store

    def _open_shard(
        self, index: int, reference: Optional[MappedPathStore]
    ) -> MappedPathStore:
        info = self.manifest.shards[index]
        try:
            store = MappedPathStore.open(self.shard_path(index))
        except FileNotFoundError as exc:
            raise self._missing_shard(index) from exc
        try:
            if len(store) != info.count:
                raise CorruptDataError(
                    f"shard {info.file!r} holds {len(store)} paths, "
                    f"manifest declares {info.count}"
                )
            fingerprint = store.table_fingerprint
            if fingerprint != info.table_crc:
                raise CorruptDataError(
                    f"shard {info.file!r} table fingerprint "
                    f"{fingerprint:#010x} does not match manifest "
                    f"{info.table_crc:#010x}"
                )
            if reference is not None and (
                store.table_section != reference.table_section
                or store.order_section != reference.order_section
            ):
                raise CorruptDataError(
                    f"shard {info.file!r} table or order section differs "
                    f"from shard {self.manifest.shards[0].file!r}'s; a "
                    "sharded store decodes every shard with one table"
                )
        except CorruptDataError:
            store.close()
            raise
        return store

    def _missing_shard(self, index: int) -> CorruptDataError:
        return CorruptDataError(
            f"shard manifest {self.name!r} names shard file "
            f"{self.manifest.shards[index].file!r}, which does not exist"
        )

    @property
    def mapped_bytes(self) -> int:
        """Total bytes across all shard files (no shard is opened for this)."""
        total = 0
        for index in range(self.shard_count):
            try:
                total += os.path.getsize(self.shard_path(index))
            except FileNotFoundError as exc:
                raise self._missing_shard(index) from exc
        return total

    # -- token source (the PathReader contract) ------------------------------------

    def __len__(self) -> int:
        return self.manifest.path_count

    def token(self, path_id: int) -> Tuple[int, ...]:
        """The raw compressed token for global *path_id*."""
        shard, local = self.manifest.locate(path_id)
        return self.shard(shard).token(local)

    def tokens(self) -> List[Tuple[int, ...]]:
        """All compressed tokens in global path-id order."""
        out: List[Tuple[int, ...]] = []
        for index in range(self.shard_count):
            out.extend(self.shard(index).tokens())
        return out

    def token_corpus(self) -> FlatCorpus:
        """Every shard's :meth:`~MappedPathStore.token_corpus`, concatenated.

        Each shard runs its own bulk parse and checks, in global id order.
        """
        return FlatCorpus.concat(
            self.shard(index).token_corpus() for index in range(self.shard_count)
        )

    @property
    def table(self) -> SupernodeTable:
        """The one supernode table every shard shares (shard 0's copy).

        :raises StateError: for an empty store, which has no shard.
        """
        if not self.manifest.shards:
            raise StateError("empty sharded store has no table")
        return self.shard(0).table

    @property
    def order(self):
        """The store-wide :class:`~repro.paths.reorder.VertexOrder`, or ``None``.

        Every shard carries the same order section, so shard 0's is the
        store's.
        """
        if not self.manifest.shards:
            return None
        return self.shard(0).order

    def check(self) -> int:
        """Force-validate every shard (header, table CRC, fingerprint,
        sections shared with shard 0).

        The startup gate :func:`repro.serve.check_store` runs for sharded
        stores: a missing, truncated or divergent shard fails *here* with a
        typed error rather than as a 500 on some unlucky request.  Returns
        the total path count.
        """
        for index in range(self.shard_count):
            _ = self.shard(index).table
        return len(self)

    def __repr__(self) -> str:
        return (
            f"ShardedPathStore(name={self.name!r}, shards={self.shard_count}, "
            f"paths={len(self)})"
        )


# -- parallel build ---------------------------------------------------------------


def partition_corpus(corpus: FlatCorpus, shards: int) -> List[FlatCorpus]:
    """Split *corpus* into *shards* contiguous, balanced id ranges.

    The slices are zero-copy views of the parent buffer.
    """
    if shards < 1:
        raise InvalidInputError(f"shards must be >= 1, got {shards}")
    base, remainder = divmod(len(corpus), shards)
    parts: List[FlatCorpus] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        parts.append(corpus.chunk(start, stop))
        start = stop
    return parts


def build_sharded_store(
    paths,
    table: SupernodeTable,
    out_path: str,
    shards: int = 4,
    processes: int = 1,
    order=None,
) -> str:
    """Compress *paths* against *table* into a sharded store at *out_path*.

    Per-shard compression *and serialization* fan out over *processes*
    workers (the FlatCorpus shipping path of :mod:`repro.core.parallel`,
    shipping finished v2 blobs back), then the parent seals them in order
    through the shard writer :class:`ShardedIngest` uses: each shard is
    published, then a manifest naming every shard so far, so a failed
    build leaves a readable store of the shards before the failure.
    Output is bit-identical to the sequential monolithic build for every
    ``(shards, processes)`` combination, because compression is a pure
    per-path function of ``(path, table)``.

    :param paths: any path iterable or a :class:`FlatCorpus` — in
        *original* vertex ids; the order (if any) is applied here.
    :param table: the (already built) shared supernode table — built over
        the *reordered* corpus when *order* is given.
    :param out_path: manifest file to write; shard files land beside it as
        ``<stem>.shard-00000.rpc2`` etc.
    :param order: optional :class:`~repro.paths.reorder.VertexOrder`.  The
        corpus is relabelled before partitioning, and every worker writes
        the order section into its shard blob, so each shard file stays
        self-contained — a shard opened on its own inverts ids exactly like
        the manifest-routed store does.
    :returns: *out_path*, for chaining into :meth:`ShardedPathStore.open`.
    """
    corpus = as_flat_corpus(paths)
    if order is not None:
        corpus = order.transform_corpus(corpus)
    with active_span(catalog.SPAN_SHARD_BUILD) as span, active_timer(
        catalog.SHARD_BUILD_SECONDS
    ):
        parts = partition_corpus(corpus, shards)
        writer = _ShardWriter(out_path)
        for blob in _map_corpora(functools.partial(_shard_blob, order), parts, table, processes):
            writer.seal(blob)
        writer.close()
        if span is not None:
            span.add("shards", shards)
            span.add("paths", len(corpus))
            span.add("processes", processes)
    obs = get_active()
    if obs is not None:
        obs.registry.counter(catalog.SHARD_BUILT).inc(shards)
    return out_path


def _shard_blob(order, table: SupernodeTable, corpus: FlatCorpus) -> bytes:
    """One shard's v2 blob, built inside the worker so the parent never
    re-pays every shard's serialization after the barrier."""
    return dumps_store_v2_tokens(table, compress_paths_flat(corpus, table), order)


# -- streaming ingest -------------------------------------------------------------


class ShardedIngest:
    """Constant-memory streaming writer: memtable in, immutable shards out.

    The LSM-style append path of the sharded store.  Arriving paths are
    compressed immediately against a frozen table inside a
    :class:`~repro.core.stream.StreamingCompressor` memtable; every
    ``memtable_paths`` ingests the memtable is *sealed* — drained to an
    immutable v2 shard file and recorded in the manifest — so resident
    memory is bounded by ``memtable + table`` regardless of how many paths
    ever flow through.  Global path ids are assigned in arrival order and
    stable forever (the manifest's ``range`` partition).

    The table is fit once, on the first *train_after* paths (the paper's
    stream mode, Fig. 6c), and every shard is compressed against it, so
    the store the manifest describes has exactly one table.

    :param out_path: manifest file; shard files land beside it.
    :param config: OFFS configuration for the table fit.
    :param train_after: warm-up paths buffered before the table is fit.
    :param memtable_paths: seal threshold, in paths.
    :param base_id: explicit supernode id base for the table fit.
    """

    def __init__(
        self,
        out_path: str,
        config=None,
        train_after: int = 1000,
        memtable_paths: int = 4096,
        base_id: Optional[int] = None,
    ) -> None:
        from repro.core.stream import StreamingCompressor

        if memtable_paths < 1:
            raise InvalidInputError("memtable_paths must be >= 1")
        if train_after > memtable_paths:
            raise InvalidInputError(
                f"train_after ({train_after}) cannot exceed memtable_paths "
                f"({memtable_paths}): the warm-up must fit in one memtable"
            )
        self.out_path = out_path
        self.memtable_paths = memtable_paths
        self._stream = StreamingCompressor(
            config=config, train_after=train_after, base_id=base_id
        )
        self._writer = _ShardWriter(out_path)
        self._closed = False

    # -- ingestion ------------------------------------------------------------------

    def feed(self, path: Sequence[int]) -> Optional[int]:
        """Ingest one path; returns its *global* id (``None`` in warm-up).

        Warm-up ids are assigned at table-train time in arrival order, so
        they are stable either way.
        """
        if self._closed:
            raise StateError("ShardedIngest is closed")
        local = self._stream.feed(path)
        obs = get_active()
        if obs is not None:
            obs.registry.counter(catalog.SHARD_INGESTED_PATHS).inc()
            obs.registry.set_gauge(catalog.SHARD_MEMTABLE_PATHS, len(self._stream))
        if self._stream.trained and len(self._stream.store) >= self.memtable_paths:
            self._seal()
            return self.sealed_paths - 1 if local is not None else None
        return None if local is None else self.sealed_paths + local

    def feed_many(self, paths: Iterable[Sequence[int]]) -> List[Optional[int]]:
        """Ingest many paths; returns their global ids."""
        return [self.feed(p) for p in paths]

    def __len__(self) -> int:
        """Paths ingested so far (sealed + memtable + warm-up buffer)."""
        return self.sealed_paths + len(self._stream)

    @property
    def sealed_paths(self) -> int:
        """Paths already persisted to immutable shards."""
        return self._writer.manifest.path_count

    @property
    def shard_count(self) -> int:
        return self._writer.manifest.shard_count

    # -- sealing --------------------------------------------------------------------

    def _seal(self) -> None:
        """Hand the memtable to the shard writer as a v2 blob, then drain it.

        The writer publishes the shard, and a manifest naming it, before it
        records the shard; only then does the memtable drain.  A failed
        write re-raises with both unchanged, so no manifest names a shard
        that was never written and the next seal retries the same paths.
        """
        stream = self._stream
        if not stream.trained:
            if len(stream) == 0:
                return
            stream.train_now()
        store = stream.store
        if not len(store):
            return
        index = self.shard_count
        with active_span(catalog.SPAN_SHARD_SEAL) as span, active_timer(
            catalog.SHARD_SEAL_SECONDS
        ):
            info = self._writer.seal(dumps_store_v2_tokens(store.table, store.tokens()))
            if span is not None:
                span.add("paths", info.count)
                span.add("shard", index)
        obs = get_active()
        if obs is not None:
            obs.registry.counter(catalog.SHARD_SEALED).inc()
            obs.registry.set_gauge(catalog.SHARD_MEMTABLE_PATHS, 0)
        stream.drain_tokens()

    # -- lifecycle ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> str:
        """Seal the remainder, write the final manifest; returns its path.

        Idempotent.  An ingest that never saw a path still produces a
        valid (empty) manifest.
        """
        if self._closed:
            return self.out_path
        if len(self._stream) > 0:
            self._seal()
        self._writer.close()
        self._closed = True
        return self.out_path

    def __enter__(self) -> "ShardedIngest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardedIngest(out={self.out_path!r}, shards={self.shard_count}, "
            f"sealed={self.sealed_paths}, memtable={len(self._stream)}, {state})"
        )


# -- magic-sniffing loader --------------------------------------------------------


def open_store(path: str):
    """Open any archive by magic sniff: v1 blob, v2 mmap, or shard manifest.

    * ``RPCS`` — full in-memory parse (:func:`~repro.core.serialize.loads_store`);
    * ``RPC2`` — :class:`~repro.core.mapped.MappedPathStore` (O(1) open);
    * ``RPSM`` — :class:`ShardedPathStore` (one token source over the shards).
    """
    from repro.core.serialize import STORE_V2_MAGIC, loads_store

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if len(magic) < 4:
            raise TruncatedDataError(
                f"archive {path!r} holds {len(magic)} bytes, too short for "
                "any store magic (truncated at byte offset 0)"
            )
        if magic not in (MANIFEST_MAGIC, STORE_V2_MAGIC):
            return loads_store(magic + fh.read())
    if magic == MANIFEST_MAGIC:
        return ShardedPathStore.open(path)
    return MappedPathStore.open(path)
