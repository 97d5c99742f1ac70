"""Sharded path stores: parallel builds, streaming ingest, fan-out reads.

A monolithic v2 archive is one blob built in one shot: build time is bound
to a single process and ingest memory grows with the dataset.  This module
partitions the same data into *shards* — independent v2 (``RPC2``) files
under one CRC'd JSON manifest — which buys three things the WebGraph /
Log(Graph) lineage of partitioned compressed representations is built on:

* **parallel build** (:func:`build_sharded_store`) — per-shard compression
  fans out over :mod:`repro.core.parallel` workers using the FlatCorpus
  shipping path, so wall-clock build time drops near-linearly with cores
  while the output stays bit-identical to the sequential build;
* **constant-memory streaming ingest** (:class:`ShardedIngest`) — arriving
  paths land in a mutable in-memory *memtable* compressed against a frozen
  table (a :class:`~repro.core.stream.StreamingCompressor`); when the
  memtable fills it is *sealed* to an immutable v2 shard, LSM-style, and
  when the stream's drift watch trips the table is optionally refit, so
  ingest memory is bounded by memtable + table, never by dataset size;
* **fan-out reads** (:class:`ShardedPathStore`) — the
  :class:`~repro.core.reader.PathReader` read surface routes global path
  ids through the manifest to per-shard
  :class:`~repro.core.mapped.MappedPathStore` readers, byte-identical to
  the same dataset in one monolithic v2 file.

Layout on disk: a manifest file (magic ``RPSM``, CRC32-protected JSON; see
docs/formats.md) next to its shard files ``<stem>.shard-00000.rpc2``,
``<stem>.shard-00001.rpc2``, ....  Each shard is a complete, self-contained
v2 store (own header, own table blob, own CRCs), so a damaged shard is
isolated and any v2 tooling can open one directly.

Two partition functions map a global path id to ``(shard, local id)``:

* ``range`` — shard *s* holds the contiguous ids ``[start_s, start_s +
  count_s)``; routing is a binary search over the recorded starts.  This is
  what the parallel build and the streaming ingest produce.
* ``hash`` — shard *s* holds ids ``{i : i mod shards == s}``; routing is
  two integer ops in either direction.  This keeps every shard's load even
  under id-skewed read traffic.

Both are deterministic and invertible, which is what makes fan-out results
*provably* identical to the monolithic store (the differential tests in
``tests/test_sharded.py`` hold every endpoint to it at multiple shard
counts).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from bisect import bisect_right
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import (
    CorruptDataError,
    InvalidInputError,
    PathIdError,
    StateError,
    TruncatedDataError,
)
from repro.core.flatcorpus import FlatCorpus, as_flat_corpus
from repro.core.mapped import MappedPathStore
from repro.core.reader import PathReader
from repro.core.serialize import dumps_table, dumps_store_v2_tokens
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import get_active
from repro.paths.encoding import Encoding

#: Manifest file layout: magic(4) version(B) pad(3x) json_crc(I) json_len(I),
#: then the UTF-8 JSON document.  See docs/formats.md.
MANIFEST_MAGIC = b"RPSM"
MANIFEST_VERSION = 1
_MANIFEST_HEADER = struct.Struct("<4sB3xII")

PARTITION_RANGE = "range"
PARTITION_HASH = "hash"
PARTITIONS = (PARTITION_RANGE, PARTITION_HASH)


def shard_filename(stem: str, index: int) -> str:
    """The canonical shard file name: ``<stem>.shard-00042.rpc2``."""
    return f"{stem}.shard-{index:05d}.rpc2"


class ShardInfo:
    """One shard's manifest entry.

    :param file: shard file name, relative to the manifest's directory.
    :param start: first global path id (``range`` partition; ``None`` under
        ``hash``, where placement is computed, not recorded).
    :param count: number of paths in the shard.
    :param table_crc: CRC32 of the shard's RPST table blob — the table
        *fingerprint*.  Shards sharing a fingerprint share a table
        byte-for-byte; a streaming refit starts a new fingerprint.
    """

    __slots__ = ("file", "start", "count", "table_crc")

    def __init__(self, file: str, start: Optional[int], count: int, table_crc: int) -> None:
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
    """The routing table of a sharded store: partition fn + shard entries.

    Instances are immutable descriptions; :func:`dumps_manifest` /
    :func:`loads_manifest` move them to and from the CRC'd on-disk form.
    """

    def __init__(self, partition: str, shards: Sequence[ShardInfo]) -> None:
        if partition not in PARTITIONS:
            raise InvalidInputError(
                f"unknown partition fn {partition!r}; known: {PARTITIONS}"
            )
        self.partition = partition
        self.shards: Tuple[ShardInfo, ...] = tuple(shards)
        self.path_count = sum(info.count for info in self.shards)
        if partition == PARTITION_RANGE:
            expected = 0
            for info in self.shards:
                if info.start != expected:
                    raise CorruptDataError(
                        f"range manifest does not tile the id space: shard "
                        f"{info.file!r} starts at {info.start}, expected {expected}"
                    )
                expected += info.count
            self._starts = [info.start for info in self.shards]
        else:
            n = len(self.shards)
            for index, info in enumerate(self.shards):
                expected_count = len(range(index, self.path_count, n)) if n else 0
                if info.count != expected_count:
                    raise CorruptDataError(
                        f"hash manifest inconsistent: shard {info.file!r} "
                        f"declares {info.count} paths, modulo placement "
                        f"implies {expected_count}"
                    )
            self._starts = []

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # -- routing -------------------------------------------------------------------

    def locate(self, path_id: int) -> Tuple[int, int]:
        """Global ``path_id`` → ``(shard index, local path id)``."""
        if not 0 <= path_id < self.path_count:
            raise PathIdError(
                f"path id {path_id} not in sharded store of {self.path_count} paths"
            )
        if self.partition == PARTITION_HASH:
            return path_id % len(self.shards), path_id // len(self.shards)
        shard = bisect_right(self._starts, path_id) - 1
        return shard, path_id - self._starts[shard]

    def global_id(self, shard: int, local_id: int) -> int:
        """``(shard index, local path id)`` → global path id."""
        if self.partition == PARTITION_HASH:
            return local_id * len(self.shards) + shard
        return self.shards[shard].start + local_id

    def partition_params(self) -> Dict[str, Any]:
        params: Dict[str, Any] = {"fn": self.partition}
        if self.partition == PARTITION_HASH:
            params["shards"] = len(self.shards)
        return params

    def __repr__(self) -> str:
        return (
            f"ShardManifest(partition={self.partition!r}, "
            f"shards={len(self.shards)}, paths={self.path_count})"
        )


def dumps_manifest(manifest: ShardManifest) -> bytes:
    """Serialize *manifest* to the ``RPSM`` wire form (CRC'd JSON)."""
    document = {
        "schema_version": 1,
        "partition": manifest.partition_params(),
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
        try:
            shards.append(
                ShardInfo(
                    file=str(entry["file"]),
                    start=entry.get("start"),
                    count=int(entry["count"]),
                    table_crc=int(entry["table_crc"]),
                )
            )
        except KeyError as exc:
            raise CorruptDataError(
                f"shard manifest entry is missing field {exc.args[0]!r}"
            ) from exc
    manifest = ShardManifest(str(partition["fn"]), shards)
    declared = document.get("path_count")
    if declared is not None and declared != manifest.path_count:
        raise CorruptDataError(
            f"shard manifest declares {declared} paths but its shards sum "
            f"to {manifest.path_count}"
        )
    return manifest


def _write_file_atomic(path: str, blob: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


class ShardedPathStore(PathReader):
    """Fan-out reader over a manifest of v2 shards — one store, many files.

    A :class:`~repro.core.reader.PathReader` that only routes: a global id
    is located in its shard and the call runs on that shard's reader, a
    batch groups into one ``retrieve_batch`` per touched shard, and the
    query endpoints (:meth:`paths_between_hits`,
    :meth:`subpath_search_hits`) fan out over every shard — each decoding
    with its *own* table, so answers stay correct even when a streaming
    refit left shards with different tables.

    Shards open lazily (header-only, O(1) each) and their table fingerprint
    is checked against the manifest on first open.  Thread-safe for readers;
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
        """The per-shard mapped reader, opened (and fingerprinted) lazily."""
        store = self._shards[index]
        if store is not None:
            return store
        with self._lock:
            store = self._shards[index]
            if store is None:
                store = self._open_shard(index)
                self._shards[index] = store
        return store

    def _open_shard(self, index: int) -> MappedPathStore:
        info = self.manifest.shards[index]
        store = MappedPathStore.open(self.shard_path(index))
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
        except CorruptDataError:
            store.close()
            raise
        return store

    @property
    def mapped_bytes(self) -> int:
        """Total bytes across all shard files (no shard is opened for this)."""
        return sum(
            os.path.getsize(self.shard_path(index))
            for index in range(self.shard_count)
        )

    @property
    def table_fingerprints(self) -> Tuple[int, ...]:
        """Distinct table CRCs across shards, in first-appearance order."""
        seen: List[int] = []
        for info in self.manifest.shards:
            if info.table_crc not in seen:
                seen.append(info.table_crc)
        return tuple(seen)

    @property
    def table(self) -> SupernodeTable:
        """The shared supernode table — defined only for uniform-table stores.

        :raises StateError: when shards carry different tables (a streaming
            refit happened); per-shard queries keep working regardless, so
            use the fan-out endpoints instead of table-level access.
        """
        fingerprints = self.table_fingerprints
        if len(fingerprints) > 1:
            raise StateError(
                f"sharded store has {len(fingerprints)} distinct tables "
                "(refit happened); there is no single shared table"
            )
        if not self.manifest.shards:
            raise StateError("empty sharded store has no table")
        return self.shard(0).table

    @property
    def order(self):
        """The store-wide :class:`~repro.paths.reorder.VertexOrder`, or ``None``.

        Every shard of a reordered store carries the same order section
        (``build_sharded_store`` stamps one order across all shards), so
        the first shard's answer is the store's answer.  Retrieval never
        consults this — each shard inverts its own ids — it exists for
        stats surfaces and size accounting.
        """
        if not self.manifest.shards:
            return None
        return self.shard(0).order

    # -- routing ------------------------------------------------------------------
    #
    # The token-source members route one id to its shard; every decoding
    # call is the owning shard's own PathReader method, run with that
    # shard's table and order.

    def __len__(self) -> int:
        return self.manifest.path_count

    def token(self, path_id: int) -> Tuple[int, ...]:
        """The raw compressed token for global *path_id*."""
        shard, local = self.manifest.locate(path_id)
        return self.shard(shard).token(local)

    def tokens(self) -> List[Tuple[int, ...]]:
        """All compressed tokens in global path-id order."""
        out: List[Optional[Tuple[int, ...]]] = [None] * len(self)
        for index in range(self.shard_count):
            shard = self.shard(index)
            for local in range(len(shard)):
                out[self.manifest.global_id(index, local)] = shard.token(local)
        return out  # type: ignore[return-value]

    def retrieve(self, path_id: int) -> Tuple[int, ...]:
        """Decompress and return the single path *path_id*."""
        shard, local = self.manifest.locate(path_id)
        return self.shard(shard).retrieve(local)

    def retrieve_slice(
        self, path_id: int, start: Optional[int] = None, stop: Optional[int] = None
    ) -> Tuple[int, ...]:
        """``retrieve(path_id)[start:stop]`` without full materialization."""
        shard, local = self.manifest.locate(path_id)
        return self.shard(shard).retrieve_slice(local, start, stop)

    def expanded_length(self, path_id: int) -> int:
        """Decompressed length of *path_id* without expanding anything."""
        shard, local = self.manifest.locate(path_id)
        return self.shard(shard).expanded_length(local)

    def retrieve_batch(self, path_ids: Iterable[int]) -> List[Tuple[int, ...]]:
        """Batch retrieval through one flat-decode call *per touched shard*.

        Every id is located (validated) before any shard decodes; output
        order follows input order.
        """
        located = [self.manifest.locate(pid) for pid in path_ids]
        if not located:
            return []
        by_shard: Dict[int, List[Tuple[int, int]]] = {}
        for position, (shard, local) in enumerate(located):
            by_shard.setdefault(shard, []).append((position, local))
        out: List[Optional[Tuple[int, ...]]] = [None] * len(located)
        for shard, entries in by_shard.items():
            paths = self.shard(shard).retrieve_batch([local for _, local in entries])
            for (position, _), path in zip(entries, paths):
                out[position] = path
        self._count_fanout(len(by_shard))
        return out  # type: ignore[return-value]

    def retrieve_all(self) -> List[Tuple[int, ...]]:
        """Decompress the full archive (per-shard flat decode, reordered)."""
        out: List[Optional[Tuple[int, ...]]] = [None] * len(self)
        for index in range(self.shard_count):
            paths = self.shard(index).retrieve_all()
            for local, path in enumerate(paths):
                out[self.manifest.global_id(index, local)] = path
        return out  # type: ignore[return-value]

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return (self.retrieve(pid) for pid in range(len(self)))

    def _rule_bytes(self, encoding: Encoding) -> int:
        """Each distinct table (and the order riding with it) counted once,
        so the total matches the monolithic store's when all shards share
        one table."""
        total = 0
        seen: set = set()
        for index, info in enumerate(self.manifest.shards):
            if info.table_crc not in seen:
                seen.add(info.table_crc)
                total += self.shard(index)._rule_bytes(encoding)
        return total

    # -- fan-out queries -----------------------------------------------------------

    def _count_fanout(self, shards_touched: int) -> None:
        obs = get_active()
        if obs is not None:
            obs.registry.counter(catalog.SHARD_FANOUT_QUERIES).inc()
            obs.registry.counter(catalog.SHARD_FANOUT_SHARDS).inc(shards_touched)

    def vertex_index(self) -> "ShardedVertexIndex":
        """A global-id vertex index view (duck-types ``VertexIndex``)."""
        return ShardedVertexIndex(self)

    def _fan_out(self, query) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """Merge ``query(shard)``'s per-shard ``(ids, paths)`` hits into
        ascending global-id order."""
        hits: List[Tuple[int, Tuple[int, ...]]] = []
        for index in range(self.shard_count):
            ids, paths = query(self.shard(index))
            hits.extend(
                (self.manifest.global_id(index, local), path)
                for local, path in zip(ids, paths)
            )
        self._count_fanout(self.shard_count)
        hits.sort(key=lambda item: item[0])
        return [pid for pid, _ in hits], [path for _, path in hits]

    def paths_between_hits(
        self, source: int, destination: int
    ) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """Case 2 fan-out: each shard filters its own candidates with its
        own table; results merge in ascending global id."""
        return self._fan_out(lambda shard: shard.paths_between_hits(source, destination))

    def subpath_search_hits(
        self, query: Sequence[int]
    ) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """``(ids, paths)`` of the paths containing *query* contiguously,
        in ascending global-id order."""
        q = tuple(query)
        return self._fan_out(lambda shard: shard.subpath_search_hits(q))

    def check(self) -> int:
        """Force-validate every shard (header, table CRC, fingerprint).

        The startup gate :func:`repro.serve.check_store` runs for sharded
        stores: a truncated or fingerprint-divergent shard fails *here*
        with a typed error rather than as a 500 on some unlucky request.
        Returns the total path count.
        """
        for index in range(self.shard_count):
            _ = self.shard(index).table
        return len(self)

    def __repr__(self) -> str:
        return (
            f"ShardedPathStore(name={self.name!r}, shards={self.shard_count}, "
            f"paths={len(self)}, partition={self.manifest.partition!r})"
        )


class ShardedVertexIndex:
    """Global-id view over every shard's vertex index.

    Duck-types the lookup surface of
    :class:`~repro.queries.index.VertexIndex` (``paths_containing``,
    ``paths_containing_all``, ``paths_containing_any``), so the query
    engines and :class:`~repro.queries.pattern.PatternSearcher` run
    unchanged over a sharded store.  Each lookup fans out and merges; ids
    come back sorted, like the monolithic index.
    """

    def __init__(self, store: ShardedPathStore) -> None:
        self.store = store

    def _merge(self, lookup) -> List[int]:
        ids: List[int] = []
        for index in range(self.store.shard_count):
            ids.extend(
                self.store.manifest.global_id(index, local)
                for local in lookup(self.store.shard(index).vertex_index())
            )
        self.store._count_fanout(self.store.shard_count)
        return sorted(ids)

    def paths_containing(self, vertex: int) -> List[int]:
        return self._merge(lambda idx: idx.paths_containing(vertex))

    def paths_containing_all(self, vertices) -> List[int]:
        vertices = tuple(vertices)
        return self._merge(lambda idx: idx.paths_containing_all(vertices))

    def paths_containing_any(self, vertices) -> List[int]:
        vertices = tuple(vertices)
        return self._merge(lambda idx: idx.paths_containing_any(vertices))

    def __repr__(self) -> str:
        return f"ShardedVertexIndex(shards={self.store.shard_count})"


# -- parallel build ---------------------------------------------------------------


def partition_corpus(
    corpus: FlatCorpus, shards: int, partition: str = PARTITION_RANGE
) -> List[FlatCorpus]:
    """Split *corpus* into *shards* corpora under *partition*.

    ``range`` slices are zero-copy views of the parent buffer; ``hash``
    shards gather every ``shards``-th path (a copy — modulo placement
    cannot be expressed as a contiguous slice).
    """
    if shards < 1:
        raise InvalidInputError(f"shards must be >= 1, got {shards}")
    if partition not in PARTITIONS:
        raise InvalidInputError(
            f"unknown partition fn {partition!r}; known: {PARTITIONS}"
        )
    n = len(corpus)
    if partition == PARTITION_HASH:
        return [
            FlatCorpus.from_paths(
                (corpus[i] for i in range(index, n, shards)),
                name=f"{corpus.name}[hash {index}/{shards}]",
            )
            for index in range(shards)
        ]
    base, remainder = divmod(n, shards)
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
    partition: str = PARTITION_RANGE,
    backend: str = "rolling",
    order=None,
) -> str:
    """Compress *paths* against *table* into a sharded store at *out_path*.

    Per-shard compression *and serialization* fan out over *processes*
    workers (the FlatCorpus shipping path of :mod:`repro.core.parallel`,
    shipping finished v2 blobs back), then each shard is written as a self-contained v2 file
    next to the manifest.  Output is bit-identical to the sequential monolithic
    build for every ``(partition, shards, processes)`` combination, because
    compression is a pure per-path function of ``(path, table)``.

    :param paths: any path iterable or a :class:`FlatCorpus` — in
        *original* vertex ids; the order (if any) is applied here.
    :param table: the (already built) shared supernode table — built over
        the *reordered* corpus when *order* is given.
    :param out_path: manifest file to write; shard files land beside it as
        ``<stem>.shard-00000.rpc2`` etc.
    :param order: optional :class:`~repro.paths.reorder.VertexOrder`.  The
        corpus is relabelled before partitioning, and every shard blob is
        stamped with the order section
        (:func:`~repro.core.serialize.append_order_section`) so each shard
        file stays self-contained — a shard opened on its own inverts ids
        exactly like the manifest-routed store does.
    :returns: *out_path*, for chaining into :meth:`ShardedPathStore.open`.
    """
    corpus = as_flat_corpus(paths)
    if order is not None:
        corpus = order.transform_corpus(corpus)
    obs = get_active()
    if obs is None:
        return _build_sharded(
            corpus, table, out_path, shards, processes, partition, backend, order
        )
    with obs.tracer.span(catalog.SPAN_SHARD_BUILD) as span, obs.registry.timeit(
        catalog.SHARD_BUILD_SECONDS
    ):
        manifest_path = _build_sharded(
            corpus, table, out_path, shards, processes, partition, backend, order
        )
        if span is not None:
            span.add("shards", shards)
            span.add("paths", len(corpus))
            span.add("processes", processes)
    obs.registry.counter(catalog.SHARD_BUILT).inc(shards)
    return manifest_path


def _build_sharded(
    corpus: FlatCorpus,
    table: SupernodeTable,
    out_path: str,
    shards: int,
    processes: int,
    partition: str,
    backend: str,
    order=None,
) -> str:
    from repro.core.parallel import _serialize_shards
    from repro.core.serialize import append_order_section

    parts = partition_corpus(corpus, shards, partition)
    blobs = _serialize_shards(parts, table, processes=processes, backend=backend)
    table_crc = zlib.crc32(dumps_table(table))
    directory = os.path.dirname(os.path.abspath(out_path))
    stem = os.path.splitext(os.path.basename(out_path))[0]
    infos: List[ShardInfo] = []
    start = 0
    for index, (blob, count) in enumerate(blobs):
        filename = shard_filename(stem, index)
        # Workers ship plain (unordered) blobs; the coordinator stamps the
        # store-wide order on each so shard files stay self-contained.
        blob = append_order_section(blob, order)
        _write_file_atomic(os.path.join(directory, filename), blob)
        infos.append(
            ShardInfo(
                file=filename,
                start=start if partition == PARTITION_RANGE else None,
                count=count,
                table_crc=table_crc,
            )
        )
        start += count
    manifest = ShardManifest(partition, infos)
    _write_file_atomic(out_path, dumps_manifest(manifest))
    return out_path


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

    When the stream's drift watch trips at seal time and *refit_on_drift*
    is set, the next memtable's table is refit from the freshest sealed
    paths (``shard.refits`` counts these); older shards keep their original
    tables — every shard is self-contained, so readers never care.

    :param out_path: manifest file; shard files land beside it.
    :param config: OFFS configuration for table (re)fits.
    :param train_after: warm-up paths buffered before the first table.
    :param memtable_paths: seal threshold, in paths.
    :param window: drift-detection window, in paths.
    :param refit_ratio: drift threshold (see ``StreamingCompressor``).
    :param refit_on_drift: refit the table when sealing a drifted memtable.
    :param base_id: explicit supernode id base for every table fit.
    """

    def __init__(
        self,
        out_path: str,
        config=None,
        train_after: int = 1000,
        memtable_paths: int = 4096,
        window: int = 500,
        refit_ratio: float = 0.5,
        refit_on_drift: bool = False,
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
        self.refit_on_drift = refit_on_drift
        self.refits = 0
        self._stream_args = dict(
            config=config,
            train_after=train_after,
            base_id=base_id,
            window=window,
            refit_ratio=refit_ratio,
        )
        self._stream = StreamingCompressor(**self._stream_args)
        self._memtable_raw: List[Tuple[int, ...]] = []
        self._sealed_paths = 0
        self._infos: List[ShardInfo] = []
        self._directory = os.path.dirname(os.path.abspath(out_path))
        self._stem = os.path.splitext(os.path.basename(out_path))[0]
        self._closed = False

    # -- ingestion ------------------------------------------------------------------

    def feed(self, path: Sequence[int]) -> Optional[int]:
        """Ingest one path; returns its *global* id (``None`` in warm-up).

        Warm-up ids are assigned at table-train time in arrival order, so
        they are stable either way.
        """
        if self._closed:
            raise StateError("ShardedIngest is closed")
        path = tuple(path)
        self._memtable_raw.append(path)
        local = self._stream.feed(path)
        obs = get_active()
        if obs is not None:
            obs.registry.counter(catalog.SHARD_INGESTED_PATHS).inc()
            obs.registry.set_gauge(catalog.SHARD_MEMTABLE_PATHS, len(self._stream))
        if self._stream.trained and len(self._stream.store) >= self.memtable_paths:
            self._seal()
            return self._sealed_paths - 1 if local is not None else None
        return None if local is None else self._sealed_paths + local

    def feed_many(self, paths: Iterable[Sequence[int]]) -> List[Optional[int]]:
        """Ingest many paths; returns their global ids."""
        return [self.feed(p) for p in paths]

    def __len__(self) -> int:
        """Paths ingested so far (sealed + memtable + warm-up buffer)."""
        return self._sealed_paths + len(self._stream)

    @property
    def sealed_paths(self) -> int:
        """Paths already persisted to immutable shards."""
        return self._sealed_paths

    @property
    def shard_count(self) -> int:
        return len(self._infos)

    @property
    def drifted(self) -> bool:
        """The live memtable's drift flag (see ``StreamingCompressor``)."""
        return self._stream.drifted

    # -- sealing --------------------------------------------------------------------

    def _seal(self) -> None:
        """Write the memtable as an immutable shard, then record it.

        The shard, and a manifest naming it, are written first; only then
        does the ingest commit the shard, advance its offset and drain the
        memtable.  A failed write re-raises with that state unchanged, so
        no manifest names a shard that was never written and the next
        seal retries the same paths.
        """
        stream = self._stream
        if not stream.trained:
            if len(stream) == 0:
                return
            stream.train_now()
        tokens = stream.store.tokens()
        if not tokens:
            return
        table = stream.store.table
        index = len(self._infos)
        info = ShardInfo(
            file=shard_filename(self._stem, index),
            start=self._sealed_paths,
            count=len(tokens),
            table_crc=zlib.crc32(dumps_table(table)),
        )
        obs = get_active()
        if obs is None:
            self._write_seal(info, table, tokens)
        else:
            with obs.tracer.span(catalog.SPAN_SHARD_SEAL) as span, obs.registry.timeit(
                catalog.SHARD_SEAL_SECONDS
            ):
                self._write_seal(info, table, tokens)
                if span is not None:
                    span.add("paths", info.count)
                    span.add("shard", index)
            obs.registry.counter(catalog.SHARD_SEALED).inc()
            obs.registry.set_gauge(catalog.SHARD_MEMTABLE_PATHS, 0)
        self._infos.append(info)
        self._sealed_paths += info.count
        stream.drain_tokens()
        sealed_raw = self._memtable_raw
        self._memtable_raw = []
        if self.refit_on_drift and stream.drifted:
            self._refit(sealed_raw)

    def _write_seal(self, info: ShardInfo, table, tokens) -> None:
        """Publish a sealed shard, then the manifest that names it."""
        shard_file = os.path.join(self._directory, info.file)
        _write_file_atomic(shard_file, dumps_store_v2_tokens(table, tokens))
        _write_file_atomic(
            self.out_path,
            dumps_manifest(ShardManifest(PARTITION_RANGE, self._infos + [info])),
        )

    def _refit(self, training_paths: List[Tuple[int, ...]]) -> None:
        """Train the next memtable's table on the freshest sealed paths."""
        from repro.core.stream import StreamingCompressor

        if not training_paths:
            return
        args = dict(self._stream_args)
        args["train_after"] = len(training_paths)
        fresh = StreamingCompressor(**args)
        fresh.feed_many(training_paths)
        # The training paths are already persisted in the shard just
        # sealed; the warm-up flush only seeded the new table and drift
        # baseline, so its tokens are discarded.
        fresh.drain_tokens()
        self._stream = fresh
        self.refits += 1
        obs = get_active()
        if obs is not None:
            obs.registry.counter(catalog.SHARD_REFITS).inc()

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
        if not os.path.exists(self.out_path) or not self._infos:
            _write_file_atomic(
                self.out_path, dumps_manifest(ShardManifest(PARTITION_RANGE, self._infos))
            )
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
            f"sealed={self._sealed_paths}, memtable={len(self._stream)}, {state})"
        )


# -- magic-sniffing loader --------------------------------------------------------


def open_store(path: str):
    """Open any archive by magic sniff: v1 blob, v2 mmap, or shard manifest.

    * ``RPCS`` — full in-memory parse (:func:`~repro.core.serialize.loads_store`);
    * ``RPC2`` — :class:`~repro.core.mapped.MappedPathStore` (O(1) open);
    * ``RPSM`` — :class:`ShardedPathStore` (fan-out over the manifest).
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
