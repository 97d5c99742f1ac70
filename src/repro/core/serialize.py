"""Binary serialization for supernode tables and compressed stores.

Persisting compressed archives is where the compression ratio becomes real
bytes on disk.  The formats here are deliberately simple, versioned and fully
validated on load (:class:`~repro.core.errors.CorruptDataError` on any
inconsistency):

* **Table blob** — magic ``RPST``, version, base id, entry count, then per
  entry a varint length and varint vertex ids.  Entry order encodes the id
  assignment, so no ids are written.
* **Store blob** — magic ``RPCS``, version, a CRC32 of everything that
  follows, the table blob, token count, then per token a varint length and
  varint symbols.  The checksum makes *any* single-bit corruption of an
  archive detectable (the fuzz tests flip every byte and expect
  :class:`CorruptDataError`).
* **Store file v2** — magic ``RPC2``: a fixed 64-byte header, the table
  blob, a fixed-width per-path offset index, then the varint token
  payload.  Designed for :class:`~repro.core.mapped.MappedPathStore`:
  open cost is the header alone (milliseconds on multi-GB archives), any
  path's tokens are an O(1) seek, and the table decodes lazily.  A header
  flag bit marks an optional trailing **order-table section** (magic
  ``RPOT``, own length + CRC32) persisting the
  :class:`~repro.paths.reorder.VertexOrder` the payload was written
  under; files without the flag are byte-identical to pre-flag files, so
  old readers of unordered stores are unaffected.  See
  ``docs/formats.md`` for the byte-level diagram.

Varints are used on disk regardless of the in-memory size model; frequent
supernodes get small ids by construction, so the on-disk form is usually
smaller than the 4-bytes-per-symbol accounting the paper uses.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import sys
import zlib
from array import array
from typing import List, Tuple

from repro.core.errors import (
    CorruptDataError,
    InvalidInputError,
    TableError,
    TruncatedDataError,
)
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import get_active
from repro.paths.encoding import VarintEncoding, read_varint

_TABLE_MAGIC = b"RPST"
_STORE_MAGIC = b"RPCS"
_VERSION = 1
_VARINT = VarintEncoding()
#: Per-process sequence that makes :func:`publish_file`'s temp names unique.
_TEMP_IDS = itertools.count()

#: v2 single-file layout (see docs/formats.md): fixed header, table blob,
#: u64 offset index, varint token payload.
STORE_V2_MAGIC = b"RPC2"
STORE_V2_VERSION = 2
#: ``<`` magic(4) version(B) flags(B) pad(2x) path_count(Q) table_off(Q)
#: table_size(Q) index_off(Q) payload_off(Q) payload_size(Q) meta_crc(I)
#: header_crc(I).  The flags byte occupies what used to be the first pad
#: byte — pre-flag writers always emitted 0 there, so every unordered file
#: parses identically under both readings.
STORE_V2_HEADER = struct.Struct("<4sBB2xQQQQQQII")
STORE_V2_HEADER_SIZE = STORE_V2_HEADER.size  # 64 bytes

#: Header flag: an order-table section (``RPOT``) follows the payload.
STORE_V2_FLAG_ORDER = 0x01
_STORE_V2_KNOWN_FLAGS = STORE_V2_FLAG_ORDER

#: Order-table section framing: magic(4) body_len(I) body_crc(I) body.
ORDER_SECTION_MAGIC = b"RPOT"
_ORDER_SECTION_PREFIX = struct.Struct("<4sII")


def dumps_table(table: SupernodeTable) -> bytes:
    """Serialize a supernode table to bytes."""
    entries = [table.expand(sid) for sid in range(table.base_id, table.base_id + len(table))]
    payload, _ = _VARINT.encode_runs(entries, prefixed=True)
    return (
        _TABLE_MAGIC + struct.pack("<BII", _VERSION, table.base_id, len(table)) + payload
    )


def loads_table(data: bytes) -> Tuple[SupernodeTable, int]:
    """Restore a table from bytes; returns ``(table, bytes_consumed)``."""
    if data[:4] != _TABLE_MAGIC:
        raise CorruptDataError("not a supernode-table blob (bad magic)")
    try:
        version, base_id, count = struct.unpack_from("<BII", data, 4)
    except struct.error as exc:
        raise CorruptDataError("truncated supernode-table header") from exc
    if version != _VERSION:
        raise CorruptDataError(f"unsupported supernode-table version {version}")
    pos = 4 + struct.calcsize("<BII")
    subpaths: List[Tuple[int, ...]] = []
    for _ in range(count):
        length, pos = read_varint(data, pos)
        if length < 2:
            raise CorruptDataError(f"table entry of invalid length {length}")
        entry = []
        for _ in range(length):
            value, pos = read_varint(data, pos)
            entry.append(value)
        subpaths.append(tuple(entry))
    try:
        table = SupernodeTable(base_id, subpaths)
    except TableError as exc:
        raise CorruptDataError(f"invalid table contents: {exc}") from exc
    return table, pos


def dumps_store(store: CompressedPathStore) -> bytes:
    """Serialize a compressed store (table + all tokens) to bytes.

    The v1 blob has no order-table section, so a store holding a vertex
    reordering cannot round-trip through it — the reordered payload would
    silently decode to wrong ids.  Such stores must use the v2 layout
    (:func:`dumps_store_v2`); asking for v1 raises eagerly.  With
    :mod:`repro.obs` active the call is timed as ``store.serialize.seconds``
    under a ``store.serialize`` span.
    """
    if getattr(store, "order", None) is not None:
        raise InvalidInputError(
            "v1 store blobs cannot persist a vertex order; "
            "write reordered stores with dumps_store_v2"
        )
    obs = get_active()
    if obs is not None:
        return _observed(obs, _store_v1_blob, store)
    return _store_v1_blob(store)


def _store_v1_blob(store: CompressedPathStore) -> bytes:
    tokens, _ = _VARINT.encode_runs(store.tokens(), prefixed=True)
    payload = dumps_table(store.table) + struct.pack("<I", len(store)) + tokens
    return _STORE_MAGIC + struct.pack("<BI", _VERSION, zlib.crc32(payload)) + payload


def _observed(obs, write, *args) -> bytes:
    """``write(*args)`` under the ``store.serialize`` span and timer.

    The span carries the blob's size as its ``bytes`` count.
    """
    with obs.tracer.span(catalog.SPAN_STORE_SERIALIZE) as span, obs.registry.timeit(
        catalog.STORE_SERIALIZE_SECONDS
    ):
        blob = write(*args)
        if span is not None:
            span.add("bytes", len(blob))
    return blob


def loads_store(data: bytes) -> CompressedPathStore:
    """Restore a compressed store from :func:`dumps_store` output.

    Validates the payload CRC32 before parsing anything, so corruption is
    reported as :class:`CorruptDataError` rather than surfacing as a wrong
    path later.
    """
    if data[:4] != _STORE_MAGIC:
        raise CorruptDataError("not a compressed-store blob (bad magic)")
    header_size = 4 + struct.calcsize("<BI")
    if len(data) < header_size:
        raise CorruptDataError("truncated compressed-store header")
    version, checksum = struct.unpack_from("<BI", data, 4)
    if version != _VERSION:
        raise CorruptDataError(f"unsupported compressed-store version {version}")
    if zlib.crc32(data[header_size:]) != checksum:
        raise CorruptDataError("checksum mismatch (archive is corrupt)")
    table, consumed = loads_table(data[header_size:])
    pos = header_size + consumed
    try:
        (count,) = struct.unpack_from("<I", data, pos)
    except struct.error as exc:
        raise CorruptDataError("truncated token count") from exc
    pos += 4
    store = CompressedPathStore(table)
    base = table.base_id
    limit = base + len(table)
    for _ in range(count):
        length, pos = read_varint(data, pos)
        token = []
        for _ in range(length):
            value, pos = read_varint(data, pos)
            if value >= limit:
                raise CorruptDataError(
                    f"token references supernode {value} beyond table (limit {limit})"
                )
            token.append(value)
        store._tokens.append(tuple(token))
    if pos != len(data):
        raise CorruptDataError("trailing garbage after last token")
    return store


# -- store format v2 (mmap-friendly single file) ---------------------------------


class StoreV2Header:
    """Decoded v2 header fields (section fenceposts into the file)."""

    __slots__ = (
        "path_count", "table_offset", "table_size",
        "index_offset", "payload_offset", "payload_size", "meta_crc",
        "flags", "order_body_size", "order_body_crc",
    )

    def __init__(self, path_count, table_offset, table_size,
                 index_offset, payload_offset, payload_size, meta_crc,
                 flags=0, order_body_size=0, order_body_crc=0):
        self.path_count = path_count
        self.table_offset = table_offset
        self.table_size = table_size
        self.index_offset = index_offset
        self.payload_offset = payload_offset
        self.payload_size = payload_size
        self.meta_crc = meta_crc
        self.flags = flags
        self.order_body_size = order_body_size
        self.order_body_crc = order_body_crc

    @property
    def index_size(self) -> int:
        return 8 * (self.path_count + 1)

    @property
    def total_size(self) -> int:
        """End of the payload — also where the order section starts, if any."""
        return self.payload_offset + self.payload_size

    @property
    def has_order(self) -> bool:
        """Whether an order-table section follows the payload."""
        return bool(self.flags & STORE_V2_FLAG_ORDER)

    @property
    def order_body_offset(self) -> int:
        """Byte offset of the order-table *body* (past the section prefix)."""
        return self.total_size + _ORDER_SECTION_PREFIX.size

    @property
    def file_size(self) -> int:
        """Total file size including any order-table section."""
        if not self.has_order:
            return self.total_size
        return self.order_body_offset + self.order_body_size


def dumps_store_v2(store: CompressedPathStore) -> bytes:
    """Serialize *store* to the v2 single-file layout (see docs/formats.md).

    Sections: 64-byte header, RPST table blob, ``paths + 1`` little-endian
    u64 payload offsets (relative to the payload section), then each
    path's symbols as bare varints (the offset index delimits paths, so no
    per-token length prefix is written).  The header CRC covers the header;
    ``meta_crc`` covers table + index, so all *structural* metadata is
    checksummed without forcing a full-payload read at open time.  A store
    carrying a vertex order additionally gets the flagged ``RPOT``
    trailing section so readers can invert ids on retrieval.
    """
    return dumps_store_v2_tokens(
        store.table, store.tokens(), order=getattr(store, "order", None)
    )


def dumps_store_v2_tokens(table: SupernodeTable, tokens, order=None) -> bytes:
    """The v2 blob for a bare ``(table, tokens)`` pair.

    Byte-identical to :func:`dumps_store_v2` over a store holding the same
    table and tokens.  Every shard blob comes from here: the sharded
    build's workers and :class:`~repro.core.sharded.ShardedIngest` hold
    plain token lists, and both hand the blob to the one shard writer in
    :mod:`repro.core.sharded`.

    *order*, when given, is the :class:`~repro.paths.reorder.VertexOrder`
    the tokens were compressed under (tokens are already in new-id space);
    it is persisted as the trailing order-table section and the header
    flag is set.  ``None`` produces a byte-identical blob to the pre-flag
    format.

    With :mod:`repro.obs` active the call is timed as
    ``store.serialize.seconds`` under a ``store.serialize`` span.
    """
    obs = get_active()
    if obs is not None:
        return _observed(obs, _store_v2_blob, table, tokens, order)
    return _store_v2_blob(table, tokens, order)


def _store_v2_blob(table: SupernodeTable, tokens, order) -> bytes:
    table_blob = dumps_table(table)
    payload, ends = _VARINT.encode_runs(tokens)
    count = len(ends) - 1
    index = _u64_le(ends)
    flags = STORE_V2_FLAG_ORDER if order is not None else 0
    table_offset = STORE_V2_HEADER_SIZE
    index_offset = table_offset + len(table_blob)
    payload_offset = index_offset + len(index)
    meta_crc = zlib.crc32(table_blob + index)
    header = STORE_V2_HEADER.pack(
        STORE_V2_MAGIC, STORE_V2_VERSION, flags, count, table_offset,
        len(table_blob), index_offset, payload_offset, len(payload),
        meta_crc, 0,
    )
    header_crc = zlib.crc32(header[:-4])
    header = header[:-4] + struct.pack("<I", header_crc)
    blob = header + table_blob + index + payload
    if order is not None:
        blob += _dumps_order_section(order)
    return blob


def _u64_le(values: array) -> bytes:
    """The non-negative ``array('q')`` *values* as little-endian u64 bytes."""
    if sys.byteorder == "big":
        values = array("q", values)
        values.byteswap()
    return values.tobytes()


def _dumps_order_section(order) -> bytes:
    """Frame a :class:`~repro.paths.reorder.VertexOrder` as an RPOT section.

    Layout: magic ``RPOT``, u32 body length, u32 CRC32 of the body, then
    the body (:meth:`VertexOrder.to_bytes`).  The section is self-delimited
    so the header only needs one flag bit to announce it.
    """
    body = order.to_bytes()
    return _ORDER_SECTION_PREFIX.pack(
        ORDER_SECTION_MAGIC, len(body), zlib.crc32(body)
    ) + body


def parse_order_section(data, header: StoreV2Header):
    """Decode the order-table section *header* declares inside *data*.

    Returns the :class:`~repro.paths.reorder.VertexOrder`, or ``None``
    when the header carries no order flag.  The body CRC is verified here
    — readers call this lazily on first inversion, keeping open cost at
    the 64-byte header even for ordered files.  A body that passes its CRC
    but does not decode raises its error with the body's file offset
    appended (offsets inside the message count from the body's start).
    """
    if not header.has_order:
        return None
    from repro.paths.reorder import VertexOrder

    body = bytes(data[header.order_body_offset:header.order_body_offset
                      + header.order_body_size])
    if len(body) != header.order_body_size:
        raise TruncatedDataError(
            f"order-table body truncated at byte offset {header.order_body_offset}"
        )
    if zlib.crc32(body) != header.order_body_crc:
        raise CorruptDataError("order-table checksum mismatch (file is corrupt)")
    try:
        return VertexOrder.from_bytes(body)
    except CorruptDataError as exc:
        raise type(exc)(
            f"{exc}; the order-table body starts at file byte offset "
            f"{header.order_body_offset}"
        ) from exc


def loads_store_v2(data: bytes):
    """Open a v2 blob for random access (lazy table, zero-copy tokens).

    Returns a :class:`~repro.core.mapped.MappedPathStore` over *data*; use
    :meth:`MappedPathStore.open` to map a file from disk instead of holding
    the bytes in memory.  Unlike :func:`loads_store` nothing beyond the header
    is parsed here — the table and tokens decode on first access.
    """
    from repro.core.mapped import MappedPathStore

    return MappedPathStore(data)


def loads_store_v2_tokens(data: bytes) -> Tuple[SupernodeTable, List[Tuple[int, ...]]]:
    """Parse a v2 blob back into the bare ``(table, tokens)`` pair.

    The eager inverse of :func:`dumps_store_v2_tokens` — round-trips every
    blob that function produces.  Prefer :func:`loads_store_v2` when random
    access (not the full token list) is the goal.
    """
    store = loads_store_v2(data)
    return store.table, store.tokens()


def parse_store_v2_header(data) -> StoreV2Header:
    """Validate and decode a v2 header from the first 64 bytes of *data*.

    Checks: magic, version, header CRC, section ordering, and that the
    declared sections exactly tile the buffer — so *any* truncation is
    caught here, before a single token is touched.
    """
    size = len(data)
    if size < STORE_V2_HEADER_SIZE:
        raise TruncatedDataError(
            f"v2 store header needs {STORE_V2_HEADER_SIZE} bytes, "
            f"buffer has {size}"
        )
    header = bytes(data[:STORE_V2_HEADER_SIZE])
    (magic, version, flags, path_count, table_offset, table_size, index_offset,
     payload_offset, payload_size, meta_crc, header_crc) = STORE_V2_HEADER.unpack(header)
    if magic != STORE_V2_MAGIC:
        raise CorruptDataError("not a v2 store file (bad magic)")
    if version != STORE_V2_VERSION:
        raise CorruptDataError(f"unsupported v2 store version {version}")
    if zlib.crc32(header[:-4]) != header_crc:
        raise CorruptDataError("v2 header checksum mismatch (file is corrupt)")
    if flags & ~_STORE_V2_KNOWN_FLAGS:
        raise CorruptDataError(
            f"v2 store sets unknown flag bits 0x{flags & ~_STORE_V2_KNOWN_FLAGS:02x}"
        )
    parsed = StoreV2Header(
        path_count, table_offset, table_size, index_offset,
        payload_offset, payload_size, meta_crc, flags=flags,
    )
    if table_offset != STORE_V2_HEADER_SIZE:
        raise CorruptDataError(f"v2 table section at unexpected offset {table_offset}")
    if index_offset != table_offset + table_size:
        raise CorruptDataError("v2 index section does not follow the table")
    if payload_offset != index_offset + parsed.index_size:
        raise CorruptDataError("v2 payload section does not follow the index")
    if not parsed.has_order:
        if parsed.total_size != size:
            raise TruncatedDataError(
                f"v2 store declares {parsed.total_size} bytes but buffer has "
                f"{size} (truncated or padded at byte offset {min(parsed.total_size, size)})"
            )
        return parsed
    # Order flag set: the RPOT section must exactly tile the remainder.
    # Its magic and declared length are validated eagerly here (cheap —
    # 12 bytes); the body CRC is deferred to parse_order_section so open
    # cost stays at the header even for ordered files.
    prefix_end = parsed.total_size + _ORDER_SECTION_PREFIX.size
    if size < prefix_end:
        raise TruncatedDataError(
            f"v2 store declares an order-table section at byte offset "
            f"{parsed.total_size} but the buffer ends at {size}"
        )
    order_magic, body_size, body_crc = _ORDER_SECTION_PREFIX.unpack_from(
        bytes(data[parsed.total_size:prefix_end])
    )
    if order_magic != ORDER_SECTION_MAGIC:
        raise CorruptDataError("order-table section has a bad magic")
    parsed.order_body_size = body_size
    parsed.order_body_crc = body_crc
    if parsed.file_size != size:
        raise TruncatedDataError(
            f"v2 store declares {parsed.file_size} bytes (payload + order "
            f"table) but buffer has {size}"
        )
    return parsed


def publish_file(path: str, data: bytes) -> int:
    """Publish *data* as the whole file at *path*; returns bytes written.

    The one way the library puts a file on disk.  *data* goes to a fresh
    temp file beside *path* (``<path>.<pid>.<n>.tmp``, created exclusively
    with mode ``0o666`` so the umask applies exactly as for
    ``open(path, "wb")``), which is then renamed onto *path*.  A reader
    therefore sees either the previous file or the complete new one, never
    a torn one, and a failed write leaves the previous file and no temp
    file behind.  Nothing is fsynced yet: after a crash the rename may be
    lost and a stray temp file may remain.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f"{name}.{os.getpid()}.{next(_TEMP_IDS)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:  # a stray temp file from a crashed writer
            continue
        break
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:  # the rename consumed the temp file, unless something failed
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return len(data)


def dump_store_file(store: CompressedPathStore, path: str) -> int:
    """Publish *store* at *path* in the v2 layout; returns bytes written.

    The file is the native format of
    :class:`~repro.core.mapped.MappedPathStore`: reopen it with
    :meth:`MappedPathStore.open` for O(1)-seek retrievals without a full
    parse.
    """
    return publish_file(path, dumps_store_v2(store))
