"""Zero-copy, mmap-backed random access over the v2 store file format.

``loads_store`` materializes an entire archive — every token parsed, every
tuple allocated — before the first path can be served.  For the serving
workloads the paper motivates (retrieve a handful of paths out of millions)
that load cost dwarfs the query cost.  :class:`MappedPathStore` is the
retrieval-oriented counterpart, in the spirit of CiNCT's query-first data
structures and Log(Graph)'s offset-indexed mmap layouts:

* **open = header only.**  Opening validates 64 bytes; cost is independent
  of path count.  The table and the offset index stay as raw mapped bytes
  until first touched (table decode also verifies the metadata CRC).
* **O(1) seek.**  Path *i*'s tokens live at ``index[i]:index[i+1]`` in the
  payload; retrieval reads exactly those bytes through the mapping —
  the OS pages in only what queries touch.
* **Same answers.**  Retrieval, queries and size accounting come from
  :class:`~repro.core.reader.PathReader`, the same code the in-memory
  :class:`~repro.core.store.CompressedPathStore` runs; this class only
  supplies the token source (header, lazy table/order, varint parse) and
  the mapping's lifecycle.

Write files with :func:`repro.core.serialize.dump_store_file`; open them
with :meth:`MappedPathStore.open`, or construct directly over any bytes-like buffer (the in-memory route used
by :func:`~repro.core.serialize.loads_store_v2` and the fuzz tests).
"""

from __future__ import annotations

import mmap
import os
import zlib
from typing import List, Optional, Tuple

import numpy as np

from repro.core.errors import (
    CorruptDataError,
    StateError,
    TruncatedDataError,
)
from repro.core.flatcorpus import FlatCorpus
from repro.core.serialize import (
    StoreV2Header,
    loads_table,
    parse_order_section,
    parse_store_v2_header,
)
from repro.core.reader import PathReader
from repro.obs import catalog
from repro.obs.runtime import get_active
from repro.paths.encoding import VarintEncoding

_VARINT = VarintEncoding()


class MappedPathStore(PathReader):
    """Read-only compressed path store over a v2 buffer or mapped file.

    :param buffer: the complete v2 blob — ``bytes``, ``mmap.mmap`` or any
        buffer supporting slicing; validated up to the header immediately.
    :param name: label for ``repr`` and diagnostics (the file path when
        opened via :meth:`open`).
    """

    def __init__(self, buffer, name: str = "<buffer>") -> None:
        self.name = name
        self._buf = buffer
        self._mmap: Optional[mmap.mmap] = buffer if isinstance(buffer, mmap.mmap) else None
        self._file = None
        self._owner_pid = os.getpid()
        self._header: StoreV2Header = parse_store_v2_header(buffer)
        self._table = None
        self._index = None
        self._order = None
        self._order_loaded = not self._header.has_order
        obs = get_active()
        if obs is not None:
            obs.registry.set_gauge(catalog.STORE_MAPPED_BYTES, len(buffer))

    @classmethod
    def open(cls, path: str) -> "MappedPathStore":
        """Memory-map the v2 file at *path*.

        Only the header is read eagerly; with :mod:`repro.obs` active the
        call is timed as ``store.open.seconds`` under a ``store.open``
        span, and the mapping size lands on ``store.mapped_bytes``.
        """
        obs = get_active()
        if obs is None:
            return cls._open(path)
        with obs.tracer.span(catalog.SPAN_STORE_OPEN) as span, obs.registry.timeit(
            catalog.STORE_OPEN_SECONDS
        ):
            store = cls._open(path)
            if span is not None:
                span.add("paths", len(store))
                span.add("bytes", store.mapped_bytes)
        return store

    @classmethod
    def _open(cls, path: str) -> "MappedPathStore":
        fh = open(path, "rb")
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-byte file cannot be mapped
            fh.close()
            raise TruncatedDataError(
                f"v2 store file {path!r} is empty (truncated at byte offset 0)"
            ) from exc
        except OSError:
            fh.close()
            raise
        try:
            store = cls(mapped, name=path)
        except CorruptDataError:
            mapped.close()
            fh.close()
            raise
        store._file = fh
        return store

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping (no-op for plain byte buffers)."""
        if self._index is not None:
            # The index memoryview exports a pointer into the mapping;
            # mmap.close() refuses while any such export is alive.
            self._index.release()
            self._index = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "MappedPathStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- process boundaries --------------------------------------------------------
    #
    # A mapping is an address-space resource: a forked worker inherits the
    # parent's mmap and file descriptor (reads keep working, but the two
    # processes now share OS state with no independent lifecycle), and a
    # spawned worker cannot receive one at all — ``mmap.mmap`` does not
    # pickle.  Long-lived servers (repro.serve) fan out over N workers, so
    # the store knows which process opened it and can re-establish itself
    # on the other side of any process boundary.

    @property
    def owner_pid(self) -> int:
        """The pid of the process that opened (or unpickled) this store."""
        return self._owner_pid

    def reopen(self) -> "MappedPathStore":
        """A fresh store over the same source — new fd, new mapping.

        File-backed stores re-open (and re-validate) the file at
        :attr:`name`; plain byte buffers are immutable and simply shared
        with the new instance.

        :raises StateError: for a store constructed over a raw ``mmap``
            object with no backing path to re-open.
        """
        if self._file is not None:
            return type(self).open(self.name)
        if self._mmap is not None:
            raise StateError(
                f"cannot reopen {self!r}: it wraps a caller-owned mmap with "
                "no backing file path; use MappedPathStore.open(path)"
            )
        return type(self)(self._buf, name=self.name)

    def process_local(self) -> "MappedPathStore":
        """This store if owned by the current process, else :meth:`reopen`.

        The post-fork idiom for worker processes::

            store = store.process_local()   # safe on either side of fork

        A fork-inherited mapping still answers reads, but re-opening gives
        the worker its own descriptor and mapping (independent close, and
        the header/CRC validation re-runs against the file as it exists
        now).  Owned stores are returned unchanged, so the call is free in
        the common case.
        """
        if os.getpid() == self._owner_pid:
            return self
        return self.reopen()

    def __getstate__(self):
        # mmap objects cannot cross process boundaries; pickle the source
        # instead.  This is what lets repro.serve (and any multiprocessing
        # start method, including spawn) ship a store to worker processes.
        if self._file is not None:
            return {"path": self.name}
        if self._mmap is not None:
            raise StateError(
                f"cannot pickle {self!r}: it wraps a caller-owned mmap with "
                "no backing file path; use MappedPathStore.open(path)"
            )
        return {"buffer": bytes(self._buf), "name": self.name}

    def __setstate__(self, state) -> None:
        if "path" in state:
            fresh = type(self)._open(state["path"])
            self.__dict__.update(fresh.__dict__)
        else:
            self.__init__(state["buffer"], name=state["name"])

    @property
    def mapped_bytes(self) -> int:
        """Size of the mapped archive — the whole v2 file when opened by path."""
        return len(self._buf)

    # -- lazy sections ------------------------------------------------------------

    @property
    def table(self):
        """The supernode table, decoded (and CRC-checked) on first access."""
        if self._table is None:
            header = self._header
            meta = bytes(
                self._buf[header.table_offset : header.payload_offset]
            )
            if zlib.crc32(meta) != header.meta_crc:
                raise CorruptDataError(
                    "v2 table/index checksum mismatch (file is corrupt)"
                )
            table_blob = meta[: header.table_size]
            table, consumed = loads_table(table_blob)
            if consumed != header.table_size:
                raise CorruptDataError(
                    "v2 table section size disagrees with its contents"
                )
            self._table = table
        return self._table

    @property
    def table_section(self) -> bytes:
        """The serialized table section as stored, read without decoding it."""
        header = self._header
        start = header.table_offset
        return bytes(self._buf[start : start + header.table_size])

    @property
    def table_fingerprint(self) -> int:
        """CRC32 of :attr:`table_section`.

        The same value a shard manifest records as ``ShardInfo.table_crc``.
        """
        return zlib.crc32(self.table_section)

    @property
    def order_section(self) -> bytes:
        """The order section as stored (framing and body), ``b""`` if absent."""
        return bytes(self._buf[self._header.total_size :])

    @property
    def order(self):
        """The persisted :class:`~repro.paths.reorder.VertexOrder`, or ``None``.

        Decoded (and CRC-checked) on first access — opening an ordered
        file still costs only the 64-byte header.  ``None`` means the
        payload is in original ids and retrieval skips inversion.
        """
        if not self._order_loaded:
            self._order = parse_order_section(self._buf, self._header)
            self._order_loaded = True
        return self._order

    def _offsets(self):
        """The raw u64 offset index as a zero-copy memoryview cast."""
        if self._index is None:
            header = self._header
            self._index = memoryview(self._buf)[
                header.index_offset : header.payload_offset
            ].cast("Q")
        return self._index

    # -- token source (the PathReader contract) ------------------------------------

    def __len__(self) -> int:
        return self._header.path_count

    def token(self, path_id: int) -> Tuple[int, ...]:
        """The raw compressed token for *path_id*, parsed from the mapping.

        The varint loop is inlined (this is the innermost loop of every
        read) and bounded by the token's own end offset: a varint whose
        continuation bit runs past it is corrupt, never a read into the
        next token.
        """
        self._check_id(path_id)
        index = self._offsets()
        header = self._header
        begin = header.payload_offset + index[path_id]
        end = header.payload_offset + index[path_id + 1]
        if begin > end or end > header.total_size:
            raise CorruptDataError(
                f"v2 offset index is not monotone at path {path_id}"
            )
        limit = self.table.base_id + len(self.table)
        buf = self._buf
        token: List[int] = []
        push = token.append
        pos = begin
        # Inlined, not encoding.read_varint: a call per symbol would dominate point reads.
        while pos < end:
            start = pos
            value = buf[pos]
            pos += 1
            if value >= 0x80:
                value &= 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        self._raise_overrun(path_id, start, end)
                    byte = buf[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise CorruptDataError(
                            f"varint too long at byte offset {start} "
                            "(corrupt stream)"
                        )
            if value >= limit:
                raise CorruptDataError(
                    f"token references supernode {value} beyond table "
                    f"(limit {limit}) at byte offset {start}"
                )
            push(value)
        return tuple(token)

    def _raise_overrun(self, path_id: int, start: int, end: int) -> None:
        """A varint starting at *start* continues past its token's *end*."""
        size = len(self._buf)
        if end >= size:
            raise TruncatedDataError(
                f"truncated varint at byte offset {start} (buffer ends at {size})"
            )
        raise CorruptDataError(
            f"varint at byte offset {start} runs past the end of path "
            f"{path_id}'s token at byte offset {end}"
        )

    def tokens(self) -> List[Tuple[int, ...]]:
        """All compressed tokens in path-id order (parses the full payload)."""
        return self.token_corpus().to_paths()

    def token_corpus(self) -> FlatCorpus:
        """Every token in path-id order as one :class:`FlatCorpus`.

        The whole payload is parsed in vectorized blocks
        (:meth:`_bulk_parse`), which accepts only payloads that
        :meth:`token` returns unchanged.  When any of
        its checks fails, every token goes through :meth:`token`, which
        raises the exact typed error with its byte offset.
        """
        corpus = self._bulk_parse() if len(self) else None
        if corpus is None:
            corpus = FlatCorpus.from_paths(self.token(pid) for pid in range(len(self)))
        return corpus

    def _bulk_parse(self) -> Optional[FlatCorpus]:
        """The tokens parsed in bulk, or ``None`` when a check fails.

        The window ``[index[0], index[n])`` of the payload goes to
        :meth:`VarintEncoding.decode_runs
        <repro.paths.encoding.VarintEncoding.decode_runs>` (no token may
        end inside a varint, no varint may exceed 9 bytes) after a
        monotone index whose end lies within the payload, compared as
        uint64 before the copy is reinterpreted as int64 (every offset is
        then below 2**63); every value must then lie below
        ``table.base_id + len(table)``.  The parse works on copies of the
        index and of the window, so no numpy view pins the mapping:
        :meth:`close` stays possible, even while a traceback of this frame
        is alive.
        """
        header = self._header
        index = np.array(self._offsets(), dtype=np.uint64)
        if (index[1:] < index[:-1]).any() or int(index[-1]) > header.payload_size:
            return None
        limit = self.table.base_id + len(self.table)
        bounds = index.view(np.int64)
        first = int(bounds[0])
        bounds -= first
        begin = header.payload_offset + first
        window = bytes(self._buf[begin : begin + int(bounds[-1])])
        try:
            values, offsets = _VARINT.decode_runs(window, bounds)
        except CorruptDataError:
            return None
        if values and np.frombuffer(values, dtype=np.int64).max() >= limit:
            return None
        return FlatCorpus(values, offsets)

    def to_store(self):
        """Materialize a fully in-memory :class:`CompressedPathStore` copy."""
        from repro.core.store import CompressedPathStore

        return CompressedPathStore.from_tokens(self.table, self.tokens(), order=self.order)

    def __repr__(self) -> str:
        return (
            f"MappedPathStore(name={self.name!r}, paths={len(self)}, "
            f"bytes={self.mapped_bytes})"
        )
