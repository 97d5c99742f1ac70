"""Integer stream encodings for byte-accurate size accounting.

The paper measures compression ratio in bytes, treating each vertex id as a
32-bit integer ("a sequence of eight vertices is stored as 256 consecutive
bits", Section II-C).  Two encodings are provided:

* :class:`FixedWidthEncoding` — every id costs a fixed number of bytes
  (default 4).  This is the paper's size model and the default everywhere.
* :class:`VarintEncoding` — LEB128-style variable-length encoding, the common
  practical choice; it rewards small ids, which matters once supernode ids
  are allocated above the vertex-id range.

Both encodings are exact codecs: :func:`encode_stream` produces bytes that
:func:`decode_stream` restores losslessly, so "size in bytes" is always the
length of a real byte string, never an estimate.

This module owns the varint byte layout, in both directions and at both
grains:

* scalar — :meth:`VarintEncoding.encode` writes a stream value by value,
  :meth:`VarintEncoding.decode` reads a whole stream, and
  :func:`read_varint` is the checked one-value reader of the archive
  parsers (tables, v1 stores, order bodies, LZ77 streams);
* bulk — :meth:`VarintEncoding.encode_runs` writes many runs of integers
  in vectorized passes (every archive payload, index, table and dataset
  is written through it), and :meth:`VarintEncoding.decode_runs`, its
  inverse, parses a payload back into one flat buffer (the mapped store's
  bulk decode).

Only the mapped store's per-token loop (:meth:`MappedPathStore.token
<repro.core.mapped.MappedPathStore.token>`) still reads varints on its
own, because a call per symbol would dominate point reads.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import CorruptDataError, TruncatedDataError

#: Bytes in the longest varint the bulk pair handles: 9 × 7 = 63 bits
#: always fit a non-negative int64.
_BULK_VARINT_BYTES = 9

#: Symbols per block of the bulk writer.  Its numpy temporaries take about
#: 50 bytes a symbol, so at 8K symbols its peak memory stays near the
#: scalar writer's, whatever the size of the archive.
_WRITE_BLOCK_SYMBOLS = 1 << 13

#: Payload bytes per block of the bulk reader.  Its numpy temporaries take
#: about 40 bytes a payload byte, so its peak memory beyond the decoded
#: values stays near 1.3 MB, whatever the size of the archive.
_READ_BLOCK_BYTES = 1 << 15


class FixedWidthEncoding:
    """Fixed-width little-endian unsigned integer encoding.

    :param width: bytes per integer (1, 2, 4 or 8).
    """

    _FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}

    def __init__(self, width: int = 4) -> None:
        if width not in self._FORMATS:
            raise ValueError(f"width must be one of {sorted(self._FORMATS)}, got {width}")
        self.width = width
        self._fmt = self._FORMATS[width]
        self._max = (1 << (8 * width)) - 1

    def size_of(self, values: Sequence[int]) -> int:
        """Byte size of *values* under this encoding, without materializing."""
        return self.width * len(values)

    def size_of_value(self, value: int) -> int:
        """Byte size of a single value (constant for fixed width)."""
        return self.width

    def encode(self, values: Iterable[int]) -> bytes:
        out = bytearray()
        pack = struct.pack
        fmt = self._fmt
        for v in values:
            if v < 0 or v > self._max:
                raise ValueError(f"value {v} out of range for {self.width}-byte encoding")
            out += pack(fmt, v)
        return bytes(out)

    def decode(self, data: bytes) -> List[int]:
        if len(data) % self.width:
            raise ValueError("byte length is not a multiple of the encoding width")
        unpack = struct.unpack_from
        fmt = self._fmt
        return [unpack(fmt, data, off)[0] for off in range(0, len(data), self.width)]

    def __repr__(self) -> str:
        return f"FixedWidthEncoding(width={self.width})"


class VarintEncoding:
    """Unsigned LEB128 variable-length encoding (7 payload bits per byte)."""

    def size_of_value(self, value: int) -> int:
        """Byte size of one value: 1 byte per started 7-bit group."""
        if value < 0:
            raise ValueError("varint encoding requires non-negative integers")
        size = 1
        value >>= 7
        while value:
            size += 1
            value >>= 7
        return size

    def size_of(self, values: Sequence[int]) -> int:
        return sum(self.size_of_value(v) for v in values)

    def encode(self, values: Iterable[int]) -> bytes:
        out = bytearray()
        for v in values:
            if v < 0:
                raise ValueError("varint encoding requires non-negative integers")
            while True:
                byte = v & 0x7F
                v >>= 7
                if v:
                    out.append(byte | 0x80)
                else:
                    out.append(byte)
                    break
        return bytes(out)

    def decode(self, data: bytes) -> List[int]:
        """Decode a whole varint stream.

        A stream that ends inside a varint raises :class:`TruncatedDataError`
        and a varint longer than 64 bits :class:`CorruptDataError`, each
        naming the varint's byte offset (both subclass ``ValueError``).
        """
        values: List[int] = []
        value = 0
        shift = 0
        start = 0
        for pos, byte in enumerate(data):
            value |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
                if shift > 63:
                    raise CorruptDataError(
                        f"varint too long at byte offset {start} (corrupt stream)"
                    )
            else:
                values.append(value)
                value = 0
                shift = 0
                start = pos + 1
        if shift:
            raise TruncatedDataError(
                f"truncated varint at byte offset {start} "
                f"(stream ends at {len(data)})"
            )
        return values

    def encode_runs(
        self, runs: Iterable[Sequence[int]], prefixed: bool = False
    ) -> Tuple[bytes, array]:
        """Encode every run of *runs* back to back; returns ``(payload, ends)``.

        ``ends`` is an ``array('q')`` of ``len(runs) + 1`` byte offsets
        from 0 to ``len(payload)``: run *i* occupies
        ``payload[ends[i]:ends[i + 1]]``.  With *prefixed* each run is
        preceded by the varint of its length, the layout of v1 stores,
        tables and path datasets; without it the runs are bare and
        ``ends`` delimits them, the layout of the v2 payload.

        The bytes are those :meth:`encode` writes for the same integers in
        the same order.  They are computed in vectorized passes
        over blocks of about 8K symbols.  When any value
        is not an integer in ``[0, 2**63)``, the scalar loop writes them
        instead, so a larger value gets the same bytes and a bad one raises
        :meth:`encode`'s error (``ValueError`` for a negative,
        ``TypeError`` for a non-integer).
        """
        runs = list(runs)
        encoded = _bulk_encode_runs(runs, prefixed)
        if encoded is None:
            payload = bytearray()
            ends = array("q", [0])
            for run in runs:
                if prefixed:
                    payload += self.encode((len(run),))
                payload += self.encode(run)
                ends.append(len(payload))
            encoded = bytes(payload), ends
        return encoded

    def decode_runs(self, data, ends: Sequence[int]) -> Tuple[array, array]:
        """Parse the bare runs :meth:`encode_runs` wrote; the inverse pair.

        *data* is the payload and *ends* its ``len(runs) + 1`` byte
        offsets, monotone from 0 to ``len(data)``.  Returns
        ``(values, offsets)``, two ``array('q')`` in the
        :class:`~repro.core.flatcorpus.FlatCorpus` layout: run *i* is
        ``values[offsets[i]:offsets[i + 1]]``.

        Raises :class:`CorruptDataError` when a non-empty run's last byte
        continues a varint (so a varint would run into the next run or off
        the payload) and when a varint is longer than 9 bytes, which only a
        value of ``2**63`` or more, or a padded encoding, needs; each
        message names a byte offset into *data*.  The parse is vectorized
        over blocks of whole runs.
        """
        return _bulk_decode_runs(data, ends)

    def __repr__(self) -> str:
        return "VarintEncoding()"


def _bulk_encode_runs(runs: List[Sequence[int]], prefixed: bool) -> Optional[Tuple[bytes, array]]:
    """:meth:`VarintEncoding.encode_runs` in numpy, or ``None`` for the scalar loop.

    The runs are encoded in blocks of whole runs of about
    :data:`_WRITE_BLOCK_SYMBOLS` symbols; a run longer than that is a
    block of its own.
    """
    lengths = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
    firsts = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=firsts[1:])
    pieces = []
    ends = array("q", [0])
    written = 0
    start = 0
    while start < len(runs):
        limit = firsts[start] + _WRITE_BLOCK_SYMBOLS
        stop = max(start + 1, bisect_right(firsts, limit, start + 1, len(runs) + 1) - 1)
        block = _bulk_encode_block(runs[start:stop], lengths[start:stop], prefixed)
        if block is None:
            return None
        payload, run_ends = block
        pieces.append(payload)
        ends.frombytes((run_ends + written).tobytes())
        written += len(payload)
        start = stop
    return b"".join(pieces), ends


def _bulk_encode_block(runs, lengths, prefixed: bool):
    """One block's ``(payload, byte end of each run)``, or ``None``.

    The runs are flattened into an ``array('q')``, whose ``fromlist``
    rejects non-integers and values past int64 without truncating them
    (``np.fromiter`` would turn 1.5 into 1).  Each value's byte count is
    one plus its nonzero 7-bit shifts; their ``cumsum`` places every
    varint, and one masked scatter per 7-bit group writes the bytes.
    """
    flat = array("q")
    try:
        flat.fromlist(list(chain.from_iterable(runs)))
    except (TypeError, OverflowError):
        return None
    values = np.frombuffer(flat, dtype=np.int64)
    if values.size and values.min() < 0:
        return None
    run_ends = np.cumsum(lengths)
    if prefixed:
        heads = run_ends - lengths + np.arange(len(runs))
        merged = np.empty(values.size + len(runs), dtype=np.int64)
        body = np.ones(merged.size, dtype=bool)
        body[heads] = False
        merged[heads] = lengths
        merged[body] = values
        values = merged
        run_ends += np.arange(1, len(runs) + 1)
    sizes = np.ones(values.size, dtype=np.uint8)
    rest = values >> 7
    while rest.any():
        sizes += rest != 0
        rest >>= 7
    byte_ends = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=byte_ends[1:])
    del sizes, rest
    payload = np.empty(int(byte_ends[-1]), dtype=np.uint8)
    where = byte_ends[:-1]
    rest = values
    while where.size:
        group = (rest & 0x7F).astype(np.uint8)
        more = rest > 0x7F
        group[more] |= 0x80
        payload[where] = group
        where = where[more]
        where += 1
        rest = rest[more]
        rest >>= 7
    return payload.tobytes(), byte_ends[run_ends]


def _bulk_decode_runs(data, ends: Sequence[int]) -> Tuple[array, array]:
    """:meth:`VarintEncoding.decode_runs` in numpy.

    Like the writer, it works on blocks of whole runs, here of about
    :data:`_READ_BLOCK_BYTES` payload bytes (a run longer than that is a
    block of its own), so its temporaries stay bounded whatever the size
    of the payload.  Every run end is checked before any block is parsed,
    so an unterminated run anywhere is reported ahead of an overlong
    varint, as a single pass over the payload would.
    """
    data = np.frombuffer(data, dtype=np.uint8)
    bounds = np.asarray(ends, dtype=np.int64)
    runs = len(bounds) - 1
    # The run ends are checked in slices of as many runs as a block has
    # bytes, which bounds those temporaries the same way.
    for first in range(0, runs, _READ_BLOCK_BYTES):
        last = min(first + _READ_BLOCK_BYTES, runs)
        highs = bounds[first + 1 : last + 1]
        filled = highs > bounds[first:last]
        unterminated = data[highs[filled] - 1] >= 0x80
        if unterminated.any():
            run = first + int(np.flatnonzero(filled)[unterminated.argmax()])
            raise _unterminated_run(run, int(bounds[run + 1]))
    values = array("q")
    offsets = array("q")
    run = 0
    while run < runs:
        begin = int(bounds[run])
        stop = int(np.searchsorted(bounds, begin + _READ_BLOCK_BYTES, side="right")) - 1
        stop = max(run + 1, stop)
        block = data[begin : int(bounds[stop])]
        stops = np.flatnonzero(block < 0x80)
        firsts = np.searchsorted(stops, bounds[run:stop] - begin) + len(values)
        offsets.frombytes(firsts.astype(np.int64, copy=False).tobytes())
        if stops.size:
            values.frombytes(_decode_block(block, stops, begin))
        run = stop
    offsets.append(len(values))
    return values, offsets


def _decode_block(block, stops, at: int) -> bytes:
    """The int64 bytes of the varints in *block*, which ends at ``stops[-1]``.

    *stops* holds the position of every terminator in *block* (payload
    bytes from offset *at*).  Each value is the sum (``np.add.reduceat``)
    of its varint's 7-bit groups shifted into place.
    """
    starts = np.zeros(stops.size, dtype=np.int64)
    starts[1:] = stops[:-1] + 1
    sizes = stops - starts + 1
    overlong = sizes > _BULK_VARINT_BYTES
    if overlong.any():
        raise _overlong_varint(at + int(starts[overlong.argmax()]))
    place = np.arange(block.size, dtype=np.int64) - np.repeat(starts, sizes)
    groups = (block & 0x7F).astype(np.int64) << (7 * place)
    return np.add.reduceat(groups, starts).tobytes()


def _unterminated_run(run: int, end: int) -> CorruptDataError:
    return CorruptDataError(
        f"run {run} ends inside a varint at byte offset {end} (corrupt stream)"
    )


def _overlong_varint(start: int) -> CorruptDataError:
    return CorruptDataError(
        f"varint longer than {_BULK_VARINT_BYTES} bytes at byte offset {start} "
        "(past the 63-bit bulk range)"
    )


def read_varint(data, pos: int) -> Tuple[int, int]:
    """Decode one varint at *pos*; returns ``(value, new_pos)``.

    Bounds are validated on every byte: a read past the end *or before the
    start* of the buffer raises :class:`TruncatedDataError` carrying the
    byte offset (a negative *pos* must never silently wrap to the buffer's
    tail the way raw ``data[pos]`` indexing would), and a varint longer
    than 64 bits raises :class:`CorruptDataError` with its offset.
    """
    size = len(data)
    if pos < 0 or pos > size:
        raise TruncatedDataError(
            f"varint read at byte offset {pos} outside buffer of {size} bytes"
        )
    value = 0
    shift = 0
    start = pos
    while True:
        if pos >= size:
            raise TruncatedDataError(
                f"truncated varint at byte offset {start} "
                f"(buffer ends at {size})"
            )
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CorruptDataError(
                f"varint too long at byte offset {start} (corrupt stream)"
            )


Encoding = Union[FixedWidthEncoding, VarintEncoding]

#: The paper's size model: one 32-bit integer per vertex id.
DEFAULT_ENCODING = FixedWidthEncoding(4)


def encode_stream(values: Sequence[int], encoding: Encoding = DEFAULT_ENCODING) -> bytes:
    """Encode an integer sequence to bytes with *encoding*."""
    return encoding.encode(values)


def decode_stream(data: bytes, encoding: Encoding = DEFAULT_ENCODING) -> List[int]:
    """Decode bytes produced by :func:`encode_stream` back to integers."""
    return encoding.decode(data)
