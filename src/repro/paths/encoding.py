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

This module owns the varint byte layout: :meth:`VarintEncoding.encode` is
the one writer, :meth:`VarintEncoding.decode` reads a whole stream, and
:func:`read_varint` is the checked scalar reader of the archive parsers
(tables, v1 stores, order bodies, LZ77 streams).  Only the mapped store's
per-token loop and its numpy bulk parse (:mod:`repro.core.mapped`) read
varints on their own, for speed.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Sequence, Tuple, Union

from repro.core.errors import CorruptDataError, TruncatedDataError


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

    def __repr__(self) -> str:
        return "VarintEncoding()"


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
