"""A from-scratch LZ77 codec with preset-dictionary support.

This is the byte-level substrate for the Dlz4 baseline (Section II-C of the
paper): paths are reinterpreted as byte arrays and compressed per block with
the help of a shared dictionary.  The design follows lz4's:

* greedy parsing with hash-chain match search over 4-byte anchors;
* tokens are ``(literal run, back-reference)`` pairs — no entropy coder, so
  compression and decompression stay cheap ("lightweight");
* a *preset dictionary* is virtually prepended to the input: matches may
  reach back into it, which is what makes tiny blocks (single paths)
  compressible at all.

Wire format (all varints are unsigned LEB128)::

    repeat:
        varint  literal_length
        bytes   literals
        -- end of stream may fall here, after the literals --
        varint  offset        distance back from the current position,
                              counted across dictionary + output so far (>= 1)
        varint  extra_length  match length minus MIN_MATCH (4)

Lossless by construction; the property-based tests round-trip random byte
strings and random dictionaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.paths.encoding import VarintEncoding, read_varint

MIN_MATCH = 4
_MAX_CHAIN = 32  # positions probed per anchor; bounds worst-case search cost
_HASH_BYTES = 4
_VARINT = VarintEncoding()


def lz77_compress(data: bytes, zdict: bytes = b"") -> bytes:
    """Compress *data*, allowing matches into the preset dictionary *zdict*.

    Returns the token stream described in the module docstring.  The same
    *zdict* must be supplied to :func:`lz77_decompress`.
    """
    buf = zdict + data
    start = len(zdict)
    n = len(buf)
    out = bytearray()

    # Hash chains over 4-byte anchors; dictionary positions are indexed up
    # front so early input bytes can match into it.
    chains: Dict[bytes, List[int]] = {}
    for i in range(0, max(0, start - _HASH_BYTES + 1)):
        key = buf[i : i + _HASH_BYTES]
        chains.setdefault(key, []).append(i)

    pos = start
    literal_start = pos

    def flush_literals(up_to: int, match: Optional["tuple[int, int]"]) -> None:
        literals = buf[literal_start:up_to]
        out.extend(_VARINT.encode((len(literals),)))
        out.extend(literals)
        if match is not None:
            offset, length = match
            out.extend(_VARINT.encode((offset, length - MIN_MATCH)))

    while pos < n:
        match = None
        if pos + MIN_MATCH <= n:
            key = buf[pos : pos + _HASH_BYTES]
            candidates = chains.get(key)
            if candidates:
                best_len = 0
                best_pos = -1
                # Probe newest-first: recent positions give small offsets.
                for cand in reversed(candidates[-_MAX_CHAIN:]):
                    length = _HASH_BYTES
                    limit = n - pos
                    while (
                        length < limit
                        and buf[cand + length] == buf[pos + length]
                    ):
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_pos = cand
                        if length == limit:
                            break
                if best_len >= MIN_MATCH:
                    match = (pos - best_pos, best_len)
        if match is None:
            # Extend the pending literal run.
            if pos + _HASH_BYTES <= n:
                chains.setdefault(buf[pos : pos + _HASH_BYTES], []).append(pos)
            pos += 1
            continue
        flush_literals(pos, match)
        offset, length = match
        # Index the positions the match covers so later data can reference it.
        end = pos + length
        for i in range(pos, min(end, n - _HASH_BYTES + 1)):
            chains.setdefault(buf[i : i + _HASH_BYTES], []).append(i)
        pos = end
        literal_start = pos

    if literal_start < n or not out:
        flush_literals(n, None)
    return bytes(out)


def lz77_decompress(blob: bytes, zdict: bytes = b"") -> bytes:
    """Restore the bytes compressed by :func:`lz77_compress`.

    Raises :class:`ValueError` on any malformed stream (truncation, offsets
    reaching before the dictionary, zero offsets); a damaged varint raises
    :class:`~repro.core.errors.CorruptDataError`, a ``ValueError`` that
    carries its byte offset.
    """
    out = bytearray(zdict)
    start = len(zdict)
    pos = 0
    n = len(blob)
    while pos < n:
        lit_len, pos = read_varint(blob, pos)
        if pos + lit_len > n:
            raise ValueError("truncated literal run in LZ77 stream")
        out += blob[pos : pos + lit_len]
        pos += lit_len
        if pos >= n:
            break
        offset, pos = read_varint(blob, pos)
        extra, pos = read_varint(blob, pos)
        length = extra + MIN_MATCH
        src = len(out) - offset
        if offset < 1 or src < 0:
            raise ValueError(f"invalid back-reference offset {offset}")
        # Overlapping copies (offset < length) must proceed byte by byte.
        for _ in range(length):
            out.append(out[src])
            src += 1
    return bytes(out[start:])
