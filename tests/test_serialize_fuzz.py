"""Corruption-robustness tests for the archive format.

An archive that decodes corrupted bytes into *wrong paths* is worse than one
that refuses: the applications built on it (anomaly blast-radius queries)
would silently act on fabricated routes.  The CRC32 in the store blob makes
the guarantee absolute; these tests earn it:

* every single-byte flip anywhere in a store blob raises
  :class:`CorruptDataError` — never a wrong answer, never a stray
  exception type;
* truncation at every length raises cleanly;
* random garbage raises cleanly.

The v2 mapped format trades the up-front whole-file CRC for lazy,
per-section validation (open = header only), so its contract is staged:
truncation at *every* offset is still caught at open (the header declares
the exact file size), header flips are caught by the header CRC,
table/index flips by the metadata CRC on first table access — and
payload reads, which are deliberately not checksummed, must never fail
with anything but :class:`CorruptDataError` or return out-of-range
symbols.  Decoder bounds errors are :class:`TruncatedDataError`, which
subclasses both :class:`CorruptDataError` and :class:`BoundsError`
(``IndexError``) and carries the byte offset.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OFFSConfig
from repro.core.errors import BoundsError, CorruptDataError, TruncatedDataError
from repro.core.offs import OFFSCodec
from repro.core.serialize import (
    STORE_V2_HEADER_SIZE,
    dumps_store,
    dumps_store_v2,
    loads_store,
    loads_store_v2,
    loads_table,
)
from repro.core.store import CompressedPathStore
from repro.paths.dataset import PathDataset
from repro.paths.encoding import read_varint


@pytest.fixture(scope="module")
def seed_store() -> CompressedPathStore:
    ds = PathDataset([[1, 2, 3, 4, 5]] * 12 + [[9, 2, 3, 4]] * 6)
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
    return CompressedPathStore.from_codec(ds, codec)


@pytest.fixture(scope="module")
def blob(seed_store) -> bytes:
    return dumps_store(seed_store)


@pytest.fixture(scope="module")
def blob_v2(seed_store) -> bytes:
    return dumps_store_v2(seed_store)


class TestByteFlips:
    def test_every_single_byte_flip_is_detected(self, blob):
        for position in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[position] ^= 0xFF
            with pytest.raises(CorruptDataError):
                loads_store(bytes(corrupted))

    def test_every_single_bit_flip_in_header_is_detected(self, blob):
        for position in range(9):  # magic + version + crc
            for bit in range(8):
                corrupted = bytearray(blob)
                corrupted[position] ^= 1 << bit
                with pytest.raises(CorruptDataError):
                    loads_store(bytes(corrupted))


class TestTruncation:
    def test_every_truncation_is_detected(self, blob):
        for length in range(len(blob)):
            with pytest.raises(CorruptDataError):
                loads_store(blob[:length])


class TestGarbage:
    @settings(max_examples=50)
    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash_unexpectedly(self, data):
        try:
            loads_store(data)
        except CorruptDataError:
            pass  # the only acceptable failure mode

    @settings(max_examples=50)
    @given(st.binary(max_size=200))
    def test_table_loader_rejects_garbage_cleanly(self, data):
        try:
            loads_table(data)
        except CorruptDataError:
            pass

    def test_shuffled_blob_detected(self, blob):
        rng = random.Random(0)
        shuffled = bytearray(blob)
        body = list(shuffled[9:])
        rng.shuffle(body)
        shuffled[9:] = bytes(body)
        with pytest.raises(CorruptDataError):
            loads_store(bytes(shuffled))


class TestIntactBlobStillLoads:
    def test_control(self, blob):
        store = loads_store(blob)
        assert len(store) == 18


class TestV2Truncation:
    def test_every_truncation_is_detected_at_open(self, blob_v2):
        # The header declares the exact file size, so any truncation is
        # caught at open time, before a single token is parsed.
        for length in range(len(blob_v2)):
            with pytest.raises(CorruptDataError):
                loads_store_v2(blob_v2[:length])

    def test_truncation_is_also_a_bounds_error(self, blob_v2):
        # The satellite contract: decoders running off a buffer raise
        # BoundsError (an IndexError) with the byte offset, while staying
        # catchable as CorruptDataError for archive-corruption handlers.
        for length in (0, 1, STORE_V2_HEADER_SIZE - 1, len(blob_v2) - 1):
            with pytest.raises(TruncatedDataError) as exc_info:
                loads_store_v2(blob_v2[:length])
            assert isinstance(exc_info.value, BoundsError)
            assert isinstance(exc_info.value, IndexError)
            assert "byte" in str(exc_info.value) or "bytes" in str(exc_info.value)

    def test_extra_trailing_bytes_detected(self, blob_v2):
        with pytest.raises(CorruptDataError):
            loads_store_v2(blob_v2 + b"\x00")


class TestV2HeaderCorruption:
    def test_every_header_byte_flip_is_detected_at_open(self, blob_v2):
        for position in range(STORE_V2_HEADER_SIZE):
            corrupted = bytearray(blob_v2)
            corrupted[position] ^= 0xFF
            with pytest.raises(CorruptDataError):
                loads_store_v2(bytes(corrupted))


class TestV2MetaCorruption:
    def test_every_table_and_index_flip_is_detected(self, blob_v2, seed_store):
        # Table + index are covered by meta_crc, verified lazily on first
        # table access — flips there must surface before any path does.
        header = loads_store_v2(blob_v2)._header
        for position in range(header.table_offset, header.payload_offset):
            corrupted = loads_store_v2(
                bytes(blob_v2[:position])
                + bytes([blob_v2[position] ^ 0xFF])
                + bytes(blob_v2[position + 1 :])
            )
            with pytest.raises(CorruptDataError):
                _ = corrupted.table

    def test_payload_flips_never_escape_the_error_contract(self, blob_v2):
        # The payload is deliberately unchecksummed (zero-copy serving);
        # a flip there must either decode (varints are dense) or raise
        # CorruptDataError — never any other exception type.
        header = loads_store_v2(blob_v2)._header
        n = len(loads_store_v2(blob_v2))
        for position in range(header.payload_offset, header.total_size):
            corrupted = loads_store_v2(
                bytes(blob_v2[:position])
                + bytes([blob_v2[position] ^ 0xFF])
                + bytes(blob_v2[position + 1 :])
            )
            for pid in range(n):
                try:
                    corrupted.retrieve(pid)
                except CorruptDataError:
                    pass  # the only acceptable failure mode
            try:
                corrupted.retrieve_all()  # the bulk parse, same contract
            except CorruptDataError:
                pass


class TestV2Garbage:
    @settings(max_examples=50)
    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash_unexpectedly(self, data):
        try:
            loads_store_v2(data)
        except CorruptDataError:
            pass  # the only acceptable failure mode


class TestVarintBounds:
    def test_negative_position_does_not_wrap(self):
        with pytest.raises(TruncatedDataError) as exc_info:
            read_varint(b"\x01\x02\x03", -1)
        assert "-1" in str(exc_info.value)

    def test_position_past_end_reports_offset(self):
        with pytest.raises(TruncatedDataError) as exc_info:
            read_varint(b"\x01", 5)
        assert "5" in str(exc_info.value)

    def test_truncated_continuation_reports_start_offset(self):
        with pytest.raises(TruncatedDataError) as exc_info:
            read_varint(b"\x00\x80", 1)  # continuation bit set, no next byte
        assert "1" in str(exc_info.value)

    def test_overlong_varint_is_corrupt_not_bounds(self):
        blob = b"\x80" * 10 + b"\x01"
        with pytest.raises(CorruptDataError) as exc_info:
            read_varint(blob, 0)
        assert not isinstance(exc_info.value, BoundsError)


class TestV2IntactBlobStillLoads:
    def test_control_matches_v1(self, blob, blob_v2):
        v1 = loads_store(blob)
        v2 = loads_store_v2(blob_v2)
        assert len(v2) == len(v1) == 18
        assert v2.tokens() == v1.tokens()
        assert v2.retrieve_all() == v1.retrieve_all()
