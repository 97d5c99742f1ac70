"""The bulk payload parse and the flat restore answer exactly like the scalar loop.

:meth:`MappedPathStore.token_corpus` parses the whole v2 payload in bulk
and only accepts what :meth:`MappedPathStore.token` would return unchanged;
anything else falls back to that per-token loop, which raises the typed
error with its byte offset.  So, for every input here — clean, bit-flipped
or hand-crafted, on a plain v2 buffer and inside a sharded store —
``tokens()`` / ``retrieve_all()`` must equal the per-id ``token()`` /
``retrieve()`` results, or raise the same exception type with the same
message.  The order restore is held to the same answers.
"""

import struct
import zlib
from itertools import accumulate

import pytest

from repro.core.config import OFFSConfig
from repro.core.errors import CorruptDataError, InvalidInputError
from repro.core.mapped import MappedPathStore
from repro.core.offs import OFFSCodec
from repro.core.serialize import (
    STORE_V2_HEADER,
    STORE_V2_HEADER_SIZE,
    STORE_V2_MAGIC,
    STORE_V2_VERSION,
    dumps_store_v2,
    dumps_store_v2_tokens,
    dumps_table,
)
from repro.core.sharded import ShardedPathStore, ShardInfo, ShardManifest
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.paths.dataset import PathDataset
from repro.paths.encoding import VarintEncoding
from repro.paths.reorder import VertexOrder

#: The corpus of the serialization fuzz suite (tests/test_serialize_fuzz.py).
FUZZ_PATHS = [[1, 2, 3, 4, 5]] * 12 + [[9, 2, 3, 4]] * 6

MASKS = (0xFF, 0x80, 0x7F, 0x01)

_VARINT = VarintEncoding()


def _varint(value: int) -> bytes:
    return _VARINT.encode([value])


@pytest.fixture(scope="module")
def fuzz_store() -> CompressedPathStore:
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
    return CompressedPathStore.from_codec(PathDataset(FUZZ_PATHS), codec)


@pytest.fixture(scope="module")
def table(fuzz_store) -> SupernodeTable:
    return fuzz_store.table


def _raw_blob(table, payload: bytes, offsets) -> bytes:
    """A v2 blob over a hand-made *payload* and offset index (valid CRCs)."""
    table_blob = dumps_table(table)
    index = struct.pack(f"<{len(offsets)}Q", *offsets)
    index_offset = STORE_V2_HEADER_SIZE + len(table_blob)
    header = STORE_V2_HEADER.pack(
        STORE_V2_MAGIC, STORE_V2_VERSION, 0, len(offsets) - 1,
        STORE_V2_HEADER_SIZE, len(table_blob), index_offset,
        index_offset + len(index), len(payload),
        zlib.crc32(table_blob + index), 0,
    )
    header = header[:-4] + struct.pack("<I", zlib.crc32(header[:-4]))
    return header + table_blob + index + payload


def _token_blob(table, token_bytes) -> bytes:
    """A v2 blob whose tokens are the given raw byte strings."""
    return _raw_blob(table, b"".join(token_bytes), [0, *accumulate(map(len, token_bytes))])


def _sharded(directory, table, blobs) -> ShardedPathStore:
    """A range-sharded store with one shard file per v2 blob."""
    crc = zlib.crc32(dumps_table(table))
    infos = []
    start = 0
    for index, blob in enumerate(blobs):
        name = f"crafted.shard-{index:05d}.rpc2"
        (directory / name).write_bytes(blob)
        count = len(MappedPathStore(blob))
        infos.append(ShardInfo(name, start, count, crc))
        start += count
    return ShardedPathStore(ShardManifest(infos), str(directory))


def _outcome(call):
    """What *call* returns, or the type and message of what it raises."""
    try:
        return "ok", call()
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


def _assert_parity(store) -> None:
    """Bulk and per-id routes give the same tokens/paths or the same error."""
    n = len(store)
    per_token = _outcome(lambda: [store.token(i) for i in range(n)])
    assert _outcome(store.tokens) == per_token
    assert _outcome(lambda: store.token_corpus().to_paths()) == per_token
    per_path = _outcome(lambda: [store.retrieve(i) for i in range(n)])
    assert _outcome(store.retrieve_all) == per_path
    assert _outcome(lambda: store.retrieve_batch(range(n))) == per_path


def _flipped(blob: bytes, position: int, mask: int) -> bytes:
    return blob[:position] + bytes([blob[position] ^ mask]) + blob[position + 1 :]


class TestHelper:
    def test_raw_blob_matches_the_writer(self, fuzz_store, table):
        tokens = fuzz_store.tokens()
        assert _token_blob(table, [_VARINT.encode(t) for t in tokens]) == dumps_store_v2(
            fuzz_store
        )


class TestFlipParity:
    def test_every_payload_flip_mapped(self, fuzz_store):
        blob = dumps_store_v2(fuzz_store)
        header = MappedPathStore(blob)._header
        outcomes = set()
        for mask in MASKS:
            for position in range(header.payload_offset, header.total_size):
                store = MappedPathStore(_flipped(blob, position, mask))
                _assert_parity(store)
                outcomes.add(_outcome(store.tokens)[0])
        # Both sides of the contract are exercised, not only one.
        assert "ok" in outcomes and len(outcomes) > 1

    @pytest.mark.parametrize("mask", MASKS, ids=lambda m: f"xor{m:02x}")
    def test_every_payload_flip_sharded(self, fuzz_store, table, tmp_path, mask):
        tokens = fuzz_store.tokens()
        blobs = [
            dumps_store_v2_tokens(table, tokens[:7]),
            dumps_store_v2_tokens(table, tokens[7:]),
        ]
        for shard, blob in enumerate(blobs):
            header = MappedPathStore(blob)._header
            for position in range(header.payload_offset, header.total_size):
                corrupted = list(blobs)
                corrupted[shard] = _flipped(blob, position, mask)
                store = _sharded(tmp_path, table, corrupted)
                try:
                    _assert_parity(store)
                finally:
                    store.close()


def _crafted_cases(limit: int):
    """Raw token byte strings, by case name."""
    return {
        # 10 bytes, value 1: non-canonical, but the scalar loop accepts it.
        "ten-byte-varint": [b"\x01", b"\x81" + b"\x80" * 8 + b"\x00", b"\x02"],
        # 10 bytes whose last group sets bit 63: past any table's limit.
        "ten-byte-varint-bit-63": [b"\x01", b"\x81" + b"\x80" * 8 + b"\x01"],
        "eleven-byte-varint": [b"\x01", b"\x81" + b"\x80" * 9 + b"\x00"],
        "overrun-middle-token": [b"\x01", b"\x02\x81", b"\x03"],
        "overrun-last-token": [b"\x01", b"\x02\x81"],
        "value-at-limit": [b"\x01", _varint(limit), b"\x02"],
        "value-below-limit": [b"\x01", _varint(limit - 1), b"\x02"],
        "empty-tokens": [b"", b"\x01\x02", b"", b""],
        "only-empty-tokens": [b"", b""],
        "zero-paths": [],
    }


CRAFTED = list(_crafted_cases(1))


def _crafted_index_cases(table):
    """Blobs whose (CRC-valid) offset index itself is wrong."""
    payload = b"\x01\x02\x03\x04"
    return {
        "index-not-monotone": _raw_blob(table, payload, [0, 3, 2, 4]),
        "index-past-payload": _raw_blob(table, payload, [0, 2, 5]),
        "index-beyond-int64": _raw_blob(table, payload, [0, 2**64 - 1, 4]),
        "index-window-offset": _raw_blob(table, payload, [1, 3, 4]),
    }


INDEX_CASES = ["index-not-monotone", "index-past-payload", "index-beyond-int64",
               "index-window-offset"]


class TestCraftedParity:
    @pytest.mark.parametrize("case", CRAFTED)
    def test_mapped(self, table, case):
        limit = table.base_id + len(table)
        _assert_parity(MappedPathStore(_token_blob(table, _crafted_cases(limit)[case])))

    @pytest.mark.parametrize("case", CRAFTED)
    def test_sharded(self, table, tmp_path, case):
        limit = table.base_id + len(table)
        blob = _token_blob(table, _crafted_cases(limit)[case])
        store = _sharded(tmp_path, table, [dumps_store_v2_tokens(table, [(1, 2)]), blob])
        try:
            _assert_parity(store)
        finally:
            store.close()

    @pytest.mark.parametrize("case", INDEX_CASES)
    def test_bad_index(self, table, tmp_path, case):
        blob = _crafted_index_cases(table)[case]
        _assert_parity(MappedPathStore(blob))
        store = _sharded(tmp_path, table, [blob])
        try:
            _assert_parity(store)
        finally:
            store.close()

    def test_cases_cover_both_outcomes(self, table):
        limit = table.base_id + len(table)
        cases = _crafted_cases(limit)
        kinds = {
            case: _outcome(MappedPathStore(_token_blob(table, cases[case])).tokens)[0]
            for case in cases
        }
        assert kinds["ten-byte-varint"] == "ok"
        assert kinds["value-below-limit"] == "ok"
        assert kinds["zero-paths"] == "ok"
        assert kinds["eleven-byte-varint"] is CorruptDataError
        assert kinds["ten-byte-varint-bit-63"] is CorruptDataError
        assert kinds["value-at-limit"] is CorruptDataError
        assert issubclass(kinds["overrun-last-token"], CorruptDataError)


class TestRoutes:
    def test_clean_payload_takes_the_bulk_parse(self, fuzz_store, monkeypatch):
        store = MappedPathStore(dumps_store_v2(fuzz_store))
        calls = []
        scalar = MappedPathStore.token

        def spy(self, path_id):
            calls.append(path_id)
            return scalar(self, path_id)

        monkeypatch.setattr(MappedPathStore, "token", spy)
        assert store.tokens() == fuzz_store.tokens()
        assert calls == []
        # A failed check hands the whole parse to the scalar loop.
        ten_byte = _token_blob(store.table, [b"\x01", b"\x81" + b"\x80" * 8 + b"\x00"])
        assert MappedPathStore(ten_byte).tokens() == [(1,), (1,)]
        assert calls == [0, 1]

    def test_close_after_a_raising_bulk_parse(self, fuzz_store, tmp_path):
        blob = dumps_store_v2(fuzz_store)
        header = MappedPathStore(blob)._header
        limit = fuzz_store.table.base_id + len(fuzz_store.table)
        # A payload byte past the table's limit, and a table byte that
        # fails the metadata CRC inside the bulk parse itself.
        cases = [
            blob[: header.payload_offset] + _varint(limit) + blob[header.payload_offset + 1 :],
            _flipped(blob, header.table_offset, 0xFF),
        ]
        for number, corrupted in enumerate(cases):
            path = tmp_path / f"corrupt-{number}.rpc2"
            path.write_bytes(corrupted)
            store = MappedPathStore.open(str(path))
            with pytest.raises(CorruptDataError) as first:
                store.retrieve_all()
            with pytest.raises(CorruptDataError) as second:
                store.tokens()
            # Both tracebacks, and the frames they hold, are still alive:
            # a BufferError here means a view of the mapping leaked.
            store.close()
            del first, second


class TestOutOfTableOffset:
    def test_single_byte_varint_reports_its_own_offset(self, fuzz_store):
        blob = dumps_store_v2(fuzz_store)
        header = MappedPathStore(blob)._header
        limit = fuzz_store.table.base_id + len(fuzz_store.table)
        assert limit <= 0x7F
        checked = 0
        for position in range(header.payload_offset, header.total_size):
            if blob[position] >= 0x80 or blob[position - 1] >= 0x80:
                continue  # not the start of a one-byte varint
            corrupted = blob[:position] + b"\x7f" + blob[position + 1 :]
            store = MappedPathStore(corrupted)
            for call in (store.tokens, store.retrieve_all):
                with pytest.raises(CorruptDataError, match="beyond table") as info:
                    call()
                assert f"at byte offset {position} " in str(info.value) + " "
            checked += 1
        assert checked > 0

    def test_multi_byte_varint_reports_its_start(self, table):
        blob = _token_blob(table, [b"\x01", b"\x02\xff\x7f"])
        store = MappedPathStore(blob)
        start = store._header.payload_offset + 2
        with pytest.raises(CorruptDataError) as info:
            store.token(1)
        assert str(info.value).endswith(f"at byte offset {start}")


@pytest.fixture(params=[False, True], ids=["unordered", "ordered"])
def stores(request, tmp_path):
    """The same corpus as in-memory, mapped v2 and 2-shard stores."""
    paths = [tuple(p) for p in FUZZ_PATHS] + [(7, 1, 9), (), (5,)]
    reorder = "frequency" if request.param else "identity"
    codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0, reorder=reorder))
    memory = CompressedPathStore.from_codec(PathDataset(paths), codec)
    assert (memory.order is not None) == request.param
    tokens = memory.tokens()
    blobs = [
        dumps_store_v2_tokens(memory.table, tokens[:10], order=memory.order),
        dumps_store_v2_tokens(memory.table, tokens[10:], order=memory.order),
    ]
    sharded = _sharded(tmp_path, memory.table, blobs)
    yield paths, [memory, MappedPathStore(dumps_store_v2(memory)), sharded]
    sharded.close()


class TestOrderRestore:
    def test_every_store_restores_original_ids(self, stores):
        paths, kinds = stores
        batch = [3, 0, 20, 3]
        for store in kinds:
            assert store.tokens() == kinds[0].tokens()
            assert store.retrieve_all() == paths
            assert store.retrieve_batch(batch) == [paths[i] for i in batch]
            _assert_parity(store)

    def test_decoded_id_outside_the_order(self, tmp_path):
        order = VertexOrder("frequency", [4, 2, 0, 1, 3])
        table = SupernodeTable(base_id=10)
        tokens = [(0, 1, 2), (3, 7), (4,)]  # new id 7 has no original id
        memory = CompressedPathStore.from_tokens(table, tokens, order=order)
        blob = dumps_store_v2_tokens(table, tokens, order=order)
        sharded = _sharded(tmp_path, table, [blob])
        for store in (memory, MappedPathStore(blob), sharded):
            assert store.retrieve(0) == (4, 2, 0)
            for call in (store.retrieve_all, lambda: store.retrieve_batch([0, 1])):
                with pytest.raises(InvalidInputError, match="outside this order"):
                    call()
            with pytest.raises(InvalidInputError, match="outside this order"):
                store.retrieve(1)
        sharded.close()
