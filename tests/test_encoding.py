"""Unit and property tests for the integer stream encodings."""

import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import CorruptDataError, TruncatedDataError
from repro.paths import encoding
from repro.paths.encoding import (
    DEFAULT_ENCODING,
    FixedWidthEncoding,
    VarintEncoding,
    decode_stream,
    encode_stream,
)


class TestFixedWidth:
    def test_default_is_32_bit(self):
        # The paper's size model: one 32-bit integer per vertex.
        assert DEFAULT_ENCODING.width == 4
        assert DEFAULT_ENCODING.size_of([1, 2, 3]) == 12

    def test_roundtrip(self):
        enc = FixedWidthEncoding(4)
        values = [0, 1, 2**31, 2**32 - 1]
        assert enc.decode(enc.encode(values)) == values

    def test_width_one(self):
        enc = FixedWidthEncoding(1)
        assert enc.decode(enc.encode([0, 255])) == [0, 255]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            FixedWidthEncoding(1).encode([256])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            FixedWidthEncoding(4).encode([-1])

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            FixedWidthEncoding(3)

    def test_misaligned_decode_raises(self):
        with pytest.raises(ValueError):
            FixedWidthEncoding(4).decode(b"\x00\x01\x02")

    def test_size_of_value_constant(self):
        assert FixedWidthEncoding(2).size_of_value(65535) == 2


class TestVarint:
    def test_small_values_cost_one_byte(self):
        enc = VarintEncoding()
        assert enc.size_of_value(0) == 1
        assert enc.size_of_value(127) == 1

    def test_boundary_values(self):
        enc = VarintEncoding()
        assert enc.size_of_value(128) == 2
        assert enc.size_of_value(16383) == 2
        assert enc.size_of_value(16384) == 3

    def test_roundtrip(self):
        enc = VarintEncoding()
        values = [0, 1, 127, 128, 300, 2**20, 2**40]
        assert enc.decode(enc.encode(values)) == values

    def test_size_matches_encoding(self):
        enc = VarintEncoding()
        values = [5, 1000, 2**30]
        assert enc.size_of(values) == len(enc.encode(values))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            VarintEncoding().encode([-3])

    def test_truncated_stream_raises(self):
        enc = VarintEncoding()
        data = enc.encode([300])
        with pytest.raises(ValueError):
            enc.decode(data[:-1])

    def test_truncated_varint_is_typed_with_its_offset(self):
        # 0x01 is a whole varint; the one starting at offset 1 never ends.
        with pytest.raises(TruncatedDataError, match="byte offset 1"):
            VarintEncoding().decode(b"\x01\x80")

    def test_overlong_varint_is_typed_with_its_offset(self):
        with pytest.raises(CorruptDataError, match="byte offset 1"):
            VarintEncoding().decode(b"\x05" + b"\xff" * 10 + b"\x01")

    def test_module_level_helpers(self):
        values = [3, 1, 4, 1, 5]
        assert decode_stream(encode_stream(values)) == values


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1)))
def test_fixed_width_roundtrip_property(values):
    enc = FixedWidthEncoding(4)
    assert enc.decode(enc.encode(values)) == values


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1)))
def test_varint_roundtrip_property(values):
    enc = VarintEncoding()
    assert enc.decode(enc.encode(values)) == values


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1))
def test_varint_size_accounting_is_exact(values):
    enc = VarintEncoding()
    assert enc.size_of(values) == len(enc.encode(values))


# -- the bulk pair: encode_runs / decode_runs -------------------------------------

BOUNDARIES = [0, 127, 128, 16383, 16384, 2**35, 2**63 - 1]
ROUTES = ["numpy", "scalar"]


@contextmanager
def _route(name):
    """Write on the vectorized route or force the scalar loop ``encode_runs`` keeps."""
    if name == "numpy":
        yield
    else:
        with mock.patch.object(encoding, "_bulk_encode_runs", lambda runs, prefixed: None):
            yield


def _reference_runs(runs, prefixed=False):
    """``encode_runs`` spelled as the per-run ``encode`` loop."""
    enc = VarintEncoding()
    payload = b""
    ends = [0]
    for run in runs:
        if prefixed:
            payload += enc.encode([len(run)])
        payload += enc.encode(run)
        ends.append(len(payload))
    return payload, ends


def _split(values, offsets):
    return [tuple(values[offsets[i]:offsets[i + 1]]) for i in range(len(offsets) - 1)]


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


@pytest.mark.parametrize("route", ROUTES)
class TestEncodeRuns:
    @pytest.mark.parametrize("prefixed", [False, True], ids=["bare", "prefixed"])
    @pytest.mark.parametrize(
        "runs",
        [
            [[value] for value in BOUNDARIES],
            [BOUNDARIES, [], BOUNDARIES[::-1]],
            [[]],
            [],
        ],
        ids=["one-per-run", "with-empty-run", "one-empty-run", "zero-runs"],
    )
    def test_boundaries_equal_the_scalar_writer(self, route, runs, prefixed):
        with _route(route):
            payload, ends = VarintEncoding().encode_runs(runs, prefixed=prefixed)
        assert (payload, list(ends)) == _reference_runs(runs, prefixed)
        assert isinstance(payload, bytes)

    @pytest.mark.parametrize("prefixed", [False, True], ids=["bare", "prefixed"])
    def test_runs_spanning_many_blocks(self, route, prefixed):
        # Blocks hold whole runs: one run longer than a block, many short
        # runs on both sides of it, and empty runs at block edges.
        block = encoding._WRITE_BLOCK_SYMBOLS
        runs = [[i % 300, i] for i in range(block)] + [list(range(block + 5))]
        runs += [[], [2**40]] * 100 + [[7] * (block - 1), [], [1]]
        with _route(route):
            payload, ends = VarintEncoding().encode_runs(runs, prefixed=prefixed)
        assert (payload, list(ends)) == _reference_runs(runs, prefixed)

    def test_values_past_int64_take_the_scalar_loop(self, route):
        runs = [[1, 2**63], [2**64 + 5, 3], [2**70]]
        with _route(route):
            if route == "numpy":
                assert encoding._bulk_encode_runs(runs, False) is None
            for prefixed in (False, True):
                payload, ends = VarintEncoding().encode_runs(runs, prefixed=prefixed)
                assert (payload, list(ends)) == _reference_runs(runs, prefixed)

    @pytest.mark.parametrize(
        "runs",
        [[[1, -1]], [[1.5]], [[2], [3.0]], [["7"]], [[-1, 1.5]], [[1.5, -1]]],
        ids=["negative", "float", "integral-float", "string", "negative-first",
             "float-first"],
    )
    def test_bad_values_raise_what_encode_raises(self, route, runs):
        flat = [value for run in runs for value in run]
        expected = _outcome(lambda: VarintEncoding().encode(flat))
        assert expected[0] in (ValueError, TypeError)
        with _route(route):
            for prefixed in (False, True):
                got = _outcome(lambda: VarintEncoding().encode_runs(runs, prefixed))
                assert got == expected

    def test_negative_is_value_error_and_float_is_type_error(self, route):
        with _route(route):
            with pytest.raises(ValueError):
                VarintEncoding().encode_runs([[-1]])
            with pytest.raises(TypeError):
                VarintEncoding().encode_runs([[1.5]])

    def test_prefixed_form_reads_back_with_the_scalar_decoder(self, route):
        runs = [[5, 300], [], [2**40]]
        with _route(route):
            payload, _ = VarintEncoding().encode_runs(runs, prefixed=True)
        assert VarintEncoding().decode(payload) == [2, 5, 300, 0, 1, 2**40]


class TestDecodeRuns:
    def test_boundaries_round_trip(self):
        runs = [BOUNDARIES, [], [1], BOUNDARIES[::-1], []]
        enc = VarintEncoding()
        values, offsets = enc.decode_runs(*enc.encode_runs(runs))
        assert _split(values, offsets) == [tuple(run) for run in runs]

    @pytest.mark.parametrize(
        "payload, ends, message",
        [
            (b"\x01\x81", [0, 1, 2], "run 1 ends inside a varint at byte offset 2"),
            (b"\x01\x81\x01", [0, 2, 3], "run 0 ends inside a varint at byte offset 2"),
            (b"\x05" + b"\x81" * 9 + b"\x00", [0, 11],
             "varint longer than 9 bytes at byte offset 1"),
            (b"\x80" * 9 + b"\x01\x81", [0, 10, 11], "run 1 ends inside a varint"),
        ],
        ids=["last-run-open", "middle-run-open", "ten-byte-varint", "open-before-long"],
    )
    def test_damage_is_typed_with_its_offset(self, payload, ends, message):
        with pytest.raises(CorruptDataError, match=message):
            VarintEncoding().decode_runs(payload, ends)

    def test_varint_past_ten_bytes(self):
        message = "varint longer than 9 bytes at byte offset 1 (past the 63-bit bulk range)"
        with pytest.raises(CorruptDataError, match=f"^{re.escape(message)}$"):
            VarintEncoding().decode_runs(b"\x05" + b"\xff" * 12 + b"\x01", [0, 14])

    def test_empty_runs(self):
        enc = VarintEncoding()
        assert _split(*enc.decode_runs(b"", [0, 0, 0])) == [(), ()]
        assert _split(*enc.decode_runs(b"", [0])) == []


_RUNS = st.lists(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=8),
                 max_size=12)


@pytest.mark.parametrize("route", ROUTES)
@given(runs=_RUNS)
def test_runs_round_trip_property(route, runs):
    with _route(route):
        enc = VarintEncoding()
        payload, ends = enc.encode_runs(runs)
        values, offsets = enc.decode_runs(payload, ends)
    assert (payload, list(ends)) == _reference_runs(runs)
    assert _split(values, offsets) == [tuple(run) for run in runs]


@pytest.mark.parametrize("route", ROUTES)
@given(runs=st.lists(st.lists(st.integers(min_value=0, max_value=2**80), max_size=6),
                     max_size=8))
def test_prefixed_runs_equal_the_scalar_writer_property(route, runs):
    with _route(route):
        payload, ends = VarintEncoding().encode_runs(runs, prefixed=True)
    assert (payload, list(ends)) == _reference_runs(runs, prefixed=True)


def _cut_payloads():
    """``(payload, ends)`` pairs: valid encodings and arbitrary damaged bytes."""
    valid = _RUNS.map(lambda runs: _reference_runs(runs))
    # Varints of 1 to 12 bytes: the longer ones are past the bulk range.
    varints = st.lists(st.integers(0, 11), max_size=8).map(
        lambda sizes: b"".join(b"\x80" * size + b"\x01" for size in sizes)
    )
    damaged = st.one_of(st.binary(max_size=48), varints).flatmap(
        lambda data: st.lists(st.integers(0, len(data)), max_size=8).map(
            lambda cuts: (data, [0] + sorted(cuts) + [len(data)])
        )
    )
    return st.one_of(valid, damaged)


@given(cut=_cut_payloads(), block=st.integers(1, 8))
def test_blocked_decode_equals_one_block_property(cut, block):
    """Any block size gives the answers and errors of one block for the whole payload."""
    payload, ends = cut

    def decode():
        values, offsets = VarintEncoding().decode_runs(payload, ends)
        return list(values), list(offsets)

    whole = _outcome(decode)
    with mock.patch.object(encoding, "_READ_BLOCK_BYTES", block):
        assert _outcome(decode) == whole


def test_blocked_decode_memory_stays_bounded():
    """Temporaries of a multi-MB parse stay under a bound set by the block size."""
    import tracemalloc
    from array import array

    pattern = [1, 300, 2**40, 0, 127, 128]
    run = VarintEncoding().encode(pattern * 4)
    count = (4 << 20) // len(run)
    payload = run * count
    ends = array("q", range(0, len(payload) + 1, len(run)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        values, offsets = VarintEncoding().decode_runs(payload, ends)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 4 << 20
    assert len(offsets) == count + 1 and offsets[-1] == len(values)
    decoded = np.frombuffer(values, dtype=np.int64).reshape(count, len(pattern) * 4)
    assert (decoded == np.array(pattern * 4, dtype=np.int64)).all()
