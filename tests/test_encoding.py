"""Unit and property tests for the integer stream encodings."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import CorruptDataError, TruncatedDataError
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
