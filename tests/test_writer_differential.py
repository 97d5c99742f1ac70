"""Every archive writer equals a per-token reference writer, byte for byte.

The writers encode their varints through one bulk call,
:meth:`VarintEncoding.encode_runs`.  The references below spell each
layout out the long way, one :meth:`VarintEncoding.encode` call per token,
the way the formats are documented in docs/formats.md.  Over random tokens,
on the vectorized route and on the scalar loop that ``encode_runs`` keeps
for values past int64, the five writers must produce exactly the
reference bytes.
"""

import struct
import zlib
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import serialize
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.paths import encoding
from repro.paths.dataset import PathDataset
from repro.paths.io import dumps_binary
from repro.paths.reorder import VertexOrder

_VARINT = encoding.VarintEncoding()


@contextmanager
def _route(name):
    if name == "numpy":
        yield
    else:
        with mock.patch.object(encoding, "_bulk_encode_runs", lambda runs, prefixed: None):
            yield


def _prefixed(runs) -> bytes:
    out = b""
    for run in runs:
        out += _VARINT.encode([len(run)]) + _VARINT.encode(run)
    return out


def reference_table(table: SupernodeTable) -> bytes:
    entries = [table.expand(sid) for sid in range(table.base_id, table.base_id + len(table))]
    return b"RPST" + struct.pack("<BII", 1, table.base_id, len(table)) + _prefixed(entries)


def reference_store_v1(table: SupernodeTable, tokens) -> bytes:
    payload = reference_table(table) + struct.pack("<I", len(tokens)) + _prefixed(tokens)
    return b"RPCS" + struct.pack("<BI", 1, zlib.crc32(payload)) + payload


def reference_order(order: VertexOrder) -> bytes:
    name = order.strategy.encode("utf-8")
    backward = order.invert_path(range(len(order)))
    return _VARINT.encode([len(name)]) + name + _prefixed([backward])


def reference_store_v2(table: SupernodeTable, tokens, order=None) -> bytes:
    table_blob = reference_table(table)
    payload = b""
    index = struct.pack("<Q", 0)
    for token in tokens:
        payload += _VARINT.encode(token)
        index += struct.pack("<Q", len(payload))
    index_offset = serialize.STORE_V2_HEADER_SIZE + len(table_blob)
    header = serialize.STORE_V2_HEADER.pack(
        serialize.STORE_V2_MAGIC, serialize.STORE_V2_VERSION,
        serialize.STORE_V2_FLAG_ORDER if order is not None else 0, len(tokens),
        serialize.STORE_V2_HEADER_SIZE, len(table_blob), index_offset,
        index_offset + len(index), len(payload), zlib.crc32(table_blob + index), 0,
    )
    header = header[:-4] + struct.pack("<I", zlib.crc32(header[:-4]))
    blob = header + table_blob + index + payload
    if order is not None:
        body = reference_order(order)
        blob += b"RPOT" + struct.pack("<II", len(body), zlib.crc32(body)) + body
    return blob


def reference_dataset(paths) -> bytes:
    return b"RPPD" + struct.pack("<BI", 1, len(paths)) + _prefixed(paths)


@st.composite
def archives(draw):
    """A table, tokens over its alphabet and a vertex order of the same ids."""
    base_id = draw(st.integers(min_value=1, max_value=2**20))
    vertex = st.integers(min_value=0, max_value=base_id - 1)
    entries = draw(st.lists(st.lists(vertex, min_size=2, max_size=5), max_size=8,
                            unique_by=tuple))
    table = SupernodeTable(base_id, entries)
    symbol = st.integers(min_value=0, max_value=base_id + len(table) - 1)
    tokens = draw(st.lists(st.lists(symbol, max_size=7).map(tuple), max_size=15))
    backward = draw(st.permutations(range(draw(st.integers(0, 40)))))
    order = VertexOrder("frequency", backward) if backward else None
    return table, tokens, order


@pytest.mark.parametrize("route", ["numpy", "scalar"])
@settings(max_examples=60, deadline=None)
@given(archive=archives())
def test_archive_writers_equal_their_references(route, archive):
    table, tokens, order = archive
    store = CompressedPathStore.from_tokens(table, tokens)
    with _route(route):
        assert serialize.dumps_table(table) == reference_table(table)
        assert serialize.dumps_store(store) == reference_store_v1(table, tokens)
        assert serialize.dumps_store_v2_tokens(table, tokens) == reference_store_v2(
            table, tokens
        )
        assert serialize.dumps_store_v2(store) == reference_store_v2(table, tokens)
        if order is not None:
            assert order.to_bytes() == reference_order(order)
            assert serialize.dumps_store_v2_tokens(table, tokens, order) == (
                reference_store_v2(table, tokens, order)
            )


@pytest.mark.parametrize("route", ["numpy", "scalar"])
@settings(max_examples=60, deadline=None)
@given(paths=st.lists(st.lists(st.integers(min_value=0, max_value=2**70), max_size=6),
                      max_size=10))
def test_dataset_writer_equals_its_reference(route, paths):
    dataset = PathDataset(paths)
    with _route(route):
        assert dumps_binary(dataset) == reference_dataset([tuple(p) for p in dataset])
