"""Round-trip and behaviour tests for the v2 mapped store.

The central contract: a :class:`MappedPathStore` over ``dumps_store_v2``
output answers every query identically to the in-memory
:class:`CompressedPathStore` it came from, and to a v1
``dumps_store``/``loads_store`` round trip of the same archive — across
matcher backends, varint widths and slice shapes.  Openness is lazy: the
constructor touches 64 bytes, the table decodes on first access.
"""

import mmap
import multiprocessing
import os
import pickle

import pytest

from repro.core.config import MATCHER_BACKENDS, OFFSConfig
from repro.core.errors import (
    CorruptDataError,
    PathIdError,
    StateError,
    TruncatedDataError,
)
from repro.core.mapped import MappedPathStore
from repro.core.offs import OFFSCodec
from repro.core.serialize import (
    dump_store_file,
    dumps_store,
    dumps_store_v2,
    loads_store,
    loads_store_v2,
)
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import instrumented
from repro.paths.dataset import PathDataset


def _dataset():
    # Vertex ids chosen to exercise 1-, 2-, 3- and 5-byte varints.
    wide = [7, 130, 16400, 1 << 21, (1 << 28) + 3]
    return PathDataset(
        [[1, 2, 3, 4, 5]] * 8
        + [[9, 2, 3, 4]] * 4
        + [wide] * 3
        + [[1, 2, 3] + wide]
        + [[42]]
    )


@pytest.fixture(scope="module", params=MATCHER_BACKENDS)
def stores(request):
    ds = _dataset()
    codec = OFFSCodec(
        OFFSConfig(iterations=3, sample_exponent=0, matcher=request.param),
        base_id=(1 << 28) + 10,
    )
    memory = CompressedPathStore.from_codec(ds, codec)
    mapped = loads_store_v2(dumps_store_v2(memory))
    return memory, mapped


class TestRoundTripEquivalence:
    def test_length_and_tokens(self, stores):
        memory, mapped = stores
        assert len(mapped) == len(memory)
        assert mapped.tokens() == memory.tokens()

    def test_every_retrieve(self, stores):
        memory, mapped = stores
        for pid in range(len(memory)):
            assert mapped.retrieve(pid) == memory.retrieve(pid)

    def test_retrieve_all_and_iter(self, stores):
        memory, mapped = stores
        assert mapped.retrieve_all() == memory.retrieve_all()
        assert list(mapped) == list(memory)

    def test_retrieve_batch(self, stores):
        memory, mapped = stores
        ids = [0, len(memory) - 1, 3]
        assert mapped.retrieve_batch(ids) == [memory.retrieve(pid) for pid in ids]

    def test_slices_match_in_memory_store(self, stores):
        memory, mapped = stores
        for pid in range(len(memory)):
            n = memory.expanded_length(pid)
            assert mapped.expanded_length(pid) == n
            for start, stop in [
                (None, None), (0, 1), (-1, None), (1, -1), (2, 3), (-n, n + 5),
            ]:
                assert mapped.retrieve_slice(pid, start, stop) == \
                    memory.retrieve_slice(pid, start, stop)

    def test_matches_v1_round_trip(self, stores):
        memory, mapped = stores
        v1 = loads_store(dumps_store(memory))
        assert mapped.tokens() == v1.tokens()
        assert mapped.retrieve_all() == v1.retrieve_all()

    def test_size_accounting_matches(self, stores):
        memory, mapped = stores
        assert mapped.compressed_symbol_count() == memory.compressed_symbol_count()
        assert mapped.compressed_size_bytes() == memory.compressed_size_bytes()
        assert mapped.raw_size_bytes() == memory.raw_size_bytes()
        assert mapped.compression_ratio() == memory.compression_ratio()

    def test_to_store_materializes_identical_archive(self, stores):
        memory, mapped = stores
        copy = mapped.to_store()
        assert copy.tokens() == memory.tokens()
        assert dumps_store_v2(copy) == dumps_store_v2(memory)


class TestFileRoundTrip:
    def test_dump_and_open(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        written = dump_store_file(memory, path)
        with MappedPathStore.open(path) as mapped:
            assert len(mapped._buf) == written
            assert mapped.retrieve_all() == memory.retrieve_all()

    def test_open_records_metrics(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with instrumented() as obs:
            with MappedPathStore.open(path) as mapped:
                mapped.retrieve(0)
            reg = obs.registry
            assert reg.timer(catalog.STORE_OPEN_SECONDS).count == 1
            assert reg.gauge(catalog.STORE_MAPPED_BYTES).value > 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.rpc2"
        path.write_bytes(b"")
        with pytest.raises(CorruptDataError):
            MappedPathStore.open(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        memory = _make_small_store()
        path = tmp_path / "v1.rpcs"
        path.write_bytes(dumps_store(memory))
        with pytest.raises(CorruptDataError):
            MappedPathStore.open(str(path))


class TestLaziness:
    def test_table_not_decoded_until_accessed(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with MappedPathStore.open(path) as mapped:
            assert mapped._table is None  # open parsed only the header
            assert len(mapped) == len(memory)  # header-only query
            assert mapped._table is None
            mapped.retrieve(0)
            assert mapped._table is not None

    def test_open_cost_independent_of_path_count(self, tmp_path):
        # Not a timing assertion (flaky); the structural guarantee is that
        # opening never touches the index or payload sections.
        memory = _make_small_store()
        blob = bytearray(dumps_store_v2(memory))
        header = loads_store_v2(bytes(blob))._header
        # Corrupt the payload: open must still succeed (nothing there is
        # read), and only retrieval may fail.
        for pos in range(header.payload_offset, header.total_size):
            blob[pos] ^= 0xFF
        store = loads_store_v2(bytes(blob))
        assert len(store) == len(memory)


class TestValidation:
    def test_retrieve_many_validates_up_front(self):
        memory = _make_small_store()
        mapped = loads_store_v2(dumps_store_v2(memory))
        with instrumented() as obs:
            with pytest.raises(PathIdError):
                mapped.retrieve_batch([0, 1, 999])
            assert obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).value == 0

    def test_bad_ids_raise(self):
        mapped = loads_store_v2(dumps_store_v2(_make_small_store()))
        for bad in (-1, len(mapped), len(mapped) + 10):
            with pytest.raises(PathIdError):
                mapped.retrieve(bad)
            with pytest.raises(PathIdError):
                mapped.retrieve_slice(bad, 0, 1)


class TestTokenBounds:
    """A varint may not continue past its own token's end offset."""

    @staticmethod
    def _blob_with_payload_flip(paths, flip_at):
        """A v2 blob of *paths* (supernode table base 100) with the
        continuation bit set on payload byte *flip_at*."""
        store = CompressedPathStore(SupernodeTable(100, [(1, 2, 3)]))
        store.extend(paths)
        blob = bytearray(dumps_store_v2(store))
        offset = loads_store_v2(bytes(blob))._header.payload_offset + flip_at
        blob[offset] |= 0x80
        return loads_store_v2(bytes(blob)), offset

    def test_varint_running_into_next_token_is_corrupt(self):
        # Token 0 is the single byte 0x05; token 1 starts with vertex 0, so
        # an unbounded read would quietly decode 5 | (0 << 7) == 5.
        mapped, offset = self._blob_with_payload_flip([(5,), (0, 7)], 0)
        with pytest.raises(CorruptDataError) as exc_info:
            mapped.token(0)
        assert not isinstance(exc_info.value, TruncatedDataError)
        assert f"byte offset {offset}" in str(exc_info.value)
        assert mapped.token(1) == (0, 7)

    def test_varint_running_off_the_buffer_is_truncated(self):
        mapped, offset = self._blob_with_payload_flip([(5,), (0, 7)], 2)
        with pytest.raises(TruncatedDataError) as exc_info:
            mapped.token(1)
        assert f"byte offset {offset}" in str(exc_info.value)
        assert mapped.token(0) == (5,)


class TestCloseSemantics:
    def test_close_releases_mapping(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        mapped = MappedPathStore.open(path)
        mapped.retrieve(0)
        _ = mapped.token(0)  # forces the index memoryview export
        mapped.close()  # must not raise BufferError
        mapped.close()  # idempotent

    def test_context_manager(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with MappedPathStore.open(path) as mapped:
            assert mapped.retrieve(0) == memory.retrieve(0)

    def test_close_is_noop_for_byte_buffers(self):
        mapped = loads_store_v2(dumps_store_v2(_make_small_store()))
        mapped.retrieve(0)
        mapped.close()


class TestRetrieveBatch:
    """retrieve_batch returns what per-id retrieve returns, in input order.

    The same contract is held over every store kind in
    tests/test_read_surface.py."""

    def test_matches_retrieve_many(self, stores):
        memory, mapped = stores
        n = len(mapped)
        for ids in ([], [0], [n - 1, 0, 3], list(range(n)), [2, 2, 2]):
            expected = [memory.retrieve(pid) for pid in ids]
            assert mapped.retrieve_batch(ids) == expected
            assert memory.retrieve_batch(ids) == expected

    def test_empty_batch_is_empty(self):
        mapped = loads_store_v2(dumps_store_v2(_make_small_store()))
        assert mapped.retrieve_batch([]) == []
        assert mapped.retrieve_batch(iter(())) == []

    def test_validates_up_front(self):
        mapped = loads_store_v2(dumps_store_v2(_make_small_store()))
        with instrumented() as obs:
            with pytest.raises(PathIdError):
                mapped.retrieve_batch([0, 1, 999])
            # Nothing decompressed: the bad id failed before the kernel ran.
            assert obs.registry.counter(catalog.STORE_RETRIEVED_PATHS).value == 0

    def test_records_batch_metrics(self):
        mapped = loads_store_v2(dumps_store_v2(_make_small_store()))
        with instrumented() as obs:
            mapped.retrieve_batch([0, 1, 2])
            reg = obs.registry
            assert reg.counter(catalog.STORE_RETRIEVED_PATHS).value == 3
            assert reg.timer(catalog.STORE_RETRIEVE_SECONDS).count == 1

    def test_duplicate_ids_repeat_in_output(self, stores):
        # Regression: duplicates must not be deduplicated by the grouping —
        # each occurrence gets its own slot, in input order.
        memory, mapped = stores
        ids = [3, 0, 3, 3, 1, 0]
        out = mapped.retrieve_batch(ids)
        assert out == [memory.retrieve(pid) for pid in ids]
        assert out[0] == out[2] == out[3] == mapped.retrieve(3)

    def test_generator_input_single_pass(self, stores):
        # Regression: a generator can only be consumed once; the batch path
        # must materialize it exactly once (validate + decode off one list).
        _, mapped = stores
        ids = [4, 1, 4]
        expected = [mapped.retrieve(pid) for pid in ids]
        assert mapped.retrieve_batch(pid for pid in ids) == expected
        consumed = iter(ids)
        assert mapped.retrieve_batch(consumed) == expected
        assert list(consumed) == []  # fully drained, not partially read

    def test_generator_with_bad_id_fails_like_retrieve_many(self, stores):
        # Up-front validation parity with per-id retrieve: same error class
        # for the same id, even when the bad id hides at the end of a
        # single-pass iterable.
        _, mapped = stores
        n = len(mapped)
        with pytest.raises(PathIdError):
            mapped.retrieve(n)
        with pytest.raises(PathIdError):
            mapped.retrieve_batch(pid for pid in [0, 1, n])
        with pytest.raises(PathIdError):
            mapped.retrieve_batch(pid for pid in [0, 1, -1])


_fork_required = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method not available on this platform",
)


class TestProcessBoundaries:
    """The store survives pickling and forking (the repro.serve contract)."""

    def test_pickle_round_trip_file_backed(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with MappedPathStore.open(path) as original:
            clone = pickle.loads(pickle.dumps(original))
            try:
                assert clone is not original
                assert clone.name == path
                assert clone.owner_pid == os.getpid()
                assert clone.retrieve_all() == original.retrieve_all()
            finally:
                clone.close()  # independent lifecycle from the original
            assert original.retrieve(0) == memory.retrieve(0)

    def test_pickle_round_trip_buffer_backed(self):
        memory = _make_small_store()
        original = loads_store_v2(dumps_store_v2(memory))
        clone = pickle.loads(pickle.dumps(original))
        assert clone.retrieve_all() == memory.retrieve_all()

    def test_pickle_raw_mmap_rejected(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with open(path, "rb") as fh:
            raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                store = MappedPathStore(raw)  # caller-owned mapping, no path
                with pytest.raises(StateError):
                    pickle.dumps(store)
                with pytest.raises(StateError):
                    store.reopen()
            finally:
                raw.close()

    def test_reopen_file_backed(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with MappedPathStore.open(path) as original:
            fresh = original.reopen()
            try:
                assert fresh is not original
                assert fresh.retrieve_all() == memory.retrieve_all()
            finally:
                fresh.close()
            assert original.retrieve(0) == memory.retrieve(0)

    def test_reopen_buffer_backed_shares_buffer(self):
        original = loads_store_v2(dumps_store_v2(_make_small_store()))
        fresh = original.reopen()
        assert fresh is not original
        assert fresh._buf is original._buf
        assert fresh.retrieve_all() == original.retrieve_all()

    def test_process_local_is_identity_in_owner(self, tmp_path):
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        with MappedPathStore.open(path) as store:
            assert store.process_local() is store

    @_fork_required
    def test_fork_then_query_from_child(self, tmp_path):
        """Regression: a forked worker re-establishes the store and answers
        identically — the exact access pattern of a repro.serve worker."""
        memory = _make_small_store()
        path = str(tmp_path / "archive.rpc2")
        dump_store_file(memory, path)
        store = MappedPathStore.open(path)
        try:
            expected = store.retrieve_all()
            context = multiprocessing.get_context("fork")
            parent_conn, child_conn = context.Pipe(duplex=False)

            def child() -> None:
                local = store.process_local()
                child_conn.send({
                    "reopened": local is not store,
                    "owner_is_child": local.owner_pid == os.getpid(),
                    "paths": local.retrieve_all(),
                    "batch": local.retrieve_batch([0, 2, 4]),
                    "slice": local.retrieve_slice(0, 1, -1),
                })
                local.close()

            worker = context.Process(target=child)
            worker.start()
            result = parent_conn.recv()
            worker.join(10.0)
            assert worker.exitcode == 0
            assert result["reopened"] is True
            assert result["owner_is_child"] is True
            assert result["paths"] == expected
            assert result["batch"] == [store.retrieve(pid) for pid in (0, 2, 4)]
            assert result["slice"] == store.retrieve_slice(0, 1, -1)
            # The parent's mapping is untouched by the child's lifecycle.
            assert store.retrieve_all() == expected
        finally:
            store.close()


class TestQueryLayerCompatibility:
    def test_vertex_index_and_query_engine_work_unchanged(self):
        on_memory = _make_small_store()
        on_mapped = loads_store_v2(dumps_store_v2(on_memory))
        assert on_mapped.affected_vertices(2) == on_memory.affected_vertices(2)
        assert on_mapped.paths_between(1, 5) == on_memory.paths_between(1, 5)


def _make_small_store():
    table = SupernodeTable(100, [(1, 2, 3), (4, 5)])
    store = CompressedPathStore(table)
    store.extend([(1, 2, 3, 4, 5), (1, 2, 3, 9), (4, 5, 6), (7, 8), (42,)])
    return store
