"""Differential and behaviour tests for the sharded path store.

The central contract: a :class:`ShardedPathStore` over
:func:`build_sharded_store` or :class:`ShardedIngest` output answers every
query *identically* to the monolithic archive of the same paths under the
same table — byte-identical for token/retrieve surfaces, value-identical
for the queries — at every shard count and any build process count.  Plus:
streaming ingest seals correct immutable shards with bounded memtables,
manifests and shards are rejected when they are corrupt, missing, escape
their directory or do not share one table, and sharded stores cross fork
boundaries safely.
"""

import errno
import json
import multiprocessing
import os
import pickle
import struct
import zlib

import pytest

from repro.core.config import OFFSConfig
from repro.core.errors import (
    CorruptDataError,
    InvalidInputError,
    PathIdError,
    StateError,
    TruncatedDataError,
)
from repro.core.mapped import MappedPathStore
from repro.core.offs import OFFSCodec
from repro.core.serialize import dumps_store_v2, dumps_table, loads_store_v2
from repro.core.sharded import (
    MANIFEST_MAGIC,
    ShardInfo,
    ShardManifest,
    ShardedIngest,
    ShardedPathStore,
    build_sharded_store,
    dumps_manifest,
    loads_manifest,
    open_store,
    partition_corpus,
    shard_filename,
)
from repro.core.store import CompressedPathStore
from repro.paths.dataset import PathDataset

from conftest import make_fd_leak_guard

# Shard mmaps, pool workers and manifest files must all be released when
# this module's fixtures tear down (the runtime twin of R008).
_fd_leak_guard = make_fd_leak_guard()


def _dataset():
    # Repetitive enough to compress, varied enough that shards differ; the
    # wide path exercises multi-byte varints inside a shard payload.
    wide = [7, 130, 16400, 1 << 21, (1 << 28) + 3]
    paths = []
    for i in range(40):
        paths.append([1, 2, 3, 4, 5, 100 + i])
        paths.append([9, 2, 3, 4, 200 + (i % 7)])
    paths += [wide] * 3 + [[1, 2, 3] + wide] + [[42]]
    return PathDataset(paths)


def _manifest_document(shards, fn="range"):
    """A manifest JSON document as the writers lay it out."""
    partition = {"fn": fn}
    if fn == "hash":
        partition["shards"] = len(shards)
    return {
        "schema_version": 1,
        "partition": partition,
        "path_count": sum(entry["count"] for entry in shards),
        "shards": shards,
    }


def _flip_bit(blob: bytes, position: int, bit: int) -> bytes:
    return blob[:position] + bytes([blob[position] ^ (1 << bit)]) + blob[position + 1 :]


def _manifest_blob(document) -> bytes:
    """*document* framed as an RPSM file, bypassing the writer's checks."""
    payload = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
    header = struct.pack("<4sB3xII", MANIFEST_MAGIC, 1, zlib.crc32(payload), len(payload))
    return header + payload


@pytest.fixture(scope="module")
def corpus_and_table():
    ds = _dataset()
    codec = OFFSCodec(
        OFFSConfig(iterations=3, sample_exponent=0), base_id=(1 << 28) + 10
    )
    corpus = ds.to_flat()
    codec.fit(corpus)
    return corpus, codec.table


@pytest.fixture(scope="module")
def monolithic(corpus_and_table):
    corpus, table = corpus_and_table
    store = CompressedPathStore(table)
    store.extend(corpus.to_paths())
    return store


class TestManifestCodec:
    def _manifest(self):
        return ShardManifest(
            [
                ShardInfo("a.shard-00000.rpc2", 0, 10, 0xDEAD),
                ShardInfo("a.shard-00001.rpc2", 10, 5, 0xDEAD),
            ]
        )

    def test_round_trip(self):
        manifest = self._manifest()
        blob = dumps_manifest(manifest)
        # The one partition fn is still written, so older readers open it.
        assert json.loads(blob[16:])["partition"] == {"fn": "range"}
        again = loads_manifest(blob)
        assert again.path_count == 15
        assert [s.as_json() for s in again.shards] == [
            s.as_json() for s in manifest.shards
        ]

    def test_magic_and_truncation(self):
        blob = dumps_manifest(self._manifest())
        assert blob[:4] == MANIFEST_MAGIC
        with pytest.raises(CorruptDataError):
            loads_manifest(b"NOPE" + blob[4:])
        with pytest.raises(TruncatedDataError):
            loads_manifest(blob[:8])
        with pytest.raises(TruncatedDataError):
            loads_manifest(blob[:-3])

    def test_every_truncation_and_bit_flip_is_typed(self):
        blob = dumps_manifest(self._manifest())
        for size in range(len(blob)):
            with pytest.raises(TruncatedDataError):
                loads_manifest(blob[:size])
        flips = 0
        for position in range(len(blob)):
            for bit in range(8):
                with pytest.raises(CorruptDataError):
                    loads_manifest(_flip_bit(blob, position, bit))
                flips += 1
        assert flips == 8 * len(blob)

    @pytest.mark.parametrize("offset", [5, 6, 7])
    def test_nonzero_pad_byte_names_its_offset(self, offset):
        blob = _flip_bit(dumps_manifest(self._manifest()), offset, 0)
        with pytest.raises(CorruptDataError, match=f"pad byte at byte offset {offset} "):
            loads_manifest(blob)

    def test_json_crc_detects_corruption(self):
        blob = bytearray(dumps_manifest(self._manifest()))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptDataError):
            loads_manifest(bytes(blob))

    def test_range_must_tile(self):
        with pytest.raises(CorruptDataError):
            ShardManifest([ShardInfo("a", 0, 10, 0), ShardInfo("b", 11, 5, 0)])

    def test_routing_is_invertible(self):
        counts = [4, 4, 3]
        starts = [0, 4, 8]
        manifest = ShardManifest(
            [ShardInfo(f"f{i}", starts[i], counts[i], 0) for i in range(3)]
        )
        seen = set()
        for gid in range(manifest.path_count):
            shard, local = manifest.locate(gid)
            assert manifest.shards[shard].start + local == gid
            seen.add((shard, local))
        assert len(seen) == manifest.path_count
        with pytest.raises(PathIdError):
            manifest.locate(manifest.path_count)
        with pytest.raises(PathIdError):
            manifest.locate(-1)

    @pytest.mark.parametrize(
        "names",
        [
            ["/tmp/elsewhere.rpc2", "b.rpc2"],
            ["../elsewhere.rpc2", "b.rpc2"],
            ["sub/a.rpc2", "b.rpc2"],
            ["a.rpc2", "..\\b.rpc2"],
            ["..", "b.rpc2"],
            ["a.rpc2", "a.rpc2"],
        ],
        ids=["absolute", "parent", "separator", "backslash", "dotdot", "duplicate"],
    )
    def test_shard_names_must_be_distinct_plain_names(self, names):
        document = _manifest_document(
            [{"file": name, "start": 5 * i, "count": 5, "table_crc": 1}
             for i, name in enumerate(names)]
        )
        with pytest.raises(CorruptDataError, match="shard file"):
            loads_manifest(_manifest_blob(document))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("count", "x"), ("count", None), ("count", -3), ("count", 2.7),
            ("count", True), ("start", None), ("start", "0"), ("start", 0.0),
            ("start", False), ("start", -1), ("table_crc", -1),
            ("table_crc", 1 << 32), ("table_crc", "1"), ("table_crc", 1.0),
            ("table_crc", None), ("table_crc", True), ("file", 7),
            ("file", None), ("file", ["a.rpc2"]),
        ],
    )
    def test_malformed_entry_fields_are_corrupt_data(self, field, value):
        document = _manifest_document(
            [{"file": f"s{i}.rpc2", "start": 5 * i, "count": 5, "table_crc": 1}
             for i in range(2)]
        )
        document["shards"][0][field] = value
        # _manifest_blob frames the edited document with a matching CRC.
        with pytest.raises(CorruptDataError, match=field):
            loads_manifest(_manifest_blob(document))


class TestPartitionCorpus:
    def test_range_preserves_order_and_balance(self, corpus_and_table):
        corpus, _ = corpus_and_table
        parts = partition_corpus(corpus, 3)
        assert sum(len(p) for p in parts) == len(corpus)
        assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1
        flat = [path for part in parts for path in part.to_paths()]
        assert flat == corpus.to_paths()

    def test_bad_arguments(self, corpus_and_table):
        corpus, _ = corpus_and_table
        with pytest.raises(InvalidInputError):
            partition_corpus(corpus, 0)


@pytest.fixture(
    scope="module",
    params=[("range", 2), ("range", 5), ("ingest", 2), ("ingest", 5)],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def sharded(request, corpus_and_table, tmp_path_factory):
    """A sharded store of the test corpus, as each writer produces it.

    ``range`` is :func:`build_sharded_store` against the fixture table;
    ``ingest`` streams the same paths through :class:`ShardedIngest`, which
    fits its own table on the first memtable and seals about *shards*
    shards.
    """
    writer, shards = request.param
    corpus, table = corpus_and_table
    out = str(tmp_path_factory.mktemp("sharded") / f"{writer}{shards}.rpsm")
    if writer == "range":
        build_sharded_store(corpus, table, out, shards=shards, processes=2)
    else:
        memtable = -(-len(corpus) // shards)
        with ShardedIngest(
            out,
            config=OFFSConfig(iterations=3, sample_exponent=0),
            train_after=memtable,
            memtable_paths=memtable,
            base_id=table.base_id,
        ) as ingest:
            ingest.feed_many(corpus.to_paths())
    store = ShardedPathStore.open(out)
    assert store.shard_count == shards
    yield store
    store.close()


class TestDifferentialIdentity:
    """Every endpoint, sharded vs monolithic, at 2 and 5 shards × both writers."""

    @pytest.fixture
    def monolithic(self, sharded, monolithic):
        """The monolithic store of the same paths under the sharded store's
        table (an ingest fits its own)."""
        if sharded.table == monolithic.table:
            return monolithic
        store = CompressedPathStore(sharded.table)
        store.extend(monolithic.retrieve_all())
        return store

    def test_len_and_tokens_byte_identical(self, sharded, monolithic):
        assert len(sharded) == len(monolithic)
        assert sharded.tokens() == monolithic.tokens()
        for pid in range(len(monolithic)):
            assert sharded.token(pid) == monolithic.token(pid)

    def test_retrieve_surfaces(self, sharded, monolithic):
        for pid in range(len(monolithic)):
            assert sharded.retrieve(pid) == monolithic.retrieve(pid)
            assert sharded.expanded_length(pid) == len(monolithic.retrieve(pid))
        assert sharded.retrieve_all() == monolithic.retrieve_all()
        assert list(sharded) == list(monolithic)

    def test_retrieve_slices(self, sharded, monolithic):
        for pid in (0, 1, len(monolithic) - 1):
            for window in ((None, None), (1, 3), (0, 1), (-1, None), (2, -1)):
                assert sharded.retrieve_slice(pid, *window) == tuple(
                    monolithic.retrieve(pid)[slice(*window)]
                )

    def test_retrieve_batch(self, sharded, monolithic):
        n = len(monolithic)
        for ids in ([], [0], [n - 1, 0, 3], list(range(n)), [2, 2, 2], [5, 3, 5]):
            expected = [monolithic.retrieve(pid) for pid in ids]
            assert sharded.retrieve_batch(ids) == expected
        assert sharded.retrieve_batch(pid for pid in [4, 1, 4]) == \
            [monolithic.retrieve(pid) for pid in (4, 1, 4)]
        with pytest.raises(PathIdError):
            sharded.retrieve_batch([0, n])
        with pytest.raises(PathIdError):
            sharded.retrieve_batch([0, -1])

    def test_fanout_queries_match_engines(self, sharded, monolithic):
        for vertex in (2, 42, 7, 99999):
            assert sharded.paths_containing(vertex) == \
                monolithic.paths_containing(vertex)
            assert sharded.affected_paths(vertex) == monolithic.affected_paths(vertex)
        for src, dst in ((1, 105), (9, 200), (1, 42), (7, (1 << 28) + 3)):
            assert sharded.paths_between(src, dst) == monolithic.paths_between(src, dst)
        for query in ((2, 3, 4), (42,), (1, 2, 3), (5, 6)):
            assert sharded.subpath_search_ids(query) == \
                monolithic.subpath_search_ids(query)
            assert sharded.subpath_search(query) == monolithic.subpath_search(query)

    def test_vertex_index_view(self, sharded, monolithic):
        view = sharded.vertex_index()
        index = monolithic.vertex_index()
        assert view.paths_containing(3) == index.paths_containing(3)
        assert view.paths_containing_all((2, 3)) == \
            index.paths_containing_all((2, 3))

    def test_size_accounting(self, sharded, monolithic):
        assert sharded.compressed_symbol_count() == monolithic.compressed_symbol_count()
        assert sharded.compressed_size_bytes() == monolithic.compressed_size_bytes()
        assert sharded.raw_size_bytes() == monolithic.raw_size_bytes()
        assert sharded.compression_ratio() == pytest.approx(
            monolithic.compression_ratio()
        )

    def test_table_shared_and_fingerprinted(self, sharded, monolithic):
        fingerprint = zlib.crc32(dumps_table(monolithic.table))
        assert {info.table_crc for info in sharded.manifest.shards} == {fingerprint}
        assert sharded.table == monolithic.table


@pytest.fixture(scope="module")
def frequency_codec(corpus_and_table):
    corpus, table = corpus_and_table
    config = OFFSConfig(iterations=3, sample_exponent=0, reorder="frequency")
    return OFFSCodec(config, base_id=table.base_id).fit(corpus)


@pytest.fixture(params=[None, "frequency"])
def build_inputs(request, corpus_and_table):
    """``(corpus, table, order)`` for an unordered and an ordered build."""
    corpus, table = corpus_and_table
    if request.param is None:
        return corpus, table, None
    codec = request.getfixturevalue("frequency_codec")
    return corpus, codec.table, codec.order


class TestBuildDeterminism:
    def test_identical_across_process_counts(self, build_inputs, tmp_path):
        corpus, table, order = build_inputs
        blobs = []
        for processes in (1, 3):
            out = str(tmp_path / f"p{processes}.rpsm")
            build_sharded_store(
                corpus, table, out, shards=3, processes=processes, order=order
            )
            shard_blobs = []
            for i in range(3):
                shard = str(tmp_path / shard_filename(f"p{processes}", i))
                with open(shard, "rb") as fh:
                    shard_blobs.append(fh.read())
            blobs.append(shard_blobs)
        assert blobs[0] == blobs[1]
        # Each shard carries the store's order section (or none).
        assert [loads_store_v2(blob).order for blob in blobs[0]] == [order] * 3

    def test_shards_are_self_contained_v2_files(self, corpus_and_table, tmp_path):
        corpus, table = corpus_and_table
        out = str(tmp_path / "solo.rpsm")
        build_sharded_store(corpus, table, out, shards=2)
        # Any v2 tooling opens a shard directly, no manifest required.
        shard0 = MappedPathStore.open(str(tmp_path / shard_filename("solo", 0)))
        assert shard0.table == table
        assert shard0.retrieve(0) == corpus.to_paths()[0]
        shard0.close()

    def test_single_shard_equals_monolithic_file(self, build_inputs, tmp_path):
        corpus, table, order = build_inputs
        out = str(tmp_path / "one.rpsm")
        build_sharded_store(corpus, table, out, shards=1, order=order)
        monolithic = CompressedPathStore.from_corpus(corpus, table, order=order)
        with open(str(tmp_path / shard_filename("one", 0)), "rb") as fh:
            assert fh.read() == dumps_store_v2(monolithic)


class TestOpenStoreSniffing:
    def test_all_three_magics(self, corpus_and_table, monolithic, tmp_path):
        corpus, table = corpus_and_table
        v2 = str(tmp_path / "m.rpc2")
        with open(v2, "wb") as fh:
            fh.write(dumps_store_v2(monolithic))
        manifest = str(tmp_path / "m.rpsm")
        build_sharded_store(corpus, table, manifest, shards=2)
        from repro.core.serialize import dumps_store

        v1 = str(tmp_path / "m.offs")
        with open(v1, "wb") as fh:
            fh.write(dumps_store(monolithic))
        assert isinstance(open_store(v2), MappedPathStore)
        assert isinstance(open_store(manifest), ShardedPathStore)
        assert isinstance(open_store(v1), CompressedPathStore)

    def test_empty_file_is_truncation(self, tmp_path):
        empty = str(tmp_path / "empty.rpc2")
        open(empty, "wb").close()
        with pytest.raises(TruncatedDataError, match="byte offset 0"):
            open_store(empty)


class TestCorruptionDetection:
    def _built(self, corpus_and_table, tmp_path):
        corpus, table = corpus_and_table
        out = str(tmp_path / "c.rpsm")
        build_sharded_store(corpus, table, out, shards=2)
        return out, str(tmp_path / shard_filename("c", 0))

    def test_table_fingerprint_is_the_table_section_crc(
        self, corpus_and_table, tmp_path
    ):
        from repro.core.serialize import dumps_table

        manifest_path, shard0 = self._built(corpus_and_table, tmp_path)
        _, table = corpus_and_table
        with MappedPathStore.open(shard0) as store:
            assert store.table_fingerprint == zlib.crc32(dumps_table(table))
        with open(manifest_path, "rb") as fh:
            manifest = loads_manifest(fh.read())
        assert manifest.shards[0].table_crc == zlib.crc32(dumps_table(table))

    def test_fingerprint_mismatch_detected(self, corpus_and_table, tmp_path):
        manifest_path, shard0 = self._built(corpus_and_table, tmp_path)
        with open(manifest_path, "rb") as fh:
            manifest = loads_manifest(fh.read())
        # One shard's fingerprint off: two fingerprints, rejected at load.
        manifest.shards[0].table_crc ^= 0xFF
        with open(manifest_path, "wb") as fh:
            fh.write(dumps_manifest(manifest))
        with pytest.raises(CorruptDataError, match="fingerprint"):
            ShardedPathStore.open(manifest_path)
        # Every fingerprint off alike: caught when the shard opens.
        for info in manifest.shards[1:]:
            info.table_crc ^= 0xFF
        with open(manifest_path, "wb") as fh:
            fh.write(dumps_manifest(manifest))
        store = ShardedPathStore.open(manifest_path)
        with pytest.raises(CorruptDataError, match="fingerprint"):
            store.retrieve(0)

    def test_shard_count_mismatch_detected(self, corpus_and_table, tmp_path):
        manifest_path, shard0 = self._built(corpus_and_table, tmp_path)
        with open(manifest_path, "rb") as fh:
            manifest = loads_manifest(fh.read())
        # Swap the two shard files on disk: counts differ, so open fails.
        shard1 = shard0.replace("shard-00000", "shard-00001")
        a, b = open(shard0, "rb").read(), open(shard1, "rb").read()
        with open(shard0, "wb") as fh:
            fh.write(b)
        with open(shard1, "wb") as fh:
            fh.write(a)
        store = ShardedPathStore.open(manifest_path)
        with pytest.raises(CorruptDataError):
            store.check()

    def test_truncated_shard_detected(self, corpus_and_table, tmp_path):
        manifest_path, shard0 = self._built(corpus_and_table, tmp_path)
        blob = open(shard0, "rb").read()
        with open(shard0, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        store = ShardedPathStore.open(manifest_path)
        with pytest.raises(CorruptDataError):
            store.check()


    def test_missing_shard_is_typed_at_every_entry_point(
        self, corpus_and_table, tmp_path
    ):
        from repro.serve import check_store

        manifest_path, shard0 = self._built(corpus_and_table, tmp_path)
        shard1 = shard0.replace("shard-00000", "shard-00001")
        os.remove(shard1)
        missing = r"c\.rpsm.*c\.shard-00001\.rpc2.*does not exist"
        with ShardedPathStore.open(manifest_path) as store:
            with pytest.raises(CorruptDataError, match=missing):
                store.retrieve(len(store) - 1)
        with ShardedPathStore.open(manifest_path) as store:
            with pytest.raises(CorruptDataError, match=missing):
                store.check()
        with pytest.raises(CorruptDataError, match=missing):
            check_store(manifest_path)

    @pytest.mark.parametrize("section", ["table", "order"])
    def test_shard_with_foreign_sections_rejected_before_decode(
        self, corpus_and_table, tmp_path, monkeypatch, section
    ):
        """Shard 1 is swapped for the same paths written with another table
        (or with an order); even with its fingerprint matching, it is
        refused before any table is decoded."""
        import repro.core.mapped as mapped_module
        from repro.paths.reorder import fit_order

        corpus, table = corpus_and_table
        manifest_path, shard0 = self._built(corpus_and_table, tmp_path)
        other = str(tmp_path / "other.rpsm")
        if section == "table":
            codec = OFFSCodec(
                OFFSConfig(iterations=1, sample_exponent=0), base_id=table.base_id
            )
            other_table = codec.fit(corpus).table
            assert dumps_table(other_table) != dumps_table(table)
            build_sharded_store(corpus, other_table, other, shards=2)
            fingerprint = zlib.crc32(dumps_table(table))
            monkeypatch.setattr(
                MappedPathStore, "table_fingerprint", property(lambda _: fingerprint)
            )
        else:
            order = fit_order("frequency", corpus)
            build_sharded_store(corpus, table, other, shards=2, order=order)
        shard1 = shard0.replace("shard-00000", "shard-00001")
        os.replace(str(tmp_path / shard_filename("other", 1)), shard1)
        decoded = []
        real_loads_table = mapped_module.loads_table

        def counting_loads_table(blob):
            decoded.append(len(blob))
            return real_loads_table(blob)

        monkeypatch.setattr(mapped_module, "loads_table", counting_loads_table)
        with ShardedPathStore.open(manifest_path) as store:
            with pytest.raises(CorruptDataError, match="section differs"):
                store.retrieve(len(store) - 1)
            assert decoded == []
            with pytest.raises(CorruptDataError, match="section differs"):
                store.check()

    @pytest.mark.parametrize("legacy", ["two-tables", "hash"])
    def test_legacy_manifest_rejected_while_each_shard_opens(
        self, corpus_and_table, tmp_path, legacy
    ):
        """Manifests that older writers produced — a refit's second table,
        or the modulo ``hash`` partition — no longer open as one store, but
        no archived path becomes unreadable: each shard is a v2 file."""
        corpus, table = corpus_and_table
        paths = corpus.to_paths()
        if legacy == "two-tables":
            other = OFFSCodec(
                OFFSConfig(iterations=1, sample_exponent=0), base_id=table.base_id
            ).fit(corpus).table
            parts = [(table, paths[:40]), (other, paths[40:])]
            starts = [0, 40]
        else:
            parts = [(table, paths[0::2]), (table, paths[1::2])]
            starts = [None, None]
        entries = []
        for index, (part_table, part_paths) in enumerate(parts):
            store = CompressedPathStore(part_table)
            store.extend(part_paths)
            name = shard_filename("legacy", index)
            with open(str(tmp_path / name), "wb") as fh:
                fh.write(dumps_store_v2(store))
            entries.append({
                "file": name,
                "start": starts[index],
                "count": len(part_paths),
                "table_crc": zlib.crc32(dumps_table(part_table)),
            })
        if legacy == "two-tables":
            assert entries[0]["table_crc"] != entries[1]["table_crc"]
        manifest_path = str(tmp_path / "legacy.rpsm")
        with open(manifest_path, "wb") as fh:
            fh.write(_manifest_blob(
                _manifest_document(entries, fn="hash" if legacy == "hash" else "range")
            ))
        with pytest.raises(CorruptDataError):
            ShardedPathStore.open(manifest_path)
        with pytest.raises(CorruptDataError):
            open_store(manifest_path)
        for entry, (_, part_paths) in zip(entries, parts):
            with MappedPathStore.open(str(tmp_path / entry["file"])) as shard:
                assert shard.retrieve_all() == [tuple(p) for p in part_paths]


_fork_required = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method not available on this platform",
)


class TestProcessBoundaries:
    def test_pickle_round_trip_by_path(self, sharded):
        clone = pickle.loads(pickle.dumps(sharded))
        assert clone.retrieve_all() == sharded.retrieve_all()
        assert clone.owner_pid == os.getpid()
        clone.close()

    def test_process_local_same_process_is_self(self, sharded):
        assert sharded.process_local() is sharded

    def test_reopen_is_fresh(self, sharded):
        again = sharded.reopen()
        assert again is not sharded
        assert again.retrieve(0) == sharded.retrieve(0)
        again.close()

    def test_unbacked_store_refuses_pickle_and_reopen(self, sharded):
        bare = ShardedPathStore(sharded.manifest, sharded.directory)
        with pytest.raises(StateError):
            pickle.dumps(bare)
        with pytest.raises(StateError):
            bare.reopen()

    @_fork_required
    def test_fork_after_open_child_and_parent_identical(
        self, corpus_and_table, monolithic, tmp_path
    ):
        """Fork after open (shards already mapped); child must re-map via
        process_local() and both sides answer byte-identically."""
        corpus, table = corpus_and_table
        out = str(tmp_path / "fork.rpsm")
        build_sharded_store(corpus, table, out, shards=3)
        store = ShardedPathStore.open(out)
        expected = {
            "paths": monolithic.retrieve_all(),
            "batch": [monolithic.retrieve(pid) for pid in (0, 7, 3)],
            "between": monolithic.paths_between(1, 105),
        }
        # Touch every shard pre-fork so mapped state crosses the fork.
        assert store.retrieve_all() == expected["paths"]

        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()

        def child() -> None:
            local = store.process_local()
            child_conn.send({
                "reopened": local is not store,
                "owner_is_child": local.owner_pid == os.getpid(),
                "paths": local.retrieve_all(),
                "batch": local.retrieve_batch([0, 7, 3]),
                "between": local.paths_between(1, 105),
            })
            local.close()

        worker = context.Process(target=child)
        worker.start()
        result = parent_conn.recv()
        worker.join(10.0)
        assert worker.exitcode == 0
        assert result["reopened"] is True
        assert result["owner_is_child"] is True
        assert result["paths"] == expected["paths"]
        assert result["batch"] == expected["batch"]
        assert result["between"] == expected["between"]
        # The parent's store is untouched by the child's lifecycle.
        assert store.owner_pid == os.getpid()
        assert store.retrieve_all() == expected["paths"]
        assert store.retrieve_batch([0, 7, 3]) == expected["batch"]
        assert store.paths_between(1, 105) == expected["between"]
        store.close()


class TestStreamingIngest:
    def _paths(self, n=700):
        # Deterministic mildly varied traffic over a fixed vocabulary.
        return [
            (1 + (i % 9), 2, 3, 4, 5 + (i % 4), 60 + (i % 11))
            for i in range(n)
        ]

    def test_seal_and_reopen_round_trip(self, tmp_path):
        paths = self._paths()
        out = str(tmp_path / "stream.rpsm")
        with ShardedIngest(out, train_after=50, memtable_paths=200) as ingest:
            gids = ingest.feed_many(paths)
            assert len(ingest) == len(paths)
        store = ShardedPathStore.open(out)
        assert len(store) == len(paths)
        assert store.shard_count >= len(paths) // 200
        assert store.retrieve_all() == [tuple(p) for p in paths]
        # Steady-state global ids point at the right paths forever.
        for i, gid in enumerate(gids):
            if gid is not None:
                assert store.retrieve(gid) == tuple(paths[i])
        store.close()

    def test_memtable_memory_is_bounded(self, tmp_path):
        out = str(tmp_path / "bounded.rpsm")
        with ShardedIngest(out, train_after=50, memtable_paths=100) as ingest:
            high_water = 0
            for path in self._paths(650):
                ingest.feed(path)
                high_water = max(high_water, len(ingest._stream))
                # The live memtable never exceeds its seal threshold.
                assert len(ingest._stream) <= 100
            assert ingest.sealed_paths >= 600
        assert high_water <= 100

    def test_manifest_readable_between_seals(self, tmp_path):
        paths = self._paths(500)
        out = str(tmp_path / "live.rpsm")
        ingest = ShardedIngest(out, train_after=50, memtable_paths=100)
        ingest.feed_many(paths)
        # Not closed: readers still see every *sealed* prefix, consistently.
        store = ShardedPathStore.open(out)
        sealed = len(store)
        assert sealed == ingest.sealed_paths
        assert store.retrieve_all() == [tuple(p) for p in paths[:sealed]]
        store.close()
        ingest.close()

    def test_failed_seal_write_loses_no_acknowledged_path(
        self, tmp_path, monkeypatch
    ):
        import repro.core.sharded as sharded_module

        real_write = sharded_module.publish_file
        failed = []

        def fail_first_shard_write(path, blob):
            if not failed and not path.endswith(".rpsm"):
                failed.append(path)
                raise OSError("injected shard write failure")
            real_write(path, blob)

        monkeypatch.setattr(
            sharded_module, "publish_file", fail_first_shard_write
        )
        paths = self._paths(500)
        out = str(tmp_path / "flaky.rpsm")
        ingest = ShardedIngest(out, train_after=50, memtable_paths=100)
        acknowledged = {}
        for i, path in enumerate(paths):
            try:
                gid = ingest.feed(path)
            except OSError:
                continue
            acknowledged[i] = gid
        ingest.close()
        assert failed
        store = ShardedPathStore.open(out)
        store.check()
        decoded = store.retrieve_all()
        for i, gid in acknowledged.items():
            assert decoded[i] == tuple(paths[i])
            if gid is not None:
                assert store.retrieve(gid) == tuple(paths[i])
        store.close()

    def test_close_is_idempotent_and_seals_tail(self, tmp_path):
        out = str(tmp_path / "tail.rpsm")
        ingest = ShardedIngest(out, train_after=10, memtable_paths=1000)
        ingest.feed_many(self._paths(37))  # never hits the seal threshold
        assert ingest.close() == out
        assert ingest.close() == out
        with pytest.raises(StateError):
            ingest.feed((1, 2))
        store = ShardedPathStore.open(out)
        assert len(store) == 37
        store.close()

    def test_empty_ingest_writes_valid_empty_manifest(self, tmp_path):
        out = str(tmp_path / "none.rpsm")
        ShardedIngest(out, train_after=10, memtable_paths=100).close()
        store = ShardedPathStore.open(out)
        assert len(store) == 0 and store.shard_count == 0
        store.close()

    def test_warmup_smaller_than_memtable_enforced(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ShardedIngest(str(tmp_path / "x.rpsm"), train_after=500, memtable_paths=100)


class TestShardWriter:
    """Both writers publish each shard, then a manifest naming every shard so far."""

    @staticmethod
    def _fail_shard_write(monkeypatch, stem, index):
        """Make publishing shard *index* of *stem* fail as a full disk would."""
        import repro.core.sharded as sharded_module

        real_publish = sharded_module.publish_file
        doomed = shard_filename(stem, index)

        def publish(path, blob):
            if os.path.basename(path) == doomed:
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            real_publish(path, blob)

        monkeypatch.setattr(sharded_module, "publish_file", publish)

    def test_failed_rebuild_leaves_the_published_prefix_readable(
        self, corpus_and_table, tmp_path, monkeypatch
    ):
        corpus, table = corpus_and_table
        out = str(tmp_path / "re.rpsm")
        build_sharded_store(corpus, table, out, shards=4)
        other = OFFSCodec(
            OFFSConfig(iterations=1, sample_exponent=0), base_id=table.base_id
        ).fit(corpus).table
        assert zlib.crc32(dumps_table(other)) != zlib.crc32(dumps_table(table))
        self._fail_shard_write(monkeypatch, "re", 2)
        with pytest.raises(OSError):
            build_sharded_store(corpus, other, out, shards=4)
        published = partition_corpus(corpus, 4)[:2]
        with ShardedPathStore.open(out) as store:
            assert store.check() == sum(len(part) for part in published)
            assert store.table == other
            assert store.retrieve_all() == [
                path for part in published for path in part.to_paths()
            ]

    @pytest.mark.parametrize("failing", [0, 1, 2, 3])
    def test_failed_build_names_exactly_the_shards_before_the_failure(
        self, corpus_and_table, tmp_path, monkeypatch, failing
    ):
        corpus, table = corpus_and_table
        out = str(tmp_path / "fresh.rpsm")
        self._fail_shard_write(monkeypatch, "fresh", failing)
        with pytest.raises(OSError):
            build_sharded_store(corpus, table, out, shards=4)
        if failing == 0:  # nothing was published, not even a manifest
            assert not os.path.exists(out)
            return
        with open(out, "rb") as fh:
            manifest = loads_manifest(fh.read())
        assert [info.file for info in manifest.shards] == [
            shard_filename("fresh", index) for index in range(failing)
        ]

    @pytest.mark.parametrize("writer", ["ordered-build", "ingest"])
    def test_manifest_entries_match_each_shard_opened_alone(
        self, corpus_and_table, frequency_codec, tmp_path, writer
    ):
        corpus, table = corpus_and_table
        out = str(tmp_path / "alone.rpsm")
        if writer == "ordered-build":
            build_sharded_store(
                corpus, frequency_codec.table, out, shards=3,
                order=frequency_codec.order,
            )
        else:
            with ShardedIngest(
                out,
                config=OFFSConfig(iterations=3, sample_exponent=0),
                train_after=30,
                memtable_paths=30,
                base_id=table.base_id,
            ) as ingest:
                ingest.feed_many(corpus.to_paths())
        with open(out, "rb") as fh:
            manifest = loads_manifest(fh.read())
        assert manifest.shard_count == 3
        for info in manifest.shards:
            with MappedPathStore.open(str(tmp_path / info.file)) as shard:
                assert (info.count, info.table_crc) == (
                    len(shard), shard.table_fingerprint
                )


class TestOrphanShards:
    """A closing writer removes the shard files its final manifest no longer names."""

    @staticmethod
    def _listing(tmp_path):
        return sorted(os.listdir(tmp_path))

    def test_rebuild_with_fewer_shards_removes_the_rest(self, corpus_and_table, tmp_path):
        corpus, table = corpus_and_table
        out = str(tmp_path / "s.rpsm")
        build_sharded_store(corpus, table, out, shards=4)
        # Look-alikes that are not this store's shard files stay put.
        for name in ("s.shard-7.rpc2", "t.shard-00003.rpc2", "s.shard-00003.rpc2.bak"):
            (tmp_path / name).write_bytes(b"x")
        build_sharded_store(corpus, table, out, shards=2)
        assert self._listing(tmp_path) == sorted([
            "s.rpsm", shard_filename("s", 0), shard_filename("s", 1),
            "s.shard-7.rpc2", "t.shard-00003.rpc2", "s.shard-00003.rpc2.bak",
        ])
        with ShardedPathStore.open(out) as store:
            assert store.check() == len(corpus)
            assert store.retrieve_all() == corpus.to_paths()

    def test_ingest_over_a_larger_store_removes_the_rest(self, corpus_and_table, tmp_path):
        corpus, table = corpus_and_table
        out = str(tmp_path / "s.rpsm")
        build_sharded_store(corpus, table, out, shards=4)
        with ShardedIngest(
            out,
            config=OFFSConfig(iterations=3, sample_exponent=0),
            train_after=30,
            memtable_paths=len(corpus),
            base_id=table.base_id,
        ) as ingest:
            ingest.feed_many(corpus.to_paths())
        assert self._listing(tmp_path) == ["s.rpsm", shard_filename("s", 0)]
        with ShardedPathStore.open(out) as store:
            assert store.check() == len(corpus)
            assert store.retrieve_all() == corpus.to_paths()

    def test_failed_rebuild_orphans_remain_until_the_next_close(
        self, corpus_and_table, tmp_path, monkeypatch
    ):
        corpus, table = corpus_and_table
        out = str(tmp_path / "s.rpsm")
        build_sharded_store(corpus, table, out, shards=4)
        with monkeypatch.context() as patch:
            TestShardWriter._fail_shard_write(patch, "s", 1)
            with pytest.raises(OSError):
                build_sharded_store(corpus, table, out, shards=2)
        assert self._listing(tmp_path) == sorted(
            ["s.rpsm"] + [shard_filename("s", index) for index in range(4)]
        )
        build_sharded_store(corpus, table, out, shards=2)
        assert self._listing(tmp_path) == sorted(
            ["s.rpsm"] + [shard_filename("s", index) for index in range(2)]
        )
