"""Vertex reordering: the order registry, persistence, and store wiring.

Three layers of guarantees:

* **VertexOrder** is a checked bijection — apply/invert round-trip on the
  fitted order (property-based), serialization survives ``to_bytes`` /
  ``from_bytes``, and corrupt bodies are rejected loudly.
* **Persistence** — an ordered v2 archive carries the RPOT section behind a
  header flag; unordered archives are byte-identical to what pre-flag
  writers produced, so old readers never notice the feature exists.
* **Differential** — a reordered store (in-memory, mapped, sharded) answers
  the *entire* query surface (`retrieve`/`retrieve_slice`/`paths_between`/
  `subpath_search`) value-identically to the unordered store, in original
  ids.  Reordering must be invisible to every reader.

The archive and differential layers run on the fitted ``frequency`` order
and on orders stored under the retired ``bfs`` / ``locality`` names, which
older writers fitted and which every reader must still open.
"""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OFFSConfig
from repro.core.errors import ConfigError, CorruptDataError, InvalidInputError
from repro.core.mapped import MappedPathStore
from repro.core.offs import OFFSCodec
from repro.core.serialize import (
    ORDER_SECTION_MAGIC,
    STORE_V2_FLAG_ORDER,
    dumps_store,
    dumps_store_v2,
    loads_store_v2,
    parse_store_v2_header,
)
from repro.core.store import CompressedPathStore
from repro.paths.dataset import PathDataset
from repro.paths.reorder import (
    ORDER_STRATEGIES,
    VertexOrder,
    fit_order,
    order_entropy_bits,
    varint_bytes_saved,
)

NON_IDENTITY = tuple(s for s in ORDER_STRATEGIES if s != "identity")

#: Strategy names an archive's order section may carry: the fitted one plus
#: the retired ``bfs`` / ``locality`` names older writers stored.
STORED_NAMES = NON_IDENTITY + ("bfs", "locality")


def _workload(seed=0, paths=60):
    """A skewed workload: a hot backbone subpath plus random traffic."""
    rng = random.Random(seed)
    hot = [1000, 1001, 1002, 1003]
    out = []
    for i in range(paths):
        p = [rng.randrange(900, 1100) for _ in range(rng.randrange(3, 9))]
        if i % 3 == 0:
            cut = rng.randrange(len(p) + 1)
            p = p[:cut] + hot + p[cut:]
        out.append(tuple(p))
    return out


# -- the order object ------------------------------------------------------------


class TestVertexOrder:
    def test_bijection_and_application(self):
        order = VertexOrder("frequency", [30, 10, 20])
        assert len(order) == 3
        assert order.apply_vertex(30) == 0
        assert order.apply_path((10, 20, 30)) == (1, 2, 0)
        assert order.invert_path((1, 2, 0)) == (10, 20, 30)

    def test_unknown_vertex_raises(self):
        order = VertexOrder("frequency", [5, 6])
        with pytest.raises(InvalidInputError):
            order.apply_vertex(7)
        with pytest.raises(InvalidInputError):
            order.apply_path((5, 7))
        with pytest.raises(InvalidInputError):
            order.invert_path((0, 2))

    def test_rejects_bad_maps(self):
        with pytest.raises(InvalidInputError):
            VertexOrder("frequency", [1, 1])
        with pytest.raises(InvalidInputError):
            VertexOrder("frequency", [-1])
        with pytest.raises(InvalidInputError):
            VertexOrder("nope", [0, 1])

    def test_bytes_round_trip(self):
        order = VertexOrder("locality", [300, 5, 129, 0])
        again = VertexOrder.from_bytes(order.to_bytes())
        assert again == order
        assert again.strategy == "locality"

    def test_from_bytes_rejects_identity_and_garbage(self):
        body = VertexOrder("frequency", [1, 0]).to_bytes()
        with pytest.raises(CorruptDataError):
            VertexOrder.from_bytes(body + b"\x00")  # trailing byte
        with pytest.raises(CorruptDataError):
            VertexOrder.from_bytes(body[:-1])  # truncated varint
        with pytest.raises(CorruptDataError):
            VertexOrder.from_bytes(b"\x08identity\x00")
        with pytest.raises(CorruptDataError):
            VertexOrder.from_bytes(b"")

    def test_size_bytes_counts_varints(self):
        # count marker (1) + ids 0,127 (1 byte each) + 128 (2 bytes) = 5
        order = VertexOrder("frequency", [0, 127, 128])
        assert order.size_bytes() == 1 + 1 + 1 + 2

    def test_transform_corpus_relabels(self):
        from repro.core.flatcorpus import FlatCorpus

        corpus = FlatCorpus.from_paths([(10, 20), (20, 30)], name="w")
        order = VertexOrder("frequency", [20, 10, 30])
        out = order.transform_corpus(corpus)
        assert [tuple(p) for p in out] == [(1, 0), (0, 2)]
        assert out.name.endswith("/frequency")


class TestBlockedRelabel:
    """The relabel runs in blocks and agrees with the per-path relabel."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        from repro.core import flatcorpus

        monkeypatch.setattr(flatcorpus, "BLOCK_SYMBOLS", 8)

    def test_blocked_relabel_equals_apply_path(self):
        from repro.core.flatcorpus import FlatCorpus

        rng = random.Random(3)
        paths = [
            tuple(rng.randrange(0, 500, 7) for _ in range(rng.randrange(0, 12)))
            for _ in range(80)
        ]
        corpus = FlatCorpus.from_paths(paths)
        order = fit_order("frequency", paths)
        blocked = order.transform_corpus(corpus)
        assert blocked.to_paths() == [order.apply_path(p) for p in paths]
        assert list(blocked.offsets) == list(corpus.offsets)

    def test_first_uncovered_vertex_past_a_block_is_named(self):
        from repro.core.flatcorpus import FlatCorpus

        paths = [(1, 2, 3)] * 5 + [(2, 99, 3, 77)]
        order = VertexOrder("frequency", [3, 2, 1])
        with pytest.raises(InvalidInputError, match="vertex 99 is not covered"):
            order.transform_corpus(FlatCorpus.from_paths(paths))

    def test_empty_order_covers_nothing(self):
        from repro.core.flatcorpus import FlatCorpus

        order = VertexOrder("frequency", [])
        assert order.transform_corpus(FlatCorpus.from_paths([(), ()])).to_paths() == [(), ()]
        with pytest.raises(InvalidInputError, match="vertex 5 is not covered"):
            order.transform_corpus(FlatCorpus.from_paths([(), (5, 6)]))


# -- fitting ---------------------------------------------------------------------


class TestFitting:
    def test_identity_returns_none(self):
        assert fit_order("identity", _workload()) is None

    def test_unknown_strategy_raises(self):
        with pytest.raises(InvalidInputError):
            fit_order("alphabetical", _workload())

    @pytest.mark.parametrize("retired", ["bfs", "locality"])
    def test_retired_strategies_no_longer_fit(self, retired):
        with pytest.raises(InvalidInputError):
            fit_order(retired, _workload())
        with pytest.raises(ConfigError):
            OFFSConfig(reorder=retired)

    @pytest.mark.parametrize("strategy", NON_IDENTITY)
    def test_covers_every_vertex(self, strategy):
        paths = _workload()
        order = fit_order(strategy, paths)
        seen = {v for p in paths for v in p}
        assert len(order) == len(seen)
        for v in seen:
            assert order.invert_path((order.apply_vertex(v),)) == (v,)

    @pytest.mark.parametrize("strategy", NON_IDENTITY)
    def test_deterministic(self, strategy):
        paths = _workload(seed=3)
        assert fit_order(strategy, paths) == fit_order(strategy, paths)

    def test_frequency_puts_hottest_first(self):
        order = fit_order("frequency", [(7, 8, 7), (7, 9, 8)])
        assert order.apply_vertex(7) == 0   # count 3
        assert order.apply_vertex(8) == 1   # count 2
        assert order.apply_vertex(9) == 2   # count 1

    def test_frequency_ties_break_on_smaller_id(self):
        order = fit_order("frequency", [(5, 3), (3, 5)])
        assert order.apply_vertex(3) == 0
        assert order.apply_vertex(5) == 1

    def test_entropy_and_bytes_saved(self):
        paths = [(200,) * 9 + (1000,)]
        assert order_entropy_bits({200: 9, 1000: 1}) == pytest.approx(0.469, abs=1e-3)
        order = fit_order("frequency", paths)
        # 200 (2-byte varint) -> id 0 (1 byte) x9 occurrences saves 9;
        # 1000 (2 bytes) -> id 1 (1 byte) saves 1.
        assert varint_bytes_saved(order, paths) == 10
        assert varint_bytes_saved(None, paths) == 0

    @pytest.mark.parametrize("strategy", NON_IDENTITY)
    def test_fit_publishes_observability(self, strategy):
        from repro.obs import catalog
        from repro.obs.runtime import instrumented

        with instrumented() as obs:
            fit_order(strategy, _workload())
        metrics = obs.registry.as_dict()
        assert metrics["gauges"]["reorder.vertices"] > 0
        assert catalog.REORDER_FIT_SECONDS in metrics["timers"]


# -- property tests --------------------------------------------------------------


paths_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=12),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(paths=paths_strategy, strategy=st.sampled_from(NON_IDENTITY))
def test_apply_invert_round_trip_property(paths, strategy):
    paths = [tuple(p) for p in paths]
    order = fit_order(strategy, paths)
    for p in paths:
        assert order.invert_path(order.apply_path(p)) == p
    assert VertexOrder.from_bytes(order.to_bytes()) == order


# -- persistence in the archive --------------------------------------------------


def _stores(reorder, paths=None):
    """``(dataset, order, store)`` for a fitted or a retired strategy name.

    A retired name cannot be fit any more; its store carries the order an
    older writer could have stored under it — here every vertex numbered
    in descending original-id order — over a table fit on that relabelled
    corpus, exactly as the codec would build it.
    """
    ds = PathDataset(paths or _workload(), name="w")
    if reorder in ORDER_STRATEGIES:
        codec = OFFSCodec(
            OFFSConfig(iterations=2, sample_exponent=0, reorder=reorder)
        ).fit(ds.to_flat())
        table, order = codec.table, codec.order
    else:
        order = VertexOrder(
            reorder, sorted({v for p in ds for v in p}, reverse=True)
        )
        table = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0)).fit(
            order.transform_corpus(ds.to_flat())
        ).table
    store = CompressedPathStore.from_corpus(ds.to_flat(), table, order=order)
    return ds, order, store


class TestArchivePersistence:
    @pytest.mark.parametrize("strategy", STORED_NAMES)
    def test_v2_round_trip(self, strategy):
        ds, order, store = _stores(strategy)
        blob = dumps_store_v2(store)
        header = parse_store_v2_header(blob)
        assert header.has_order
        assert strategy.encode("utf-8") in blob[header.order_body_offset :]
        mapped = loads_store_v2(blob)
        assert mapped.order == order
        assert mapped.order.strategy == strategy
        assert mapped.retrieve_all() == [tuple(p) for p in ds]

    def test_unordered_blob_is_byte_identical_to_pre_flag_writer(self):
        ds, _, store = _stores("identity")
        blob = dumps_store_v2(store)
        header = parse_store_v2_header(blob)
        assert not header.has_order
        assert header.flags == 0
        assert loads_store_v2(blob).order is None

    def test_v1_refuses_ordered_store(self):
        _, _, store = _stores("frequency")
        with pytest.raises(InvalidInputError):
            dumps_store(store)

    @pytest.mark.parametrize("damage", ["bad-magic", "trailing-bytes", "short-prefix"])
    def test_damaged_order_frame_rejected(self, damage):
        # With test_corrupt_order_body_detected (CRC mismatch) and
        # test_truncated_order_section_detected (truncated body), every
        # damage to the RPOT frame is caught through the file's own parser.
        _, _, store = _stores("frequency")
        blob = dumps_store_v2(store)
        section = parse_store_v2_header(blob).total_size
        damaged = {
            "bad-magic": blob[:section] + b"XXXX" + blob[section + 4:],
            "trailing-bytes": blob + b"\x00",
            "short-prefix": blob[: section + 5],
        }[damage]
        with pytest.raises(CorruptDataError):
            loads_store_v2(damaged).order

    @pytest.mark.parametrize("damage", ["truncated-varint", "over-long-varint"])
    def test_undecodable_order_body_names_its_byte_offset(self, damage):
        _, order, store = _stores("frequency")
        blob = dumps_store_v2(store)
        section = parse_store_v2_header(blob).total_size
        body = order.to_bytes()
        if damage == "truncated-varint":
            body = body[:-1] + bytes([body[-1] | 0x80])
        else:
            name = order.strategy.encode("utf-8")
            body = bytes([len(name)]) + name + b"\x80" * 10 + b"\x01"
        # A well-framed section with a valid CRC: only the body decode fails.
        damaged = blob[:section] + struct.pack(
            "<4sII", ORDER_SECTION_MAGIC, len(body), zlib.crc32(body)
        ) + body
        mapped = loads_store_v2(damaged)
        with pytest.raises(CorruptDataError, match=r"byte offset \d+"):
            mapped.order

    def test_corrupt_order_body_detected(self):
        _, _, store = _stores("frequency")
        blob = bytearray(dumps_store_v2(store))
        header = parse_store_v2_header(bytes(blob))
        blob[header.order_body_offset] ^= 0xFF
        mapped = loads_store_v2(bytes(blob))
        with pytest.raises(CorruptDataError):
            mapped.order

    def test_truncated_order_section_detected(self):
        _, _, store = _stores("frequency")
        blob = dumps_store_v2(store)
        with pytest.raises(CorruptDataError):
            parse_store_v2_header(blob[:-3])

    def test_unknown_flag_bits_rejected(self):
        _, _, store = _stores("identity")
        blob = bytearray(dumps_store_v2(store))
        blob[5] |= 0x80  # a flag this build does not know
        blob[60:64] = struct.pack("<I", zlib.crc32(bytes(blob[:60])))
        with pytest.raises(CorruptDataError):
            parse_store_v2_header(bytes(blob))

    @pytest.mark.parametrize("strategy", STORED_NAMES)
    def test_ordered_cr_charges_for_the_mapping(self, strategy):
        _, order, store = _stores(strategy)
        # Same table and tokens without the order: the ordered store's size
        # must exceed it by exactly the persisted mapping's byte cost, so
        # CR cannot silently omit the data a reader needs.
        from repro.paths.encoding import DEFAULT_ENCODING, VarintEncoding

        bare = CompressedPathStore.from_tokens(store.table, store.tokens())
        for enc in (DEFAULT_ENCODING, VarintEncoding()):
            assert (
                store.compressed_size_bytes(enc)
                == bare.compressed_size_bytes(enc) + order.size_bytes(enc)
            )


# -- differential: reordering is invisible to every reader -----------------------


class TestDifferential:
    @pytest.fixture(scope="class", params=STORED_NAMES)
    def pair(self, request):
        paths = _workload(seed=11, paths=80)
        _, _, plain = _stores("identity", paths)
        _, _, ordered = _stores(request.param, paths)
        return paths, plain, ordered

    def test_retrieve_surface(self, pair):
        paths, plain, ordered = pair
        assert ordered.retrieve_all() == plain.retrieve_all() == list(paths)
        for pid in (0, 7, len(paths) - 1):
            assert ordered.retrieve(pid) == plain.retrieve(pid)
            assert ordered.retrieve_slice(pid, 1, 3) == plain.retrieve_slice(pid, 1, 3)

    def test_mapped_retrieve_surface(self, pair):
        paths, _, ordered = pair
        mapped = loads_store_v2(dumps_store_v2(ordered))
        assert mapped.retrieve_all() == list(paths)
        assert mapped.retrieve_batch([0, 3, 5]) == [paths[0], paths[3], paths[5]]
        assert mapped.retrieve_slice(2, 0, 2) == paths[2][0:2]

    def test_query_surface(self, pair):
        paths, plain, ordered = pair
        for vertex in (1000, 1003, 950, 424242):  # last one absent
            assert (
                ordered.affected_paths(vertex)
                == plain.affected_paths(vertex)
            )
        terminals = {(p[0], p[-1]) for p in paths}
        for src, dst in sorted(terminals)[:5]:
            assert ordered.paths_between(src, dst) == plain.paths_between(src, dst)
        for query in ((1000, 1001, 1002), (1001, 1002, 1003), (424242, 1)):
            assert (
                ordered.subpath_search(query)
                == plain.subpath_search(query)
            )

    def test_sharded_query_surface(self, pair, tmp_path):
        paths, plain, ordered = pair
        from repro.core.sharded import ShardedPathStore, build_sharded_store

        manifest = str(tmp_path / "store.rpsm")
        build_sharded_store(
            PathDataset(paths, name="w").to_flat(),
            ordered.table,
            manifest,
            shards=2,
            order=ordered.order,
        )
        with ShardedPathStore.open(manifest) as sharded:
            assert sharded.order == ordered.order
            assert sharded.retrieve_all() == list(paths)
            assert sharded.affected_paths(1000) == [
                paths[i] for i in range(len(paths)) if 1000 in paths[i]
            ]
            sub = sharded.subpath_search((1000, 1001, 1002))
            assert sub == plain.subpath_search((1000, 1001, 1002))

    @pytest.mark.parametrize("strategy", STORED_NAMES)
    def test_append_goes_through_the_order(self, strategy):
        _, _, store = _stores(strategy)
        before = len(store)
        store.append((1000, 1001, 1002))
        assert store.retrieve(before) == (1000, 1001, 1002)


# -- satellite regressions -------------------------------------------------------


class TestFrequencyOrderTieBreak:
    def test_iteration_order_cannot_change_the_mapping(self):
        # Same multiset of paths, two different iteration orders: ties in
        # the frequency sort must break on vertex id, never input order.
        paths_a = [(9, 5), (5, 9), (7, 3)]
        paths_b = [(7, 3), (5, 9), (9, 5)]
        a = fit_order("frequency", paths_a)
        b = fit_order("frequency", paths_b)
        assert a == b
        # 5 and 9 tie at count 2 -> the smaller original id takes id 0.
        assert a.invert_path((0,)) == (5,)


class TestPreprocessIdMapping:
    def test_mapping_threads_out_and_inverts(self):
        from repro.paths.preprocess import preprocess_paths

        raw = [["a", "b", "c", "b", "d"], ["c", "c", "d", "a"]]
        dataset, report = preprocess_paths(raw, assign_ids=True)
        assert report.id_mapping == {"a": 0, "b": 1, "c": 2, "d": 3}
        for path in dataset:
            labels = [report.original_label(v) for v in path]
            assert all(isinstance(x, str) for x in labels)
        assert report.original_label(0) == "a"
        with pytest.raises(KeyError):
            report.original_label(99)

    def test_without_assign_ids_mapping_is_none(self):
        from repro.paths.preprocess import preprocess_paths

        _, report = preprocess_paths([[1, 2, 3]])
        assert report.id_mapping is None
        with pytest.raises(KeyError):
            report.original_label(1)
