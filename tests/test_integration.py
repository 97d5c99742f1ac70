"""End-to-end integration tests across subsystem boundaries.

These walk the full production story: raw recorded walks → preprocessing →
table construction → compressed store → retrieval queries → serialization →
reload — asserting losslessness and consistency at every joint.
"""

import random

import pytest

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.serialize import dumps_store, loads_store
from repro.core.store import CompressedPathStore
from repro.graphs.road import RoadNetwork
from repro.graphs.topology import CloudTopology
from repro.graphs.trajectory import TrajectoryRecorder
from repro.paths.preprocess import assign_new_ids, group_by_terminals, preprocess_paths


class TestTaxiPipeline:
    """Raw GPS → grid snapping → repair → compression → retrieval."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        network = RoadNetwork(width=20, height=20, hotspots=8, seed=2)
        recorder = TrajectoryRecorder(network)
        raw_walks = recorder.record_dataset(60, seed=5)
        dataset, report = preprocess_paths(raw_walks, name="taxi")
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
        store = CompressedPathStore.from_codec(dataset, codec)
        return raw_walks, dataset, report, store

    def test_preprocessing_repaired_everything(self, pipeline):
        _, dataset, report, _ = pipeline
        assert report.input_paths == 60
        assert len(dataset) == report.output_paths
        for path in dataset:
            assert len(set(path)) == len(path)

    def test_store_round_trips_the_cleaned_data(self, pipeline):
        _, dataset, _, store = pipeline
        assert store.retrieve_all() == list(dataset)

    def test_compression_actually_helps(self, pipeline):
        _, _, _, store = pipeline
        assert store.compression_ratio() > 1.2

    def test_serialization_survives(self, pipeline):
        _, dataset, _, store = pipeline
        restored = loads_store(dumps_store(store))
        assert restored.retrieve_all() == list(dataset)
        # The restored store keeps serving single-path retrievals.
        assert restored.retrieve(3) == dataset[3]


class TestCloudMonitoringPipeline:
    """IP-hop logs → id assignment → compression → Case 1/2 queries."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        topology = CloudTopology(clients=120, seed=3)
        paths = topology.generate_paths(250, seed=7)
        # Pretend the log carried string labels; re-id them densely.
        labelled = [[f"ip-{v}" for v in p] for p in paths]
        relabelled, mapping = assign_new_ids(labelled)
        dataset, _ = preprocess_paths(relabelled, name="cloud")
        codec = OFFSCodec(OFFSConfig(iterations=4, sample_exponent=0))
        store = CompressedPathStore.from_codec(dataset, codec)
        return dataset, store, mapping

    def test_id_mapping_is_dense(self, pipeline):
        dataset, _, mapping = pipeline
        assert set(mapping.values()) == set(range(len(mapping)))

    def test_case1_affected_nodes(self, pipeline):
        dataset, store, _ = pipeline
        issue = dataset[0][2]  # some middle-tier machine
        affected = store.affected_vertices(issue)
        brute = set()
        for p in dataset:
            if issue in p:
                brute.update(p)
        brute.discard(issue)
        assert affected == brute
        assert affected  # a middle-tier machine always shares paths

    def test_case2_terminal_pair(self, pipeline):
        dataset, store, _ = pipeline
        src, dst = dataset[5][0], dataset[5][-1]
        results = store.paths_between(src, dst)
        assert dataset[5] in results
        for p in results:
            assert p[0] == src and p[-1] == dst

    def test_group_sets_compress_independently(self, pipeline):
        dataset, _, _ = pipeline
        groups = group_by_terminals(dataset)
        # Compress one group on its own — the paper's "group set" usage.
        key = max(groups, key=lambda k: len(groups[k]))
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
        store = CompressedPathStore.from_codec(groups[key], codec)
        assert store.retrieve_all() == list(groups[key])


class TestIncrementalIngest:
    def test_appends_after_fit_are_retrievable(self):
        topology = CloudTopology(clients=60, seed=9)
        warmup = topology.generate_paths(150, seed=1)
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0))
        from repro.paths.dataset import PathDataset

        store = CompressedPathStore.from_codec(PathDataset(warmup), codec)
        late = topology.generate_paths(30, seed=2)
        ids = store.extend(late)
        for pid, path in zip(ids, late):
            assert store.retrieve(pid) == path

    def test_mixed_workload_roundtrip(self):
        rng = random.Random(0)
        topology = CloudTopology(clients=50, seed=4)
        network = RoadNetwork(width=10, height=10, hotspots=5, seed=4)
        from repro.paths.dataset import PathDataset

        mixed = topology.generate_paths(80, seed=3) + [
            network.sample_trip(rng) for _ in range(40)
        ]
        dataset = PathDataset(mixed, name="mixed")
        codec = OFFSCodec(OFFSConfig(iterations=3, sample_exponent=0), base_id=20_000)
        store = CompressedPathStore.from_codec(dataset, codec)
        assert store.retrieve_all() == list(dataset)
