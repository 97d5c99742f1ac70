"""Unit tests for the streaming compressor."""

import pytest

from repro.core.config import OFFSConfig
from repro.core.stream import StreamingCompressor
from repro.workloads.registry import make_dataset


def make_stream(train_after=50, **kwargs) -> StreamingCompressor:
    return StreamingCompressor(
        config=OFFSConfig(iterations=3, sample_exponent=0),
        train_after=train_after,
        **kwargs,
    )


class TestWarmup:
    def test_buffers_until_threshold(self):
        stream = make_stream(train_after=10)
        for i in range(9):
            assert stream.feed((1, 2, 3, 4 + i)) is None
        assert not stream.trained
        assert len(stream) == 9

    def test_trains_at_threshold_and_flushes(self):
        stream = make_stream(train_after=10)
        paths = [(1, 2, 3, 4, i + 10) for i in range(10)]
        for p in paths:
            stream.feed(p)
        assert stream.trained
        assert len(stream.store) == 10
        for i, p in enumerate(paths):
            assert stream.retrieve(i) == p

    def test_store_access_before_training_raises(self):
        stream = make_stream(train_after=10)
        stream.feed((1, 2, 3))
        with pytest.raises(RuntimeError, match="warming"):
            stream.store

    def test_train_now_forces_early_training(self):
        stream = make_stream(train_after=1000)
        stream.feed((1, 2, 3))
        stream.train_now()
        assert stream.trained
        assert stream.retrieve(0) == (1, 2, 3)

    def test_train_now_without_data_raises(self):
        with pytest.raises(RuntimeError, match="nothing buffered"):
            make_stream().train_now()

    def test_double_training_raises(self):
        stream = make_stream(train_after=1)
        stream.feed((1, 2, 3))
        with pytest.raises(RuntimeError, match="already"):
            stream.train_now()


class TestSteadyState:
    def test_ids_dense_across_warmup_boundary(self):
        stream = make_stream(train_after=5)
        ids = stream.feed_many([(1, 2, 3)] * 5)      # warm-up, ids None
        assert ids == [None] * 5
        late = stream.feed_many([(1, 2, 9), (2, 3, 9)])
        assert late == [5, 6]
        assert stream.retrieve(6) == (2, 3, 9)

    def test_unseen_ids_still_compressible(self):
        # Default base_id head-room covers ids up to 4x the warm-up maximum.
        stream = make_stream(train_after=5)
        stream.feed_many([(1, 2, 3)] * 5)
        high = (1, 2, 3, 4 * 3)  # within head-room, above warm-up max
        pid = stream.feed(high)
        assert stream.retrieve(pid) == high

    def test_explicit_base_id(self):
        stream = make_stream(train_after=3, base_id=10_000)
        stream.feed_many([(1, 2, 3)] * 3)
        pid = stream.feed((9_000, 1, 2))
        assert stream.retrieve(pid) == (9_000, 1, 2)

    def test_real_workload_roundtrip(self):
        dataset = make_dataset("sanfrancisco", "tiny")
        stream = make_stream(train_after=100)
        stream.feed_many(dataset)
        assert len(stream.store) == len(dataset)
        for i, path in enumerate(dataset):
            assert stream.retrieve(i) == path


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingCompressor(train_after=0)

    def test_repr_shows_state(self):
        stream = make_stream(train_after=5)
        assert "warming" in repr(stream)
        stream.feed_many([(1, 2, 3)] * 5)
        assert "trained" in repr(stream)
