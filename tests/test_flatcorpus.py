"""Unit tests for the flat-corpus layout (:mod:`repro.core.flatcorpus`)."""

import pytest

from repro.core.flatcorpus import FlatCorpus, as_flat_corpus
from repro.paths.dataset import PathDataset

PATHS = [(1, 2, 3), (4, 5), (), (6,), (7, 8, 9, 10)]


@pytest.fixture()
def corpus():
    return FlatCorpus.from_paths(PATHS, name="t")


class TestConstruction:
    def test_from_paths_round_trips(self, corpus):
        assert corpus.to_paths() == list(PATHS)

    def test_len_and_total_symbols(self, corpus):
        assert len(corpus) == len(PATHS)
        assert corpus.total_symbols == sum(len(p) for p in PATHS)

    def test_empty(self):
        empty = FlatCorpus.from_paths([])
        assert len(empty) == 0
        assert empty.total_symbols == 0
        assert empty.to_paths() == []
        assert empty.max_vertex() == -1

    def test_bad_offsets_rejected(self):
        from array import array

        with pytest.raises(ValueError):
            FlatCorpus(array("q", [1, 2]), array("q", [0, 1]))
        with pytest.raises(ValueError):
            FlatCorpus(array("q", [1, 2]), array("q", [1, 2]))
        with pytest.raises(ValueError):
            FlatCorpus(array("q", [1, 2]), array("q", []))

    def test_as_flat_corpus_passthrough(self, corpus):
        assert as_flat_corpus(corpus) is corpus

    def test_as_flat_corpus_takes_dataset_name(self):
        ds = PathDataset(PATHS, name="alpha")
        assert as_flat_corpus(ds).name == "alpha"

    def test_dataset_to_flat(self):
        ds = PathDataset(PATHS, name="alpha")
        flat = ds.to_flat()
        assert isinstance(flat, FlatCorpus)
        assert flat.to_paths() == list(ds)


class TestAccessors:
    def test_path_and_getitem(self, corpus):
        for i, p in enumerate(PATHS):
            assert corpus.path(i) == p
            assert corpus[i] == p

    def test_negative_index(self, corpus):
        assert corpus[-1] == PATHS[-1]

    def test_out_of_range(self, corpus):
        with pytest.raises(IndexError):
            corpus.path(len(PATHS))
        with pytest.raises(IndexError):
            corpus.path(-len(PATHS) - 1)

    def test_iter_yields_tuples(self, corpus):
        out = list(corpus)
        assert out == list(PATHS)
        assert all(isinstance(p, tuple) for p in out)

    def test_max_vertex(self, corpus):
        assert corpus.max_vertex() == 10

    def test_as_numpy_agrees_when_available(self, corpus):
        buf, offs = corpus.as_numpy()
        assert buf.tolist() == [v for p in PATHS for v in p]
        assert offs[0] == 0 and offs[-1] == corpus.total_symbols


class TestShipping:
    def test_shipping_round_trip(self, corpus):
        payload = corpus.to_shipping()
        assert isinstance(payload[0], bytes) and isinstance(payload[1], bytes)
        back = FlatCorpus.from_shipping(payload, name="t")
        assert back.to_paths() == corpus.to_paths()

    def test_chunk_shipping_round_trip(self, corpus):
        chunk = corpus.chunk(1, 4)
        back = FlatCorpus.from_shipping(chunk.to_shipping())
        assert back.to_paths() == list(PATHS[1:4])


class TestChunking:
    def test_chunk_is_rebased(self, corpus):
        chunk = corpus.chunk(1, 4)
        assert chunk.offsets[0] == 0
        assert chunk.to_paths() == list(PATHS[1:4])

    def test_chunk_clamps(self, corpus):
        assert corpus.chunk(-5, 99).to_paths() == list(PATHS)
        assert corpus.chunk(3, 2).to_paths() == []

    def test_every_matches_list_stride(self, corpus):
        assert corpus.every(2).to_paths() == list(PATHS[::2])
        assert corpus.every(1) is corpus

    def test_every_bad_stride(self, corpus):
        with pytest.raises(ValueError):
            corpus.every(0)
