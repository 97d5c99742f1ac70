"""The batch-retrieval contract, held once over every store kind.

In-memory, mapped and sharded stores, each with and without a vertex
order, run the same :class:`~repro.core.reader.PathReader` read path.  The
reference for ``retrieve_batch`` is per-path ``retrieve``, so the contract
is checked against a different code path, not against itself.
"""

import random

import pytest

from repro.core.config import OFFSConfig
from repro.core.errors import PathIdError
from repro.core.offs import OFFSCodec
from repro.core.serialize import dumps_store_v2, loads_store_v2
from repro.core.sharded import ShardedPathStore, build_sharded_store
from repro.core.store import CompressedPathStore
from repro.obs import catalog
from repro.obs.runtime import instrumented
from repro.paths.dataset import PathDataset

from conftest import make_fd_leak_guard

_fd_leak_guard = make_fd_leak_guard()


def _paths():
    """Skewed traffic: a hot backbone subpath plus random vertices, so a
    frequency order relabels ids and the table finds supernodes."""
    rng = random.Random(5)
    out = []
    for i in range(60):
        path = [rng.randrange(900, 1100) for _ in range(rng.randrange(2, 8))]
        if i % 2 == 0:
            path[1:1] = [1000, 1001, 1002, 1003]
        out.append(tuple(path))
    return out


@pytest.fixture(scope="module", params=["unordered", "frequency"])
def memory(request):
    reorder = "identity" if request.param == "unordered" else request.param
    corpus = PathDataset(_paths()).to_flat()
    codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0, reorder=reorder))
    codec.fit(corpus)
    assert (codec.order is None) == (reorder == "identity")
    return CompressedPathStore.from_corpus(corpus, codec.table, order=codec.order)


@pytest.fixture(params=["memory", "mapped", "sharded"])
def store(request, memory, tmp_path):
    if request.param == "memory":
        yield memory
    elif request.param == "mapped":
        mapped = loads_store_v2(dumps_store_v2(memory))
        yield mapped
        mapped.close()
    else:
        manifest = str(tmp_path / "store.rpsm")
        build_sharded_store(
            memory.retrieve_all(), memory.table, manifest, shards=3, order=memory.order
        )
        with ShardedPathStore.open(manifest) as sharded:
            yield sharded


def test_retrieve_batch_contract(store):
    n = len(store)

    def expected(ids):
        return [store.retrieve(pid) for pid in ids]

    # Input order is output order; duplicates repeat; empty is empty.
    for ids in ([], [0], [n - 1, 0, 3], [2, 2, 2], [3, 0, 3, 3, 1, 0], list(range(n))):
        assert store.retrieve_batch(ids) == expected(ids)

    # A one-shot iterator is read exactly once, for validation and decode.
    consumed = iter([4, 1, 4])
    assert store.retrieve_batch(consumed) == expected([4, 1, 4])
    assert list(consumed) == []
    assert store.retrieve_batch(iter(())) == []

    with instrumented() as obs:
        retrieved = obs.registry.counter(catalog.STORE_RETRIEVED_PATHS)
        # A bad id first or last fails the whole batch before any decode.
        for bad in (-1, n):
            for ids in ([bad, 0, 1], [0, 1, bad]):
                with pytest.raises(PathIdError):
                    store.retrieve_batch(ids)
                with pytest.raises(PathIdError):
                    store.retrieve_batch(iter(ids))
        assert retrieved.value == 0

        # Every kind counts each path it decodes, in batches and in full.
        store.retrieve_batch([3, 0, 3])
        assert retrieved.value == 3
        store.retrieve_all()
        assert retrieved.value == 3 + n
        assert obs.registry.timer(catalog.STORE_RETRIEVE_ALL_SECONDS).count >= 1
