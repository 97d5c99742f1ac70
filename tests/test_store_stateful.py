"""Stateful property testing of the compressed store and its index.

Hypothesis drives arbitrary interleavings of the store's operations —
append, retrieve, partial retrieval, index refresh, serialize/reload —
against a plain-list model.  Whatever the sequence, the store must agree
with the model and the index must agree with a brute-force scan.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.serialize import dumps_store, loads_store
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable

# A fixed table over a small universe keeps the machine fast while still
# exercising supernode expansion (ids < 100 are vertices, >= 100 supernodes).
TABLE = SupernodeTable(100, [(1, 2, 3), (4, 5), (2, 3, 4, 5), (7, 8, 9)])

path_strategy = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=12
).map(tuple)


class StoreMachine(RuleBasedStateMachine):
    paths = Bundle("paths")

    @initialize()
    def setup(self):
        self.store = CompressedPathStore(TABLE)
        self.model = []

    # -- operations ------------------------------------------------------------

    @rule(target=paths, path=path_strategy)
    def append(self, path):
        pid = self.store.append(path)
        self.model.append(path)
        assert pid == len(self.model) - 1
        return pid

    @rule(pid=paths)
    def retrieve(self, pid):
        assert self.store.retrieve(pid) == self.model[pid]

    @rule(seed=st.integers(0, 5))
    def retrieve_fraction(self, seed):
        if not self.model:
            return
        out = self.store.retrieve_fraction(0.5, seed=seed)
        assert all(p in self.model for p in out)

    @rule()
    def serialize_roundtrip(self):
        restored = loads_store(dumps_store(self.store))
        assert restored.retrieve_all() == self.model

    @rule(vertex=st.integers(0, 99))
    def index_agrees_with_brute_force(self, vertex):
        from repro.queries.index import VertexIndex

        index = VertexIndex(self.store)
        expected = [i for i, p in enumerate(self.model) if vertex in p]
        assert index.paths_containing(vertex) == expected

    @rule(query=st.lists(st.integers(0, 99), min_size=2, max_size=4).map(tuple))
    def subpath_search_agrees(self, query):
        if not self.model:
            return
        expected = [
            i for i, p in enumerate(self.model)
            if any(tuple(p[j:j + len(query)]) == query
                   for j in range(len(p) - len(query) + 1))
        ]
        assert self.store.subpath_search_ids(query) == expected

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def store_and_model_agree_in_size(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def full_decompression_matches_model(self):
        assert self.store.retrieve_all() == self.model


StoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestStoreStateful = StoreMachine.TestCase
