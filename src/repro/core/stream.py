"""Streaming ingestion — the "more advanced stream mode" the paper prefers.

Exp-2 notes that at Alibaba's scale "it is preferable to adopt a more
advanced stream mode that simultaneously handles reading and processing".
:class:`StreamingCompressor` is that mode for this library:

* **warm-up** — the first ``train_after`` paths are buffered uncompressed;
  when the threshold is reached a supernode table is built from them and
  the buffer is flushed through it (this mirrors Fig. 6c's "table based on
  first arriving samples");
* **steady state** — each arriving path is compressed immediately against
  the frozen table.

The table never changes once fit: every token the stream hands out decodes
against it, which is what lets :class:`~repro.core.sharded.ShardedIngest`
seal any number of shards under one table.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.builder import TableBuilder
from repro.core.config import OFFSConfig
from repro.core.errors import InvalidInputError, StateError
from repro.core.store import CompressedPathStore
from repro.paths.dataset import PathDataset


class StreamingCompressor:
    """Compresses an unbounded path stream with per-path granularity.

    :param config: OFFS configuration for the warm-up table build.
    :param train_after: number of warm-up paths buffered before the table
        is constructed.
    :param base_id: explicit supernode id base; required knowledge when the
        stream may later carry vertex ids the warm-up never saw.  Defaults
        to a generous margin above the warm-up maximum.
    """

    def __init__(
        self,
        config: Optional[OFFSConfig] = None,
        train_after: int = 1000,
        base_id: Optional[int] = None,
    ) -> None:
        if train_after < 1:
            raise InvalidInputError("train_after must be >= 1")
        self.config = config or OFFSConfig(sample_exponent=0)
        self.train_after = train_after
        self._explicit_base_id = base_id
        self._buffer: List[Tuple[int, ...]] = []
        self._store: Optional[CompressedPathStore] = None
        self.paths_seen = 0

    # -- state ---------------------------------------------------------------------

    @property
    def trained(self) -> bool:
        """``True`` once the warm-up table exists."""
        return self._store is not None

    @property
    def store(self) -> CompressedPathStore:
        """The underlying compressed store (after training)."""
        if self._store is None:
            raise StateError(
                "stream is still warming up; feed it at least "
                f"{self.train_after} paths or call train_now()"
            )
        return self._store

    # -- ingestion -------------------------------------------------------------------

    def feed(self, path: Sequence[int]) -> Optional[int]:
        """Ingest one path.

        Returns the assigned path id once the stream is trained; during
        warm-up returns ``None`` (ids are assigned at flush, in arrival
        order, so they are stable either way).
        """
        path = tuple(path)
        self.paths_seen += 1
        if self._store is None:
            self._buffer.append(path)
            if len(self._buffer) >= self.train_after:
                self.train_now()
            return None
        return self._store.append(path)

    def feed_many(self, paths: Iterable[Sequence[int]]) -> List[Optional[int]]:
        """Ingest many paths; returns their ids (``None`` during warm-up)."""
        return [self.feed(p) for p in paths]

    def train_now(self) -> None:
        """Force table construction from whatever has been buffered."""
        if self._store is not None:
            raise StateError("stream is already trained")
        if not self._buffer:
            raise StateError("nothing buffered to train on")
        warmup = PathDataset(self._buffer, name="warmup")
        base_id = self._explicit_base_id
        if base_id is None:
            # Generous head-room: future paths will carry unseen ids.
            base_id = max(1, (warmup.max_vertex_id() + 1) * 4)
        table, _ = TableBuilder(self.config).build(warmup, base_id=base_id)
        store = CompressedPathStore(table)
        store.extend(self._buffer)
        self._store, self._buffer = store, []

    # -- compaction support ----------------------------------------------------------

    def drain_tokens(self) -> List[Tuple[int, ...]]:
        """Remove and return every compressed token accumulated so far.

        The LSM-style seal primitive used by
        :class:`~repro.core.sharded.ShardedIngest`: the caller persists the
        returned tokens (with :attr:`store`'s frozen table) as an immutable
        shard, and the memtable empties while the table stays intact —
        :attr:`store` becomes a fresh store over the same table.  Path ids
        restart at 0 after a drain — callers that hand out global ids track
        their own offset.

        :raises StateError: during warm-up (nothing is compressed yet).
        """
        store = self.store
        self._store = CompressedPathStore(store.table)
        return store.tokens()

    # -- reading ----------------------------------------------------------------------

    def retrieve(self, path_id: int) -> Tuple[int, ...]:
        """Random-access retrieval from the live archive."""
        return self.store.retrieve(path_id)

    def __len__(self) -> int:
        return (len(self._store) if self._store else 0) + len(self._buffer)

    def __repr__(self) -> str:
        state = "trained" if self.trained else f"warming({len(self._buffer)})"
        return f"StreamingCompressor({state}, seen={self.paths_seen})"

