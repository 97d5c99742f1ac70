"""Streaming ingestion — the "more advanced stream mode" the paper prefers.

Exp-2 notes that at Alibaba's scale "it is preferable to adopt a more
advanced stream mode that simultaneously handles reading and processing".
:class:`StreamingCompressor` is that mode for this library:

* **warm-up** — the first ``train_after`` paths are buffered uncompressed;
  when the threshold is reached a supernode table is built from them and
  the buffer is flushed through it (this mirrors Fig. 6c's "table based on
  first arriving samples");
* **steady state** — each arriving path is compressed immediately against
  the frozen table;
* **drift watch** — the compressor tracks a moving symbol-level ratio over
  the last ``window`` paths; if it degrades below ``refit_ratio`` of the
  ratio observed at training time, ``drifted`` turns on so the operator can
  schedule a refit (tables stay immutable — compressed data must remain
  decodable, so refitting means starting a new shard; see
  :class:`~repro.core.sharded.ShardedIngest`).

With :mod:`repro.obs` active the drift watch is observable, not just a
boolean: every steady-state ingest publishes ``stream.drift_ratio`` (the
windowed ratio relative to the training ratio — 1.0 means "compressing as
well as at train time") and each False→True drift transition increments
``stream.drifted``, so compaction/refit decisions leave a metric trail.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

from repro.core.builder import TableBuilder
from repro.core.config import OFFSConfig
from repro.core.errors import InvalidInputError, StateError
from repro.core.store import CompressedPathStore
from repro.obs import catalog
from repro.obs.runtime import get_active
from repro.paths.dataset import PathDataset


class StreamingCompressor:
    """Compresses an unbounded path stream with per-path granularity.

    :param config: OFFS configuration for the warm-up table build.
    :param train_after: number of warm-up paths buffered before the table
        is constructed.
    :param base_id: explicit supernode id base; required knowledge when the
        stream may later carry vertex ids the warm-up never saw.  Defaults
        to a generous margin above the warm-up maximum.
    :param window: size of the drift-detection window, in paths.
    :param refit_ratio: drift threshold — ``drifted`` turns on when the
        windowed symbol ratio falls below ``refit_ratio × training ratio``.
    """

    def __init__(
        self,
        config: Optional[OFFSConfig] = None,
        train_after: int = 1000,
        base_id: Optional[int] = None,
        window: int = 500,
        refit_ratio: float = 0.5,
    ) -> None:
        if train_after < 1:
            raise InvalidInputError("train_after must be >= 1")
        if window < 1:
            raise InvalidInputError("window must be >= 1")
        if not 0.0 < refit_ratio <= 1.0:
            raise InvalidInputError("refit_ratio must be in (0, 1]")
        self.config = config or OFFSConfig(sample_exponent=0)
        self.train_after = train_after
        self.window = window
        self.refit_ratio = refit_ratio
        self._explicit_base_id = base_id
        self._buffer: List[Tuple[int, ...]] = []
        self._store: Optional[CompressedPathStore] = None
        self._training_ratio: Optional[float] = None
        # Manual eviction (rather than deque(maxlen=...)) so the window's
        # raw/compressed sums stay incremental: the drift gauge is updated
        # on every steady-state ingest and must not rescan the window.
        self._recent: Deque[Tuple[int, int]] = deque()
        self._recent_raw = 0
        self._recent_compressed = 0
        self._was_drifted = False
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

    @property
    def drifted(self) -> bool:
        """``True`` when the recent symbol ratio fell below the refit bar."""
        if self._training_ratio is None or len(self._recent) < self.window:
            return False
        if self._recent_compressed == 0:
            return False
        windowed = self._recent_raw / self._recent_compressed
        return windowed < self.refit_ratio * self._training_ratio

    @property
    def drift_ratio(self) -> Optional[float]:
        """Windowed symbol ratio relative to the training ratio.

        1.0 means the last ``window`` paths compress exactly as well as the
        warm-up did; values below :attr:`refit_ratio` mean :attr:`drifted`.
        ``None`` until a full window of steady-state traffic exists.
        """
        if (
            self._training_ratio is None
            or not self._training_ratio
            or len(self._recent) < self.window
            or self._recent_compressed == 0
        ):
            return None
        windowed = self._recent_raw / self._recent_compressed
        return windowed / self._training_ratio

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
        return self._ingest(path)

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
        self._store = CompressedPathStore(table)
        buffered, self._buffer = self._buffer, []
        for path in buffered:
            self._ingest(path)
        self._training_ratio = (
            (self._recent_raw / self._recent_compressed)
            if self._recent_compressed
            else 1.0
        )

    def _ingest(self, path: Tuple[int, ...]) -> int:
        assert self._store is not None
        path_id = self._store.append(path)
        token = self._store.token(path_id)
        self._recent.append((len(path), len(token)))
        self._recent_raw += len(path)
        self._recent_compressed += len(token)
        while len(self._recent) > self.window:
            old_raw, old_compressed = self._recent.popleft()
            self._recent_raw -= old_raw
            self._recent_compressed -= old_compressed
        self._publish_drift()
        return path_id

    def _publish_drift(self) -> None:
        """Surface the drift watch on the active registry (if any).

        ``stream.drift_ratio`` tracks the windowed-vs-training ratio;
        ``stream.drifted`` counts False→True transitions only, so the
        counter reads as "number of drift events", not "paths spent
        drifted".
        """
        now_drifted = self.drifted
        obs = get_active()
        if obs is not None:
            ratio = self.drift_ratio
            if ratio is not None:
                obs.registry.set_gauge(catalog.STREAM_DRIFT_RATIO, ratio)
            if now_drifted and not self._was_drifted:
                obs.registry.counter(catalog.STREAM_DRIFTED).inc()
        self._was_drifted = now_drifted

    # -- compaction support ----------------------------------------------------------

    def drain_tokens(self) -> List[Tuple[int, ...]]:
        """Remove and return every compressed token accumulated so far.

        The LSM-style seal primitive used by
        :class:`~repro.core.sharded.ShardedIngest`: the caller persists the
        returned tokens (with :attr:`store`'s frozen table) as an immutable
        shard, and the memtable empties while the table, drift window and
        training baseline stay intact.  Path ids restart at 0 after a
        drain — callers that hand out global ids track their own offset.

        :raises StateError: during warm-up (nothing is compressed yet).
        """
        store = self.store
        tokens = list(store._tokens)
        store._tokens.clear()
        return tokens

    # -- reading ----------------------------------------------------------------------

    def retrieve(self, path_id: int) -> Tuple[int, ...]:
        """Random-access retrieval from the live archive."""
        return self.store.retrieve(path_id)

    def __len__(self) -> int:
        return (len(self._store) if self._store else 0) + len(self._buffer)

    def __repr__(self) -> str:
        state = "trained" if self.trained else f"warming({len(self._buffer)})"
        return f"StreamingCompressor({state}, seen={self.paths_seen})"

