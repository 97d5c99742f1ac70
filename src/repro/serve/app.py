"""The endpoint logic of the serving layer, independent of HTTP plumbing.

:class:`StoreApp` owns one read-only store — a
:class:`~repro.core.mapped.MappedPathStore` or a
:class:`~repro.core.sharded.ShardedPathStore` — and answers the six query
endpoints as plain dict payloads; the HTTP layer
(:mod:`repro.serve.server`) only parses requests, calls these methods and
maps raised :mod:`repro.core.errors` onto the JSON error schema of
:mod:`repro.serve.protocol`.  Keeping the app free of sockets makes the
endpoint semantics unit-testable without a running server, and the
integration tests hold every endpoint byte/value-identical to direct store
calls.

Thread safety: a worker process serves requests from a small thread pool
(one thread per connection), so the app guards its shared mutable state —
the metrics instruments (``Counter.inc`` is a read-modify-write) — with a
lock.  The store is read-only and safe to share; it builds its own vertex
index once, under its own lock, on the first query.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional, Sequence

from repro.core.sharded import ShardedPathStore
from repro.obs import catalog
from repro.obs.runtime import get_active


class StoreApp:
    """Query endpoints over one mapped store, for one worker process.

    :param store: the read-only archive; re-opened process-locally so a
        fork-inherited instance never shares OS state with the parent.
    :param worker_index: this worker's position in the fleet (diagnostics).
    """

    def __init__(self, store, worker_index: int = 0) -> None:
        self.store = store.process_local()
        self.worker_index = worker_index
        self._metrics_lock = threading.Lock()

    # -- endpoints ----------------------------------------------------------------

    def retrieve(self, path_id: int) -> Dict[str, Any]:
        """``GET /v1/retrieve`` — one path, fully decompressed."""
        return {"id": path_id, "path": list(self.store.retrieve(path_id))}

    def retrieve_slice(
        self, path_id: int, start: Optional[int], stop: Optional[int]
    ) -> Dict[str, Any]:
        """``GET /v1/retrieve_slice`` — ``path[start:stop]``, Python slice
        semantics, nothing else materialized."""
        window = self.store.retrieve_slice(path_id, start, stop)
        return {"id": path_id, "start": start, "stop": stop, "path": list(window)}

    def retrieve_many(self, path_ids: Sequence[int]) -> Dict[str, Any]:
        """``POST /v1/retrieve_many`` — batch retrieval via the flat kernel."""
        ids = list(path_ids)
        paths = self.store.retrieve_batch(ids)
        return {
            "ids": ids,
            "paths": [list(p) for p in paths],
            "count": len(paths),
        }

    def expanded_length(self, path_id: int) -> Dict[str, Any]:
        """``GET /v1/expanded_length`` — decompressed length, no expansion."""
        return {"id": path_id, "length": self.store.expanded_length(path_id)}

    def paths_between(self, source: int, destination: int) -> Dict[str, Any]:
        """``GET /v1/paths_between`` — the paper's Case 2 terminal query.

        The first query builds the store's vertex index.
        """
        paths = self.store.paths_between(source, destination)
        return {
            "source": source,
            "destination": destination,
            "paths": [list(p) for p in paths],
            "count": len(paths),
        }

    def subpath_search(self, query: Sequence[int]) -> Dict[str, Any]:
        """``POST /v1/subpath_search`` — exact contiguous-subpath search."""
        ids, paths = self.store.subpath_search_hits(query)
        return {
            "query": list(query),
            "ids": list(ids),
            "paths": [list(p) for p in paths],
            "count": len(ids),
        }

    # -- operational endpoints ----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness plus which worker answered."""
        return {
            "status": "ok",
            "paths": len(self.store),
            "worker": {"index": self.worker_index, "pid": os.getpid()},
        }

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` — cheap archive shape (never decompresses).

        For a sharded store the payload adds the shard count.
        """
        store = self.store
        order = store.order
        payload: Dict[str, Any] = {
            "name": store.name,
            "paths": len(store),
            "reorder": order.strategy if order is not None else "identity",
            "worker": {"index": self.worker_index, "pid": os.getpid()},
            "mapped_bytes": store.mapped_bytes,
        }
        table = None
        if isinstance(store, ShardedPathStore):
            payload["shards"] = store.shard_count
            if store.shard_count:
                table = store.table
        else:
            table = store.table
        payload.update({
            "table_entries": len(table) if table is not None else 0,
            "table_base_id": table.base_id if table is not None else 0,
        })
        return payload

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` — this worker's live obs snapshot (or ``{}``)."""
        obs = get_active()
        return {
            "worker": {"index": self.worker_index, "pid": os.getpid()},
            "metrics": obs.registry.as_dict() if obs is not None else {},
        }

    # -- per-endpoint observability -----------------------------------------------

    def record_request(
        self, endpoint: Optional[str], elapsed: float, batch: int = 0,
        failed: bool = False,
    ) -> None:
        """Fold one handled request into this worker's metrics.

        Called by the HTTP layer *before* the response bytes are written, so
        a client that has received N responses knows all N requests are
        already counted — the invariant the metric-conservation test leans
        on.  ``serve.requests`` counts every handled request (any endpoint,
        success or failure); the per-endpoint pairs count successful
        completions only.  All updates happen under one lock because the
        registry instruments are plain read-modify-write objects shared by
        the handler threads.
        """
        obs = get_active()
        if obs is None:
            return
        reg = obs.registry
        with self._metrics_lock:
            reg.inc(catalog.SERVE_REQUESTS)
            reg.observe(catalog.SERVE_REQUEST_SECONDS, elapsed)
            if failed:
                reg.inc(catalog.SERVE_ERRORS)
                return
            if endpoint == "retrieve":
                reg.inc(catalog.SERVE_RETRIEVE_REQUESTS)
                reg.observe(catalog.SERVE_RETRIEVE_SECONDS, elapsed)
            elif endpoint == "retrieve_slice":
                reg.inc(catalog.SERVE_RETRIEVE_SLICE_REQUESTS)
                reg.observe(catalog.SERVE_RETRIEVE_SLICE_SECONDS, elapsed)
            elif endpoint == "retrieve_many":
                reg.inc(catalog.SERVE_RETRIEVE_MANY_REQUESTS)
                reg.observe(catalog.SERVE_RETRIEVE_MANY_SECONDS, elapsed)
                reg.inc(catalog.SERVE_BATCHES)
                reg.counter(catalog.SERVE_BATCH_PATHS).inc(batch)
            elif endpoint == "expanded_length":
                reg.inc(catalog.SERVE_EXPANDED_LENGTH_REQUESTS)
                reg.observe(catalog.SERVE_EXPANDED_LENGTH_SECONDS, elapsed)
            elif endpoint == "paths_between":
                reg.inc(catalog.SERVE_PATHS_BETWEEN_REQUESTS)
                reg.observe(catalog.SERVE_PATHS_BETWEEN_SECONDS, elapsed)
            elif endpoint == "subpath_search":
                reg.inc(catalog.SERVE_SUBPATH_SEARCH_REQUESTS)
                reg.observe(catalog.SERVE_SUBPATH_SEARCH_SECONDS, elapsed)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe worker snapshot written at graceful shutdown."""
        obs = get_active()
        return {
            "schema_version": 1,
            "worker_index": self.worker_index,
            "pid": os.getpid(),
            "metrics": obs.registry.as_dict() if obs is not None else {},
        }
