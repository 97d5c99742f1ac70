"""The HTTP serving layer: pre-forked workers over one mapped store file.

The worker model is the classic pre-fork accept-sharing design (the shape
nginx and gunicorn use, here in pure stdlib):

* the **parent** validates the store file up front (header, table CRC — a
  truncated archive fails *here*, with a clean
  :class:`~repro.core.errors.TruncatedDataError`, not mid-request), binds
  one listening socket, then forks N workers;
* each **worker** inherits the listening socket, opens its *own* store
  over the file — a :class:`~repro.core.mapped.MappedPathStore` for a v2
  archive, a :class:`~repro.core.sharded.ShardedPathStore` for an ``RPSM``
  manifest (O(1) open either way — the mmap'd pages are shared read-only
  between all workers by the OS),
  activates its own :mod:`repro.obs` registry (counters only, same policy
  as the :mod:`repro.core.parallel` pool workers) and runs a threading
  HTTP server whose ``accept`` competes on the shared socket — the kernel
  load-balances connections across workers;
* on ``stop()`` the parent signals SIGTERM; each worker drains in-flight
  requests, writes its metrics snapshot to ``metrics_dir`` (when given)
  and exits.  The per-worker snapshots are how the differential tests
  assert request-count conservation across the fleet.

Because the parent binds (and starts listening on) the socket *before*
forking, a client may connect the instant :meth:`PathServer.start`
returns: connections queue in the listen backlog until a worker accepts,
so there is no readiness race to poll for.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import InvalidInputError, ReproError, StateError
from repro.core.mapped import MappedPathStore
from repro.core.serialize import publish_file
from repro.core.sharded import ShardedPathStore, open_store
from repro.serve.app import StoreApp
from repro.serve.protocol import (
    HTTP_METHOD_NOT_ALLOWED,
    HTTP_NOT_FOUND,
    HTTP_OK,
    MethodNotAllowedError,
    UnknownEndpointError,
    decode_body,
    encode_body,
    error_body,
    int_list,
    optional_int,
    require_int,
    status_for,
)

#: Endpoints reachable by GET; values are (endpoint key, needs body).
_GET_ROUTES = frozenset((
    "/healthz", "/metrics", "/v1/stats", "/v1/retrieve", "/v1/retrieve_slice",
    "/v1/retrieve_many", "/v1/expanded_length", "/v1/paths_between",
    "/v1/subpath_search",
))
_POST_ROUTES = frozenset(("/v1/retrieve_many", "/v1/subpath_search"))


class ServeConfig:
    """Configuration for :class:`PathServer`.

    :param store_path: a v2 (``RPC2``) store file.
    :param host: bind address (default loopback).
    :param port: TCP port; 0 picks an ephemeral port, published on
        :attr:`PathServer.port` after :meth:`~PathServer.start`.
    :param workers: worker-process count (>= 1).
    :param metrics_dir: when set, each worker writes
        ``serve-worker-<index>.json`` (its obs snapshot) here at shutdown.
    :param backlog: listen backlog shared by the worker fleet.
    """

    def __init__(
        self,
        store_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        metrics_dir: Optional[str] = None,
        backlog: int = 128,
    ) -> None:
        if workers < 1:
            raise InvalidInputError(f"workers must be >= 1, got {workers}")
        if not 0 <= port <= 65535:
            raise InvalidInputError(f"port must be in [0, 65535], got {port}")
        self.store_path = store_path
        self.host = host
        self.port = port
        self.workers = workers
        self.metrics_dir = metrics_dir
        self.backlog = backlog


def check_store(store_path: str) -> int:
    """Validate the store file a server is about to serve; returns path count.

    Opens the file, parses the header (magic, CRC) and force-decodes the
    table (metadata CRC) so a truncated or corrupt archive fails at
    *startup* with a typed, offset-carrying error instead of surfacing as a
    500 on some unlucky request.  A sharded manifest (``RPSM``) validates
    *every* shard the same way — presence, headers, table CRCs, the
    manifest's table fingerprint and the sections every shard shares with
    shard 0.
    """
    store = open_store(store_path)
    if isinstance(store, ShardedPathStore):
        with store:
            return store.check()
    if not isinstance(store, MappedPathStore):
        raise InvalidInputError(
            f"{store_path!r} is a v1 in-memory blob; repro.serve requires a "
            "v2 (RPC2) store file or a sharded (RPSM) manifest"
        )
    with store:
        _ = store.table
        return len(store)


class _RequestHandler(BaseHTTPRequestHandler):
    """Parses requests, dispatches to the worker's :class:`StoreApp`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro.serve/1.0"
    # TCP_NODELAY on every accepted connection (stdlib switch, applied in
    # StreamRequestHandler.setup): a keep-alive reply must not wait on
    # Nagle's algorithm for the client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging would swamp test output; metrics cover it

    @property
    def app(self) -> StoreApp:
        return self.server.app  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        """Send the whole response — status line, headers, body — in one write.

        ``end_headers()`` followed by a body write would put two segments
        on the wire; see docs/serving.md ("Latency") for why that costs a
        delayed-ACK interval on a keep-alive connection.
        """
        body = encode_body(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # What end_headers() does, minus its separate flush: the body joins
        # the header buffer and flush_headers() writes it all at once.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    # -- request entry points ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")

    def _handle(self, method: str) -> None:
        started = time.perf_counter()
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        endpoint: Optional[str] = None
        batch = 0
        try:
            if route not in _GET_ROUTES and route not in _POST_ROUTES:
                raise UnknownEndpointError(route)
            if method == "POST" and route not in _POST_ROUTES:
                raise MethodNotAllowedError(method, route)
            params = self._params(method, split.query)
            endpoint, status, payload = self._dispatch(route, params)
            if endpoint == "retrieve_many":
                batch = payload.get("count", 0)
        except UnknownEndpointError as exc:
            status, payload = HTTP_NOT_FOUND, error_body(exc, HTTP_NOT_FOUND)
        except MethodNotAllowedError as exc:
            status = HTTP_METHOD_NOT_ALLOWED
            payload = error_body(exc, HTTP_METHOD_NOT_ALLOWED)
        except ReproError as exc:
            status = status_for(exc)
            payload = error_body(exc, status)
        except Exception as exc:  # noqa: BLE001 - a handler bug must surface
            # as a structured 500, never kill the worker or drop the
            # connection (repro.serve sits outside repro.core's R005 scope).
            status = status_for(exc)
            payload = error_body(exc, status)
        # Metrics are recorded before the response bytes go out: once the
        # client has read N responses, all N requests are counted.
        elapsed = time.perf_counter() - started
        self.app.record_request(
            endpoint, elapsed, batch=batch, failed=endpoint is None
        )
        self._reply(status, payload)

    # -- parameter handling --------------------------------------------------------

    def _params(self, method: str, query: str) -> Dict[str, Any]:
        """Merged parameters: query string, plus JSON body for POSTs.

        Query values arrive as strings (last occurrence wins); body values
        keep their JSON types.  Body keys shadow query keys.
        """
        params: Dict[str, Any] = {
            key: values[-1] for key, values in parse_qs(query).items()
        }
        if method == "POST":
            length_header = self.headers.get("Content-Length")
            try:
                length = int(length_header) if length_header else 0
            except ValueError:
                raise InvalidInputError(
                    f"Content-Length header is not an integer: {length_header!r}"
                ) from None
            params.update(decode_body(self.rfile.read(length) if length else b""))
        return params

    # -- routing -------------------------------------------------------------------

    def _dispatch(
        self, route: str, params: Dict[str, Any]
    ) -> Tuple[Optional[str], int, Dict[str, Any]]:
        """(endpoint key or None for operational routes, status, payload)."""
        app = self.app
        if route == "/healthz":
            return "healthz", HTTP_OK, app.healthz()
        if route == "/v1/stats":
            return "stats", HTTP_OK, app.stats()
        if route == "/metrics":
            return "metrics", HTTP_OK, app.metrics()
        if route == "/v1/retrieve":
            return "retrieve", HTTP_OK, app.retrieve(require_int(params, "id"))
        if route == "/v1/retrieve_slice":
            return "retrieve_slice", HTTP_OK, app.retrieve_slice(
                require_int(params, "id"),
                optional_int(params, "start"),
                optional_int(params, "stop"),
            )
        if route == "/v1/retrieve_many":
            if "ids" not in params:
                raise InvalidInputError("missing required parameter 'ids'")
            ids = int_list(params["ids"], "ids")
            return "retrieve_many", HTTP_OK, app.retrieve_many(ids)
        if route == "/v1/expanded_length":
            return "expanded_length", HTTP_OK, app.expanded_length(
                require_int(params, "id")
            )
        if route == "/v1/paths_between":
            return "paths_between", HTTP_OK, app.paths_between(
                require_int(params, "source"), require_int(params, "destination")
            )
        # /v1/subpath_search — the route sets are closed, so this is the rest.
        if "query" not in params:
            raise InvalidInputError("missing required parameter 'query'")
        vertices = int_list(params["query"], "query")
        return "subpath_search", HTTP_OK, app.subpath_search(vertices)


class _WorkerHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server over an *inherited, already-listening* socket."""

    daemon_threads = False   # server_close() drains in-flight handler threads
    block_on_close = True

    def __init__(self, shared_socket: socket.socket, app: StoreApp) -> None:
        host, port = shared_socket.getsockname()[:2]
        super().__init__((host, port), _RequestHandler, bind_and_activate=False)
        self.socket.close()           # replace the fresh unbound socket
        self.socket = shared_socket
        self.server_name = host
        self.server_port = port
        self.app = app


def _worker_main(
    shared_socket: socket.socket,
    store_path: str,
    worker_index: int,
    metrics_path: Optional[str],
) -> None:
    """Worker-process entry point (runs on the child side of the fork)."""
    from repro.obs.runtime import Instrumentation, activate
    from repro.obs.spans import SpanTracer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates Ctrl-C

    # Own registry, counters only — identical policy to the parallel-pool
    # workers: a fork-inherited parent scope would silently drop counts.
    activate(Instrumentation(tracer=SpanTracer(enabled=False)))
    store = open_store(store_path)
    app = StoreApp(store, worker_index=worker_index)
    httpd = _WorkerHTTPServer(shared_socket, app)
    loop = threading.Thread(target=httpd.serve_forever, daemon=True)
    loop.start()
    while not stop.is_set():   # short waits: robust to signal/wait races
        stop.wait(0.2)
    httpd.shutdown()          # stop accepting
    loop.join()
    httpd.server_close()      # drain in-flight handler threads
    if metrics_path is not None:
        snapshot = json.dumps(app.snapshot(), indent=2, sort_keys=True)
        publish_file(metrics_path, snapshot.encode("utf-8"))
    store.close()


class PathServer:
    """A pre-forked HTTP path-query server over one v2 store file.

    Lifecycle::

        server = PathServer(ServeConfig("archive.rpc2", workers=4))
        server.start()                 # validates, binds, forks
        print(server.port)             # actual port (ephemeral resolved)
        ...
        server.stop()                  # graceful: drains, dumps metrics

    Also a context manager (``with PathServer(cfg) as server:``).
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.path_count: Optional[int] = None
        self._socket: Optional[socket.socket] = None
        self._workers: List[multiprocessing.process.BaseProcess] = []

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "PathServer":
        """Validate the store, bind the socket, fork the workers."""
        if self._socket is not None:
            raise StateError("server already started")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise StateError(
                "repro.serve needs the 'fork' start method (POSIX); "
                "not available on this platform"
            )
        # Fail fast on a bad archive — before any socket or child exists.
        self.path_count = check_store(self.config.store_path)
        if self.config.metrics_dir is not None:
            os.makedirs(self.config.metrics_dir, exist_ok=True)

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(self.config.backlog)
            # Every worker's selector wakes on each incoming connection, but
            # only one accept() wins it.  Non-blocking, a loser gets EAGAIN
            # (socketserver drops it and goes back to select); blocking, it
            # would sit in accept() — deaf to shutdown() — until the next
            # connection.  Accepted sockets are blocking either way.
            listener.setblocking(False)
            context = multiprocessing.get_context("fork")
            for index in range(self.config.workers):
                # The shared listener *is* the pre-fork design: every
                # worker accepts on the same bound socket and the kernel
                # load-balances.  The store is reopened per worker, so the
                # listener is the only handle that deliberately crosses.
                worker = context.Process(  # lint: ignore[R007]
                    target=_worker_main,
                    args=(
                        listener,
                        self.config.store_path,
                        index,
                        self.metrics_file(index),
                    ),
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        except BaseException:
            listener.close()
            self._terminate_workers(timeout=1.0)
            raise
        self._socket = listener
        return self

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the kernel's pick)."""
        if self._socket is None:
            raise StateError("server not started")
        return self._socket.getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def workers_alive(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for worker in self._workers if worker.is_alive())

    def metrics_file(self, worker_index: int) -> Optional[str]:
        """Where worker *worker_index* dumps its shutdown snapshot."""
        if self.config.metrics_dir is None:
            return None
        return os.path.join(
            self.config.metrics_dir, f"serve-worker-{worker_index}.json"
        )

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: signal workers, drain, reap, close the socket."""
        self._terminate_workers(timeout)
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def _terminate_workers(self, timeout: float) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()          # SIGTERM → graceful drain
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.monotonic()))
            if worker.is_alive():           # refused to drain: hard stop
                worker.kill()
                worker.join(1.0)
        self._workers = []

    def join(self) -> None:
        """Block until every worker exits (the CLI's serve loop)."""
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "PathServer":
        if self._socket is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "down" if self._socket is None else self.address
        return (
            f"PathServer(store={self.config.store_path!r}, "
            f"workers={self.config.workers}, {state})"
        )
