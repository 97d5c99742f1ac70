"""End-to-end integration tests for the repro.serve HTTP layer.

A real :class:`~repro.serve.PathServer` is started on an ephemeral port —
once with 1 worker and once with 2 — and every endpoint's response is held
value-identical (and, for ``/v1/retrieve``, byte-identical) to direct
:class:`~repro.core.mapped.MappedPathStore` calls (retrieval and queries)
over the same store file.  The fault-injection classes then drive malformed input
at the fleet and assert the structured 4xx/5xx error schema, with the
workers provably alive afterwards; a truncated archive must fail at
*startup* with a typed error, never as a mid-request 500.
"""

import http.client
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from urllib.parse import urlencode

import pytest

from repro.core.errors import (
    BoundsError,
    CorruptDataError,
    InvalidInputError,
    PathIdError,
    StateError,
    TruncatedDataError,
)
from repro.core.mapped import MappedPathStore
from repro.core.serialize import dump_store_file
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.serve import PathServer, ServeConfig, check_store
from repro.serve.server import _RequestHandler
from repro.serve.protocol import encode_body, error_body, status_for

from conftest import make_fd_leak_guard

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="repro.serve requires the fork start method (POSIX)",
)

# Forked workers, the shared listener and per-request sockets must all be
# gone when this module's fixtures tear down (the runtime twin of R008).
_fd_leak_guard = make_fd_leak_guard()

PATHS = [
    (1, 2, 3, 4, 5),
    (1, 2, 3, 9),
    (4, 5, 6),
    (7, 8),
    (42,),
    (1, 2, 3, 4, 5, 6),
    (9, 2, 3, 4),
    (2, 3),
]


def _build_store():
    table = SupernodeTable(100, [(1, 2, 3), (4, 5)])
    store = CompressedPathStore(table)
    store.extend(PATHS)
    return store


@pytest.fixture(scope="module")
def store_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "archive.rpc2")
    dump_store_file(_build_store(), path)
    return path


@pytest.fixture(scope="module", params=[1, 2], ids=["workers=1", "workers=2"])
def server(request, store_file):
    config = ServeConfig(store_file, port=0, workers=request.param)
    with PathServer(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def direct(store_file):
    """The ground truth: direct library calls over the same file."""
    with MappedPathStore.open(store_file) as store:
        yield store


# -- tiny stdlib HTTP client -----------------------------------------------------


def _request(url, data=None):
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def get(server, route, **params):
    url = server.address + route
    if params:
        url += "?" + urlencode(params)
    status, body = _request(url)
    return status, json.loads(body)


def get_raw(server, route, **params):
    url = server.address + route
    if params:
        url += "?" + urlencode(params)
    return _request(url)


def post(server, route, payload):
    status, body = _request(
        server.address + route, data=json.dumps(payload).encode("utf-8")
    )
    return status, json.loads(body)


# -- endpoint equivalence --------------------------------------------------------


class TestEndpointsMatchDirectCalls:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["paths"] == len(PATHS)

    def test_retrieve_every_path_byte_identical(self, server, direct):
        store = direct
        for pid in range(len(store)):
            status, raw = get_raw(server, "/v1/retrieve", id=pid)
            assert status == 200
            expected = {"id": pid, "path": list(store.retrieve(pid))}
            assert raw == encode_body(expected)  # bytes, not just values

    def test_retrieve_slice(self, server, direct):
        store = direct
        cases = [(0, 1, 3), (0, None, None), (1, 0, 2), (5, 2, -1), (3, -1, None)]
        for pid, start, stop in cases:
            params = {"id": pid}
            if start is not None:
                params["start"] = start
            if stop is not None:
                params["stop"] = stop
            status, body = get(server, "/v1/retrieve_slice", **params)
            assert status == 200
            assert body["path"] == list(store.retrieve_slice(pid, start, stop))

    def test_retrieve_many_get(self, server, direct):
        store = direct
        status, body = get(server, "/v1/retrieve_many", ids="0,2,4")
        assert status == 200
        assert body["ids"] == [0, 2, 4]
        assert body["count"] == 3
        assert body["paths"] == [list(store.retrieve(pid)) for pid in [0, 2, 4]]

    def test_retrieve_many_post(self, server, direct):
        store = direct
        ids = [5, 0, 1, 0]  # order and duplicates preserved
        status, body = post(server, "/v1/retrieve_many", {"ids": ids})
        assert status == 200
        assert body["ids"] == ids
        assert body["paths"] == [list(store.retrieve(pid)) for pid in ids]

    def test_retrieve_many_empty(self, server):
        status, body = post(server, "/v1/retrieve_many", {"ids": []})
        assert status == 200
        assert body == {"count": 0, "ids": [], "paths": []}

    def test_expanded_length(self, server, direct):
        store = direct
        for pid in range(len(store)):
            status, body = get(server, "/v1/expanded_length", id=pid)
            assert status == 200
            assert body["length"] == store.expanded_length(pid)
            assert body["length"] == len(PATHS[pid])

    def test_paths_between(self, server, direct):
        store = direct
        for source, destination in [(1, 5), (1, 9), (4, 6), (42, 42), (7, 1)]:
            status, body = get(
                server, "/v1/paths_between", source=source, destination=destination
            )
            assert status == 200
            expected = store.paths_between(source, destination)
            assert body["paths"] == [list(p) for p in expected]
            assert body["count"] == len(expected)

    def test_subpath_search_get_and_post(self, server, direct):
        store = direct
        for query in [(2, 3), (1, 2, 3), (4, 5), (999,), (3, 2)]:
            expected_ids = store.subpath_search_ids(tuple(query))
            expected_paths = [list(store.retrieve(pid)) for pid in expected_ids]
            status, body = get(
                server, "/v1/subpath_search", query=",".join(map(str, query))
            )
            assert status == 200
            assert body["ids"] == expected_ids
            assert body["paths"] == expected_paths
            status, body_post = post(
                server, "/v1/subpath_search", {"query": list(query)}
            )
            assert status == 200
            assert body_post == body

    def test_stats(self, server, store_file, direct):
        store = direct
        status, body = get(server, "/v1/stats")
        assert status == 200
        assert body["name"] == store_file
        assert body["paths"] == len(store)
        assert body["table_entries"] == len(store.table)
        assert body["table_base_id"] == 100
        assert body["mapped_bytes"] == os.path.getsize(store_file)
        assert body["mapped_bytes"] == store.mapped_bytes
        assert 0 <= body["worker"]["index"] < server.config.workers

    def test_metrics_endpoint(self, server):
        get(server, "/v1/retrieve", id=0)  # guarantee at least one request
        status, body = get(server, "/metrics")
        assert status == 200
        counters = body["metrics"]["counters"]
        assert counters.get("serve.requests", 0) >= 1

    def test_trailing_slash_is_same_route(self, server, direct):
        store = direct
        status, body = get(server, "/v1/retrieve/", id=3)
        assert status == 200
        assert body["path"] == list(store.retrieve(3))


# -- keep-alive latency ----------------------------------------------------------


class TestKeepAlive:
    """One persistent connection must not pay a delayed-ACK stall per request.

    A reply split over two writes on a Nagle-enabled socket waits for the
    client's delayed ACK (40 ms on Linux): 40 requests would take >= 1.6 s.
    """

    REQUESTS = 40

    def _mixed_requests(self):
        for i in range(self.REQUESTS):
            kind = i % 3
            if kind == 0:
                yield "GET", f"/v1/retrieve?id={i % len(PATHS)}", None
            elif kind == 1:
                yield "POST", "/v1/retrieve_many", {"ids": [i % len(PATHS), 0]}
            else:
                yield "POST", "/v1/subpath_search", {"query": [2, 3]}

    def test_nagle_is_disabled(self):
        assert _RequestHandler.disable_nagle_algorithm is True

    def test_shared_listener_is_non_blocking(self, server):
        # Workers that lose an accept race must get EAGAIN, not park in
        # accept() where graceful shutdown cannot reach them.
        assert server._socket.getblocking() is False

    def test_mixed_requests_on_one_connection_are_fast(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.connect()
            sock = conn.sock
            started = time.perf_counter()
            for method, target, payload in self._mixed_requests():
                body = None if payload is None else json.dumps(payload).encode()
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                assert not response.will_close
                assert conn.sock is sock  # never reconnected
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 1.0, f"{self.REQUESTS} keep-alive requests took {elapsed:.2f} s"


# -- fault injection: the server answers 4xx and stays up ------------------------


class TestFaultInjection:
    def _assert_error(self, status, body, expected_status, expected_type):
        assert status == expected_status
        error = body["error"]
        assert error["type"] == expected_type
        assert error["status"] == expected_status
        assert error["message"]

    def test_unknown_path_id_is_404(self, server):
        status, body = get(server, "/v1/retrieve", id=999)
        self._assert_error(status, body, 404, "PathIdError")
        assert "999" in body["error"]["message"]

    def test_unknown_id_in_slice_and_length(self, server):
        for route in ("/v1/retrieve_slice", "/v1/expanded_length"):
            status, body = get(server, route, id=-1)
            self._assert_error(status, body, 404, "PathIdError")

    def test_unknown_id_in_batch(self, server):
        status, body = post(server, "/v1/retrieve_many", {"ids": [0, 999]})
        self._assert_error(status, body, 404, "PathIdError")

    def test_non_integer_parameter_is_400(self, server):
        status, body = get(server, "/v1/retrieve", id="zero")
        self._assert_error(status, body, 400, "InvalidInputError")

    def test_boolean_id_in_body_is_400(self, server):
        status, body = post(server, "/v1/retrieve_many", {"ids": [0, True]})
        self._assert_error(status, body, 400, "InvalidInputError")

    def test_missing_parameter_is_400(self, server):
        for route in ("/v1/retrieve", "/v1/retrieve_slice", "/v1/expanded_length"):
            status, body = get(server, route)
            self._assert_error(status, body, 400, "InvalidInputError")
        status, body = get(server, "/v1/paths_between", source=1)
        self._assert_error(status, body, 400, "InvalidInputError")

    def test_malformed_json_body_is_400(self, server):
        status, raw = _request(
            server.address + "/v1/retrieve_many", data=b"{not json"
        )
        body = json.loads(raw)
        self._assert_error(status, body, 400, "InvalidInputError")

    def test_non_object_json_body_is_400(self, server):
        status, raw = _request(server.address + "/v1/subpath_search", data=b"[1,2]")
        body = json.loads(raw)
        self._assert_error(status, body, 400, "InvalidInputError")

    def test_unknown_endpoint_is_404(self, server):
        status, body = get(server, "/v1/nope")
        self._assert_error(status, body, 404, "UnknownEndpointError")

    def test_post_to_get_only_route_is_405(self, server):
        status, raw = _request(server.address + "/v1/retrieve?id=0", data=b"{}")
        body = json.loads(raw)
        self._assert_error(status, body, 405, "MethodNotAllowedError")

    def test_bad_ids_type_is_400(self, server):
        status, body = post(server, "/v1/retrieve_many", {"ids": {"a": 1}})
        self._assert_error(status, body, 400, "InvalidInputError")

    def test_workers_survive_the_abuse(self, server):
        # Runs after the error cases above (same module-scoped server): no
        # malformed request may have killed a worker or wedged the fleet.
        assert server.workers_alive() == server.config.workers
        status, body = get(server, "/healthz")
        assert status == 200 and body["status"] == "ok"


# -- startup validation ----------------------------------------------------------


class TestStartupValidation:
    @pytest.fixture()
    def truncated_file(self, tmp_path, store_file):
        blob = open(store_file, "rb").read()
        path = str(tmp_path / "truncated.rpc2")
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        return path

    def test_truncated_store_fails_at_start(self, truncated_file):
        server = PathServer(ServeConfig(truncated_file))
        with pytest.raises((TruncatedDataError, CorruptDataError)):
            server.start()
        assert server._socket is None      # nothing bound
        assert server.workers_alive() == 0  # nothing forked

    def test_check_store_raises_typed_error(self, truncated_file):
        with pytest.raises((TruncatedDataError, CorruptDataError)):
            check_store(truncated_file)

    def test_empty_store_file_fails_with_offset(self, tmp_path):
        path = str(tmp_path / "empty.rpc2")
        open(path, "wb").close()
        with pytest.raises(TruncatedDataError) as excinfo:
            PathServer(ServeConfig(path)).start()
        assert error_body(excinfo.value)["error"]["byte_offset"] == 0

    def test_missing_store_file_fails(self, tmp_path):
        with pytest.raises(OSError):
            PathServer(ServeConfig(str(tmp_path / "absent.rpc2"))).start()

    def test_cli_serve_reports_truncated_store(self, truncated_file, capsys):
        from repro.cli import main

        assert main(["serve", "--store", truncated_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" == err[err.index("\n") :]  # exactly one clean line

    def test_double_start_rejected(self, store_file):
        with PathServer(ServeConfig(store_file)) as server:
            with pytest.raises(StateError):
                server.start()

    def test_config_validation(self, store_file):
        with pytest.raises(InvalidInputError):
            ServeConfig(store_file, workers=0)
        with pytest.raises(InvalidInputError):
            ServeConfig(store_file, port=70000)


# -- protocol unit coverage ------------------------------------------------------


class TestProtocol:
    def test_status_mapping(self):
        assert status_for(PathIdError("x")) == 404
        assert status_for(InvalidInputError("x")) == 400
        assert status_for(BoundsError("x")) == 400
        assert status_for(CorruptDataError("x")) == 500
        # Truncation is a server-side fault even though it IS a BoundsError.
        assert status_for(TruncatedDataError("x")) == 500
        assert status_for(RuntimeError("x")) == 500

    def test_error_body_extracts_byte_offset(self):
        exc = TruncatedDataError("v2 store truncated at byte offset 1234")
        error = error_body(exc)["error"]
        assert error["type"] == "TruncatedDataError"
        assert error["status"] == 500
        assert error["byte_offset"] == 1234

    def test_error_body_without_offset(self):
        error = error_body(PathIdError("path id 7 not in store"))["error"]
        assert "byte_offset" not in error
        assert error["status"] == 404


# -- the CLI end to end ----------------------------------------------------------


class TestCliServe:
    def test_serve_announce_query_shutdown(self, store_file):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store_file,
             "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"on (http://[\d.]+:\d+) with 2 worker", line)
            assert match, f"unexpected announce line: {line!r}"
            address = match.group(1)
            status, body = _request(address + "/healthz")
            assert status == 200
            assert json.loads(body)["paths"] == len(PATHS)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=15)
            assert proc.returncode == 0
            assert "shutting down" in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


# -- sharded manifests through the same server ------------------------------------


class TestShardedServe:
    """`repro serve` accepts an RPSM manifest; every endpoint answers
    exactly what the monolithic archive of the same paths would."""

    @pytest.fixture(scope="class")
    def sharded_file(self, tmp_path_factory):
        from repro.core.sharded import build_sharded_store

        store = _build_store()
        path = str(tmp_path_factory.mktemp("serve-sharded") / "archive.rpsm")
        build_sharded_store(PATHS, store.table, path, shards=3)
        return path

    @pytest.fixture(scope="class", params=[1, 2], ids=["workers=1", "workers=2"])
    def sharded_server(self, request, sharded_file):
        config = ServeConfig(sharded_file, port=0, workers=request.param)
        with PathServer(config) as srv:
            yield srv

    def test_check_store_validates_every_shard(self, sharded_file):
        assert check_store(sharded_file) == len(PATHS)

    def test_retrieve_endpoints_identical(self, sharded_server, direct):
        store = direct
        for pid in range(len(PATHS)):
            status, payload = get(sharded_server, "/v1/retrieve", id=pid)
            assert status == 200
            assert tuple(payload["path"]) == store.retrieve(pid)
        status, payload = get(
            sharded_server, "/v1/retrieve_slice", id=0, start=1, stop=-1
        )
        assert status == 200
        assert tuple(payload["path"]) == store.retrieve_slice(0, 1, -1)
        status, payload = post(
            sharded_server, "/v1/retrieve_many", {"ids": [0, 7, 3, 7]}
        )
        assert status == 200
        assert [tuple(p) for p in payload["paths"]] == \
            [store.retrieve(pid) for pid in (0, 7, 3, 7)]
        status, payload = get(sharded_server, "/v1/expanded_length", id=5)
        assert status == 200
        assert payload["length"] == store.expanded_length(5)

    def test_query_endpoints_identical(self, sharded_server, direct):
        store = direct
        status, payload = get(
            sharded_server, "/v1/paths_between", source=1, destination=5
        )
        assert status == 200
        assert [tuple(p) for p in payload["paths"]] == store.paths_between(1, 5)
        status, payload = post(sharded_server, "/v1/subpath_search", {"query": [2, 3]})
        assert status == 200
        assert payload["ids"] == store.subpath_search_ids((2, 3))
        assert [tuple(p) for p in payload["paths"]] == store.subpath_search((2, 3))

    def test_stats_reports_shard_shape(self, sharded_server, sharded_file):
        from repro.core.sharded import shard_filename

        status, payload = get(sharded_server, "/v1/stats")
        assert status == 200
        assert payload["paths"] == len(PATHS)
        assert payload["shards"] == 3
        assert "partition" not in payload and "distinct_tables" not in payload
        table = _build_store().table
        assert payload["table_entries"] == len(table)
        assert payload["table_base_id"] == table.base_id
        directory = os.path.dirname(sharded_file)
        assert payload["mapped_bytes"] == sum(
            os.path.getsize(os.path.join(directory, shard_filename("archive", i)))
            for i in range(3)
        )

    def test_unknown_id_is_structured_404(self, sharded_server):
        status, payload = get(sharded_server, "/v1/retrieve", id=999)
        assert status == 404
        assert payload["error"]["type"] == "PathIdError"
        assert sharded_server.workers_alive() == sharded_server.config.workers

    def test_corrupt_manifest_fails_at_startup(self, sharded_file, tmp_path):
        import shutil

        bad_dir = tmp_path / "bad"
        shutil.copytree(
            __import__("os").path.dirname(sharded_file), bad_dir
        )
        bad = str(bad_dir / "archive.rpsm")
        blob = bytearray(open(bad, "rb").read())
        blob[-1] ^= 0xFF
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CorruptDataError):
            PathServer(ServeConfig(bad)).start()
