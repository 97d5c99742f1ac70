"""Differential concurrency tests: interleaved clients vs a worker fleet.

A thread pool fires a shuffled, mixed request stream (every endpoint, plus
deliberate failures) at a multi-worker :class:`~repro.serve.PathServer`.
Two properties must hold:

* **per-request correctness** — every response equals the one precomputed
  from direct library calls, no matter which worker answered or what was
  in flight next to it;
* **metric conservation** — after a graceful stop, the per-worker shutdown
  snapshots must account for exactly the requests sent: the fleet-wide sum
  of ``serve.requests`` equals the number of requests the clients got
  responses for, per-endpoint counters match the per-endpoint success
  counts, ``serve.errors`` matches the failure count, and
  ``serve.batch_paths`` equals the total ids shipped through batch
  requests.  Conservation is what proves no request was double-counted,
  dropped, or lost to a torn read-modify-write under thread interleaving.
"""

import json
import multiprocessing
import random
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlencode

import pytest

from repro.core.mapped import MappedPathStore
from repro.core.serialize import dump_store_file
from repro.core.store import CompressedPathStore
from repro.core.supernode_table import SupernodeTable
from repro.serve import PathServer, ServeConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="repro.serve requires the fork start method (POSIX)",
)

WORKERS = 3
CLIENT_THREADS = 8


def _build_store():
    table = SupernodeTable(1000, [(1, 2, 3), (4, 5), (6, 7, 8)])
    store = CompressedPathStore(table)
    store.extend([
        (1, 2, 3, 4, 5), (1, 2, 3, 9), (4, 5, 6), (7, 8), (42,),
        (1, 2, 3, 4, 5, 6, 7, 8), (9, 2, 3, 4), (2, 3), (6, 7, 8, 1),
        (5, 6, 7, 8), (1, 2, 3, 1, 2, 3), (8, 7, 6),
    ])
    return store


def _request(url, data=None):
    req = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _build_request_mix(store_file):
    """(method, route, params/body, expected_status, expected_payload) rows.

    Expectations come from direct library calls over the same file — the
    server under test shares nothing with this ground truth but the bytes
    on disk.
    """
    requests = []
    with MappedPathStore.open(store_file) as store:
        n = len(store)
        for pid in range(n):
            requests.append((
                "GET", "/v1/retrieve", {"id": pid}, 200,
                {"id": pid, "path": list(store.retrieve(pid))}, "retrieve", 0,
            ))
            requests.append((
                "GET", "/v1/expanded_length", {"id": pid}, 200,
                {"id": pid, "length": store.expanded_length(pid)},
                "expanded_length", 0,
            ))
        for pid, start, stop in [(0, 1, 4), (5, 2, -1), (10, None, 3), (3, 0, None)]:
            params = {"id": pid}
            if start is not None:
                params["start"] = start
            if stop is not None:
                params["stop"] = stop
            requests.append((
                "GET", "/v1/retrieve_slice", params, 200,
                {"id": pid, "start": start, "stop": stop,
                 "path": list(store.retrieve_slice(pid, start, stop))},
                "retrieve_slice", 0,
            ))
        for ids in [[0, 1, 2], [11, 0], [5, 5, 5, 5], list(range(n)), [9]]:
            requests.append((
                "POST", "/v1/retrieve_many", {"ids": ids}, 200,
                {"ids": ids, "count": len(ids),
                 "paths": [list(store.retrieve(pid)) for pid in ids]},
                "retrieve_many", len(ids),
            ))
        for source, destination in [(1, 5), (6, 1), (1, 8), (42, 42), (3, 99)]:
            expected = store.paths_between(source, destination)
            requests.append((
                "GET", "/v1/paths_between",
                {"source": source, "destination": destination}, 200,
                {"source": source, "destination": destination,
                 "count": len(expected),
                 "paths": [list(p) for p in expected]}, "paths_between", 0,
            ))
        for query in [(2, 3), (6, 7, 8), (1, 2, 3, 4), (999, 1)]:
            ids = store.subpath_search_ids(query)
            requests.append((
                "POST", "/v1/subpath_search", {"query": list(query)}, 200,
                {"query": list(query), "ids": ids, "count": len(ids),
                 "paths": [list(store.retrieve(pid)) for pid in ids]},
                "subpath_search", 0,
            ))
        # Deliberate failures, interleaved with the successes: each counts
        # toward serve.requests and serve.errors but no endpoint counter.
        requests.append((
            "GET", "/v1/retrieve", {"id": 999}, 404, None, None, 0))
        requests.append((
            "GET", "/v1/retrieve", {"id": "x"}, 400, None, None, 0))
        requests.append(("GET", "/v1/nowhere", {}, 404, None, None, 0))
        requests.append((
            "POST", "/v1/retrieve_many", {"ids": [0, -1]}, 404, None, None, 0))
    return requests


def _fire(address, row):
    method, route, params, expected_status, expected_payload, _, _ = row
    if method == "GET":
        url = address + route + ("?" + urlencode(params) if params else "")
        status, payload = _request(url)
    else:
        status, payload = _request(
            address + route, data=json.dumps(params).encode("utf-8")
        )
    assert status == expected_status, (route, params, payload)
    if expected_payload is not None:
        assert payload == expected_payload, (route, params)
    else:
        assert "error" in payload
    return row


ROUNDS = 4  # each request in the mix is fired this many times


def test_interleaved_requests_and_metric_conservation(tmp_path):
    store_file = str(tmp_path / "archive.rpc2")
    dump_store_file(_build_store(), store_file)
    metrics_dir = str(tmp_path / "metrics")
    mix = _build_request_mix(store_file)

    workload = mix * ROUNDS
    random.Random(1234).shuffle(workload)

    server = PathServer(
        ServeConfig(store_file, port=0, workers=WORKERS, metrics_dir=metrics_dir)
    )
    server.start()
    try:
        assert server.workers_alive() == WORKERS
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            done = list(pool.map(lambda row: _fire(server.address, row), workload))
        assert len(done) == len(workload)
        # Every worker survived the interleaved stream, errors included.
        assert server.workers_alive() == WORKERS
    finally:
        server.stop()
    assert server.workers_alive() == 0

    # -- conservation across the per-worker shutdown snapshots -------------------
    snapshots = []
    for index in range(WORKERS):
        with open(server.metrics_file(index), "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        assert snapshot["worker_index"] == index
        snapshots.append(snapshot)
    pids = {snapshot["pid"] for snapshot in snapshots}
    assert len(pids) == WORKERS  # distinct processes, not one worker thrice

    def fleet_counter(name):
        return sum(
            s["metrics"]["counters"].get(name, 0) for s in snapshots
        )

    sent = len(workload)
    failures = sum(1 for row in workload if row[4] is None)
    assert fleet_counter("serve.requests") == sent
    assert fleet_counter("serve.errors") == failures

    by_endpoint = {}
    for row in workload:
        if row[5] is not None:
            by_endpoint[row[5]] = by_endpoint.get(row[5], 0) + 1
    for endpoint, count in by_endpoint.items():
        assert fleet_counter(f"serve.{endpoint}.requests") == count, endpoint

    batches = by_endpoint["retrieve_many"]
    batch_paths = sum(row[6] for row in workload)
    assert fleet_counter("serve.batches") == batches
    assert fleet_counter("serve.batch_paths") == batch_paths

    # Timer observation counts obey the same conservation as the counters.
    fleet_timed = sum(
        s["metrics"]["timers"]
        .get("serve.request.seconds", {"count": 0})["count"]
        for s in snapshots
    )
    assert fleet_timed == sent


def test_multiple_workers_actually_share_the_load(tmp_path):
    """With many keep-alive-free clients, more than one worker answers.

    Not a scheduling guarantee in general, but with 60 sequential
    connections against a 3-worker accept queue the odds of one worker
    taking every single one are (1/3)**59 — vanishing.  The healthz
    payload names the answering worker, which is how we observe the
    spread.
    """
    store_file = str(tmp_path / "archive.rpc2")
    dump_store_file(_build_store(), store_file)
    with PathServer(ServeConfig(store_file, port=0, workers=WORKERS)) as server:
        seen = set()
        for _ in range(60):
            status, body = _request(server.address + "/healthz")
            assert status == 200
            seen.add(body["worker"]["pid"])
            if len(seen) > 1:
                break
        assert len(seen) > 1
