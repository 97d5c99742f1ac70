"""Serving-layer load benchmark — ``make bench-serve``.

Starts a real :class:`~repro.serve.PathServer` over a freshly built v2
archive, once per worker count, and drives it with a thread-pool client:
point retrievals (``/v1/retrieve``) and batch retrievals
(``/v1/retrieve_many``) with per-request latency capture.  Each client
thread keeps one persistent HTTP/1.1 connection, the way a real client
does: a fresh connection per request would hide any per-request cost that
only keep-alive pays (such as a delayed-ACK stall).  Emits one JSON blob
(``BENCH_serve.json`` by default) reporting throughput (qps), the p50/p99
latency and the reconnect count per worker count, so CI can archive the
scaling trajectory of the pre-fork fleet next to the compression timings.

A response sample is checked against direct store calls before anything
is reported — a fast wrong answer would otherwise look like a win.

Numbers here are *smoke* numbers: loopback TCP, small archives, shared CI
runners.  Read them for trajectory (does 2 workers beat 1?) and
order-of-magnitude, not for truth.

::

    PYTHONPATH=src python benchmarks/bench_serve.py --size small --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples* by nearest-rank on sorted data."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _client(host: str, port: int, urls: List[str]) -> Tuple[List[float], int]:
    """GET *urls* in order over one keep-alive connection.

    Returns the per-request latencies and how often the connection had to
    be reopened (``http.client`` reconnects silently when the server
    closed it).
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    latencies: List[float] = []
    reconnects = 0
    try:
        for url in urls:
            if latencies and conn.sock is None:
                reconnects += 1
            started = time.perf_counter()
            conn.request("GET", url)
            response = conn.getresponse()
            body = response.read()
            latencies.append(time.perf_counter() - started)
            if response.status != 200:
                raise SystemExit(f"GET {url} answered {response.status}: {body[:200]!r}")
    finally:
        conn.close()
    return latencies, reconnects


def get_json(host: str, port: int, url: str):
    """One GET on its own connection, decoded."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", url)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def drive(host: str, port: int, urls: List[str], threads: int) -> Dict[str, object]:
    """Split *urls* over *threads* keep-alive clients; qps and latency stats."""
    shares = [urls[i::threads] for i in range(threads)]
    wall_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda share: _client(host, port, share), shares))
    wall = time.perf_counter() - wall_started
    latencies = [latency for share, _ in results for latency in share]
    return {
        "requests": len(urls),
        "client_threads": threads,
        "wall_seconds": round(wall, 4),
        "qps": round(len(urls) / wall, 1) if wall else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "max_ms": round(max(latencies) * 1e3, 3),
        "reconnects": sum(reconnects for _, reconnects in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--workload", default="alibaba")
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated worker counts to sweep")
    parser.add_argument("--threads", type=int, default=8, help="client threads")
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    from repro.bench.harness import available_cpus
    from repro.core.builder import TableBuilder
    from repro.core.config import OFFSConfig
    from repro.core.mapped import MappedPathStore
    from repro.core.serialize import dump_store_file, publish_file
    from repro.core.store import CompressedPathStore
    from repro.serve import PathServer, ServeConfig
    from repro.workloads.registry import make_dataset

    requests_for = {"tiny": 200, "small": 800, "medium": 3000}[args.size]
    worker_counts = [int(part) for part in args.workers.split(",") if part.strip()]

    dataset = make_dataset(args.workload, args.size, seed=0)
    table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=2)).build(dataset)
    store = CompressedPathStore(table)
    store.extend(dataset)

    fd, store_path = tempfile.mkstemp(suffix=".rpc2")
    os.close(fd)
    results = []
    try:
        dump_store_file(store, store_path)
        n = len(store)
        # Deterministic id stream: every path hit, cycled to the target count.
        point_urls = [f"/v1/retrieve?id={i % n}" for i in range(requests_for)]
        batch = ",".join(str(i) for i in range(min(32, n)))
        batch_urls = [f"/v1/retrieve_many?ids={batch}"] * max(1, requests_for // 8)

        with MappedPathStore.open(store_path) as direct:
            expected_first = {"id": 0, "path": list(direct.retrieve(0))}

        for workers in worker_counts:
            config = ServeConfig(store_path, port=0, workers=workers)
            with PathServer(config) as server:
                # Correctness gate, then a short warmup per worker count.
                host, port = server.host, server.port
                got = get_json(host, port, "/v1/retrieve?id=0")
                if got != expected_first:
                    raise SystemExit(
                        f"served payload diverges from direct store: {got!r}"
                    )
                drive(host, port, point_urls[: args.threads * 4], args.threads)
                point = drive(host, port, point_urls, args.threads)
                batched = drive(host, port, batch_urls, args.threads)
            results.append({
                "workers": workers,
                "retrieve": point,
                "retrieve_many": {
                    "batch_size": min(32, n), **batched,
                },
            })
            print(f"workers={workers}: retrieve {point['qps']} qps "
                  f"(p50 {point['p50_ms']} ms, p99 {point['p99_ms']} ms); "
                  f"retrieve_many {batched['qps']} qps; reconnects "
                  f"{point['reconnects'] + batched['reconnects']}", flush=True)
    finally:
        os.unlink(store_path)

    base = results[0]["retrieve"]["qps"] if results else 0
    payload = {
        "benchmark": "serve_load",
        "workload": args.workload,
        "size": args.size,
        "python": platform.python_version(),
        "cpus": available_cpus(),
        "paths": len(store),
        "table_entries": len(table),
        "client_threads": args.threads,
        "worker_sweep": results,
        "scaling": {
            str(r["workers"]): round(r["retrieve"]["qps"] / base, 3)
            for r in results if base
        },
    }
    publish_file(args.out, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
