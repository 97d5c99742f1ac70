#!/usr/bin/env python
"""Cloud monitoring: the paper's two operational use cases (Cases 1 & 2).

Scenario (paper Figures 1–2): every transaction through Alibaba Cloud is
recorded as an IP-hop path.  Operations keeps the archive compressed with
OFFS, yet must answer, without bulk decompression:

* **Case 1 — identifying affected nodes.**  A host server misbehaves; find
  every path through it and hence every machine and client affected.
* **Case 2 — locating anomalies.**  A customer reports problems between a
  client and a terminal server; inspect all intermediate hops.

Run:  python examples/cloud_monitoring.py
"""

from __future__ import annotations

import time

from repro import CompressedPathStore, OFFSCodec, OFFSConfig
from repro.graphs.topology import CloudTopology
from repro.paths.dataset import PathDataset
from repro.paths.preprocess import preprocess_paths


def main() -> None:
    # Ingest a day's worth of (scaled-down) transaction logs.
    topology = CloudTopology(clients=1500, seed=11)
    raw_paths = topology.generate_paths(8000, seed=12)
    dataset, report = preprocess_paths(raw_paths, name="transactions")
    print(f"ingest:  {report.summary()}")

    codec = OFFSCodec(OFFSConfig(iterations=4, sample_exponent=3))
    store = CompressedPathStore.from_codec(dataset, codec)
    print(f"archive: {len(store):,} paths compressed, CR = {store.compression_ratio():.2f}")

    print(f"index:   {store.vertex_index().vertex_count():,} vertices indexed\n")

    # ------------------------------------------------------------------
    # Case 1: a web server starts failing.
    # ------------------------------------------------------------------
    issue_server = topology.pod_routes[0][2]  # the busiest pod's web server
    started = time.perf_counter()
    affected_paths = store.affected_paths(issue_server)
    affected = store.affected_vertices(issue_server)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    clients = [v for v in affected if v < topology.clients]
    print(f"CASE 1   anomaly on web server {issue_server}")
    print(f"         {len(affected_paths):,} transactions pass through it "
          f"({len(affected_paths) / len(store):.1%} of the archive)")
    print(f"         {len(affected):,} machines/clients affected, "
          f"of which {len(clients):,} are client IPs")
    print(f"         answered in {elapsed_ms:.1f} ms, decompressing only the matches\n")

    # ------------------------------------------------------------------
    # Case 2: a customer reports failures reaching a database.
    # ------------------------------------------------------------------
    sample = dataset[42]
    client_ip, terminal_ip = sample[0], sample[-1]
    started = time.perf_counter()
    routes = store.paths_between(client_ip, terminal_ip)
    hops = store.intermediate_vertices(client_ip, terminal_ip)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    print(f"CASE 2   client {client_ip} -> terminal {terminal_ip}")
    print(f"         {len(routes)} recorded transactions between the pair")
    print(f"         {len(hops)} distinct intermediate machines to inspect")
    print(f"         answered in {elapsed_ms:.1f} ms\n")

    # Sanity: everything the store returned is exact.
    brute_force = [p for p in dataset if issue_server in p]
    assert affected_paths == brute_force
    print("verified: query answers match a brute-force scan of the originals")


if __name__ == "__main__":
    main()
