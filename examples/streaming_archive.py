#!/usr/bin/env python
"""Streaming ingestion into a sharded archive, then reading it back.

The paper's deployment keeps collecting: "there are massive data to be
collected by more tables every day", and at scale "it is preferable to adopt
a more advanced stream mode that simultaneously handles reading and
processing".  This example runs that loop end to end:

1. a :class:`ShardedIngest` fits one table on the first arriving paths
   (Fig. 6c's "table based on first arriving samples"), compresses every
   later path in flight against it, and seals the memtable into an
   immutable v2 shard every 1,000 paths;
2. the archive is reopened from its manifest;
3. paths are retrieved across shard boundaries by their global ids;
4. a Case 1 query (every transaction through one machine) runs over the
   whole archive;
5. the archive decodes losslessly.

Run:  python examples/streaming_archive.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core.config import OFFSConfig
from repro.core.sharded import ShardedIngest, ShardedPathStore
from repro.graphs.topology import CloudTopology


def main() -> None:
    config = OFFSConfig(iterations=4, sample_exponent=0)
    traffic = CloudTopology(clients=400, seed=21).generate_paths(5000, seed=22)

    with tempfile.TemporaryDirectory() as workdir:
        manifest = os.path.join(workdir, "traffic.rpsm")

        # 1: ingest path by path; ids are assigned in arrival order.
        with ShardedIngest(
            manifest, config=config, train_after=1000, memtable_paths=1000
        ) as ingest:
            ids = ingest.feed_many(traffic)
        steady = [(i, gid) for i, gid in enumerate(ids) if gid is not None]
        print(f"{len(traffic):,} paths ingested into {ingest.shard_count} shards "
              f"({len(steady):,} got their id on arrival, the rest at warm-up)")

        # 2: reopen the archive from its manifest.
        with ShardedPathStore.open(manifest) as archive:
            assert len(archive) == len(traffic)
            assert archive.shard_count == ingest.shard_count >= 2
            print(f"reopened: {len(archive):,} paths in {archive.shard_count} "
                  f"shards under one table of {len(archive.table)} entries, "
                  f"CR {archive.compression_ratio():.2f}")

            # 3: global ids reach every shard, including across a boundary.
            boundary = archive.manifest.shards[1].start
            for path_id in (0, boundary - 1, boundary, len(archive) - 1):
                assert archive.retrieve(path_id) == tuple(traffic[path_id])
            for index, gid in steady[::500]:
                assert archive.retrieve(gid) == tuple(traffic[index])
            print(f"cross-shard retrieval: ids {boundary - 1} and {boundary} "
                  "sit in different shards and decode exactly")

            # 4: Case 1 over the whole archive.
            machine = traffic[0][len(traffic[0]) // 2]
            hits = archive.paths_containing(machine)
            expected = [i for i, path in enumerate(traffic) if machine in path]
            assert hits == expected
            print(f"Case 1: machine {machine} appears in {len(hits):,} "
                  "archived transactions")

            # 5: lossless.
            assert archive.retrieve_all() == [tuple(p) for p in traffic]
            print(f"the archive ({archive.mapped_bytes:,} shard bytes) "
                  "decodes losslessly")


if __name__ == "__main__":
    main()
