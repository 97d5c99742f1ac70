#!/usr/bin/env python
"""Streaming ingestion with drift detection and table refits.

The paper's deployment keeps collecting: "there are massive data to be
collected by more tables every day", and at scale "it is preferable to adopt
a more advanced stream mode that simultaneously handles reading and
processing".  This example runs that operational loop:

1. a :class:`StreamingCompressor` warms up on the first arriving paths,
   builds a table and compresses everything after in flight;
2. traffic drifts (a deployment migration changes the hot routes) — the
   windowed ratio monitor flags it;
3. a :class:`ShardedIngest` runs the same stream into immutable shards and,
   when a sealed memtable had drifted, refits the table for the shards
   that follow — old shards keep their own tables and stay decodable;
4. queries keep working across shards with different tables.

Run:  python examples/streaming_archive.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core.config import OFFSConfig
from repro.core.sharded import ShardedIngest, ShardedPathStore
from repro.core.stream import StreamingCompressor
from repro.graphs.topology import CloudTopology
from repro.queries.analytics import compression_summary


def main() -> None:
    config = OFFSConfig(iterations=4, sample_exponent=0)

    # Epoch 1: the original deployment.
    old_topology = CloudTopology(clients=400, seed=21)
    epoch1 = old_topology.generate_paths(3000, seed=22)
    # Epoch 2: a migration re-homes the middle tier (fresh machine ids).
    new_topology = CloudTopology(clients=400, seed=77)
    shift = old_topology.vertex_count + 1000
    epoch2 = [tuple(v + shift for v in p) for p in new_topology.generate_paths(2000, seed=23)]

    # ------------------------------------------------------------------
    # 1+2: stream epoch 1, then watch the drift monitor catch epoch 2.
    # ------------------------------------------------------------------
    stream = StreamingCompressor(
        config=config, train_after=1000, window=400, refit_ratio=0.7,
        base_id=10_000_000,
    )
    stream.feed_many(epoch1)
    ratio_before = compression_summary(stream.store)["symbol_ratio"]
    print(f"epoch 1: {len(stream.store):,} paths streamed, "
          f"symbol ratio {ratio_before:.2f}, drifted={stream.drifted}")

    stream.feed_many(epoch2[:600])
    print(f"epoch 2 begins: after 600 drifted paths -> drifted={stream.drifted}")
    assert stream.drifted, "the regime change must be detected"

    # ------------------------------------------------------------------
    # 3: respond by refitting: shards sealed after the drift get a table
    #    trained on the drifted traffic.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as workdir:
        manifest = os.path.join(workdir, "traffic.rpsm")
        with ShardedIngest(
            manifest, config=config, train_after=1000, memtable_paths=1000,
            window=400, refit_ratio=0.7, refit_on_drift=True, base_id=10_000_000,
        ) as ingest:
            ingest.feed_many(epoch1)
            ingest.feed_many(epoch2)
        assert ingest.refits >= 1, "the drifted memtable must trigger a refit"

        with ShardedPathStore.open(manifest) as archive:
            print(f"\n{len(archive):,} paths sealed into {archive.shard_count} shards "
                  f"under {len(archive.table_fingerprints)} tables "
                  f"({ingest.refits} refit), CR {archive.compression_ratio():.2f}")

            # ----------------------------------------------------------
            # 4: cross-shard retrieval and queries still work.
            # ----------------------------------------------------------
            first, last = archive.retrieve(0), archive.retrieve(len(archive) - 1)
            assert first == tuple(epoch1[0]) and last == tuple(epoch2[-1])

            issue = epoch2[0][3]  # a machine introduced by the migration
            hits = archive.paths_containing(issue)
            print(f"Case 1 across shards: machine {issue} appears in "
                  f"{len(hits):,} archived transactions")

            assert archive.retrieve_all() == [tuple(p) for p in epoch1 + epoch2]
            print(f"the archive ({archive.mapped_bytes:,} shard bytes) "
                  "decodes losslessly")


if __name__ == "__main__":
    main()
