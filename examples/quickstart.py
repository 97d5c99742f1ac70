#!/usr/bin/env python
"""Quickstart: compress a path set with OFFS, retrieve individual paths.

Walks the core API end to end in under a minute:

1. generate a small synthetic path set,
2. fit an OFFS codec (builds the supernode table),
3. load everything into a compressed store,
4. retrieve single paths without touching the rest,
5. persist the archive to disk and load it back.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CompressedPathStore, OFFSCodec, OFFSConfig
from repro.analysis.stats import format_table
from repro.core.serialize import dumps_store, loads_store
from repro.workloads import make_dataset


def main() -> None:
    # 1. A scaled-down version of the paper's Alibaba Cloud workload:
    #    IP-hop transaction paths over a tiered service topology.
    dataset = make_dataset("alibaba", "small")
    stats = dataset.stats()
    print(f"dataset: {stats.path_number:,} paths, {stats.node_number:,} vertices, "
          f"avg length {stats.avg_length:.1f}")

    # 2. Fit OFFS.  The paper's deployed defaults are delta=8, alpha=5,
    #    i=4 iterations, sampling 1 path in 2^k.  At this scale a smaller
    #    sample exponent keeps the training sample representative.
    codec = OFFSCodec(OFFSConfig(iterations=4, sample_exponent=2))
    codec.fit(dataset)
    print(f"table:   {codec.build_report.summary()}")

    # 3. Compress everything into a randomly accessible store.
    store = CompressedPathStore.from_corpus(dataset, codec.table)
    print(f"ratio:   CR = {store.compression_ratio():.2f} "
          f"({store.raw_size_bytes():,} B -> {store.compressed_size_bytes():,} B)")

    # 4. Retrieve one path — only that path is decompressed.
    path_id = 1234
    original = dataset[path_id]
    restored = store.retrieve(path_id)
    assert restored == original
    print(f"path {path_id}: {list(restored)[:6]}... retrieved losslessly")

    # 5. Persist and reload.
    blob = dumps_store(store)
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "paths.offs"
        archive.write_bytes(blob)
        reloaded = loads_store(archive.read_bytes())
        assert reloaded.retrieve(path_id) == original
        print(f"archive: {archive.stat().st_size:,} bytes on disk, reload OK")

    # Bonus: what the table looks like.
    rows = [("supernode id", "subpath")]
    for sid, subpath in list(codec.table)[:5]:
        rows.append((sid, str(list(subpath))))
    print()
    print(format_table(rows, title="first supernode table entries"))


if __name__ == "__main__":
    main()
