"""Reordering benchmark — ``make bench-reorder``.

Prices every vertex-ordering strategy on every workload: a (workload x
strategy) grid of the Section VI-B metrics — CR under the byte-accurate
varint model (charging for the persisted order table), CS / DS / PDS —
plus the headline varint-bytes-saved number, with each cell round-trip
verified through a mapped v2 archive *before* any number is reported.

Deterministic keys (``compression_ratio``, ``compressed_bytes``,
``varint_bytes_saved``, ``verified``) gate in CI via
``tools/bench_compare.py``; the ``*_mbps`` / ``*_seconds`` keys are
machine numbers read for trajectory only.

::

    PYTHONPATH=src python benchmarks/bench_reorder.py --size tiny --out BENCH_reorder.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from typing import Callable, Dict


def min_of(run: Callable[[], object], rounds: int) -> float:
    from repro.analysis.metrics import time_rounds

    return time_rounds([run], rounds)[0].min


def bench_cell(dataset, strategy: str, sample_exponent: int, rounds: int, seed: int):
    """One (workload, strategy) cell: fit, compress, verify, time."""
    from repro.analysis.sizing import dataset_raw_bytes
    from repro.core.compressor import compress_paths_flat
    from repro.core.config import OFFSConfig
    from repro.core.mapped import MappedPathStore
    from repro.core.offs import OFFSCodec
    from repro.core.serialize import dumps_store_v2
    from repro.core.store import CompressedPathStore
    from repro.paths.encoding import VarintEncoding
    from repro.paths.reorder import varint_bytes_saved

    paths = [tuple(p) for p in dataset]
    corpus = dataset.to_flat()
    raw_bytes = dataset_raw_bytes(paths)
    config = OFFSConfig(sample_exponent=sample_exponent, reorder=strategy)

    started = time.perf_counter()
    codec = OFFSCodec(config).fit(corpus)
    fit_seconds = time.perf_counter() - started
    table, order = codec.table, codec.order

    work_corpus = corpus if order is None else order.transform_corpus(corpus)
    compress_seconds = min_of(lambda: compress_paths_flat(work_corpus, table), rounds)
    tokens = compress_paths_flat(work_corpus, table)
    store = CompressedPathStore.from_tokens(table, tokens, order=order)

    blob = dumps_store_v2(store)
    varint = VarintEncoding()
    compressed_bytes = store.compressed_size_bytes(varint)
    saved = varint_bytes_saved(order, paths)

    # Round-trip through the mapped reader: full decode AND a slice, both
    # in original ids.  A cell that fails verification reports nothing.
    fd, v2_path = tempfile.mkstemp(suffix=".rpc2")
    os.close(fd)
    try:
        with open(v2_path, "wb") as fh:
            fh.write(blob)
        with MappedPathStore.open(v2_path) as mapped:
            verified = mapped.retrieve_all() == paths
            probe = min(3, len(paths) - 1)
            verified = verified and (
                mapped.retrieve_slice(probe, 0, 2) == paths[probe][0:2]
            )
            decompress_seconds = min_of(mapped.retrieve_all, rounds)
            count = max(1, min(len(paths) // 10, 256))
            ids = sorted(random.Random(seed).sample(range(len(paths)), count))
            sample_bytes = dataset_raw_bytes([paths[i] for i in ids])
            pds_seconds = min_of(
                lambda: [mapped.retrieve(i) for i in ids], rounds
            )
    finally:
        os.unlink(v2_path)

    _mb = 1_000_000.0
    compress_total = fit_seconds + compress_seconds
    return {
        "verified": verified,
        "compressed_bytes": compressed_bytes,
        "v2_file_bytes": len(blob),
        "order_bytes": order.size_bytes(varint) if order is not None else 0,
        "order_vertices": len(order) if order is not None else 0,
        "varint_bytes_saved": saved,
        "table_entries": len(table),
        "compression_ratio": round(raw_bytes / compressed_bytes, 4),
        "compression_speed_mbps": round(raw_bytes / _mb / compress_total, 3),
        "decompression_speed_mbps": round(raw_bytes / _mb / decompress_seconds, 3),
        "partial_decompression_speed_mbps": round(
            sample_bytes / _mb / pds_seconds, 3
        ),
        "fit_seconds": round(fit_seconds, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="tiny", choices=("tiny", "small", "medium"))
    parser.add_argument("--workloads", nargs="+", default=["alibaba", "rome"])
    parser.add_argument("--rounds", type=int, default=3, help="report min-of-N")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_reorder.json")
    args = parser.parse_args(argv)

    from repro.bench.harness import available_cpus
    from repro.core.serialize import publish_file
    from repro.paths.reorder import ORDER_STRATEGIES
    from repro.workloads.registry import make_dataset

    sample_exponent = {"tiny": 0, "small": 2, "medium": 4}[args.size]
    workloads: Dict[str, Dict[str, object]] = {}
    all_verified = True
    total_saved = 0
    winners = {}
    for workload in args.workloads:
        dataset = make_dataset(workload, args.size, seed=args.seed)
        cells: Dict[str, Dict[str, object]] = {}
        for strategy in ORDER_STRATEGIES:
            cell = bench_cell(
                dataset, strategy, sample_exponent, args.rounds, args.seed
            )
            cells[strategy] = cell
            all_verified = all_verified and bool(cell["verified"])
            total_saved += int(cell["varint_bytes_saved"])
            print(
                f"{workload}/{strategy}: CR={cell['compression_ratio']} "
                f"CS={cell['compression_speed_mbps']}MB/s "
                f"saved={cell['varint_bytes_saved']}B "
                f"verified={cell['verified']}",
                file=sys.stderr,
            )
        identity_cr = float(cells["identity"]["compression_ratio"])
        best = max(
            cells, key=lambda s: (float(cells[s]["compression_ratio"]), s != "identity")
        )
        winners[workload] = best
        workloads[workload] = {
            "paths": len(dataset),
            "strategies": cells,
            "best_strategy": best,
            "best_cr_delta": round(
                float(cells[best]["compression_ratio"]) - identity_cr, 4
            ),
        }

    result = {
        "benchmark": "reorder",
        "size": args.size,
        "rounds": args.rounds,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": available_cpus(),
        "workloads": workloads,
        "headline": {
            "all_verified": all_verified,
            "total_varint_bytes_saved": total_saved,
            "any_strategy_beats_identity": any(
                w != "identity" for w in winners.values()
            ),
        },
    }
    blob = json.dumps(result, indent=2, sort_keys=True)
    publish_file(args.out, (blob + "\n").encode("utf-8"))
    print(blob)
    print(
        f"\nreorder: winners={winners} saved={total_saved}B "
        f"(all_verified={all_verified}) -> {args.out}",
        file=sys.stderr,
    )
    return 0 if all_verified else 1


if __name__ == "__main__":
    sys.exit(main())
