"""Sharded-store benchmark — ``make bench-shard``.

Three claims of the sharded subsystem, measured end to end and emitted as
one JSON blob (``BENCH_shard.json`` by default):

* **parallel build** — wall-clock of :func:`repro.core.sharded.
  build_sharded_store` (4 shards × 4 worker processes, per-shard
  compression *and* serialization in the workers) against the sequential
  monolithic v2 build of the same corpus with the same pre-built table,
  min-of-``ROUNDS`` each.  The sharded output
  is checked token-identical to the monolithic archive *before* any timing
  is reported — a fast wrong build would otherwise look like a win.
  Because CI runners may expose fewer cores than workers, the report
  carries the runner's ``cpus`` and, alongside the measured wall numbers,
  a clearly-labelled critical-path projection (measured fixed overhead +
  the slowest single shard's in-process time) — the wall-clock a
  ``processes``-core machine would see, in the "(projected)" style of the
  in-memory-vs-streaming comparison this bench follows.
* **constant-memory streaming ingest** — :class:`repro.core.sharded.
  ShardedIngest` fed 1×, 2× and 4× the largest size tier, each run in its
  own subprocess that reports its own peak RSS (``VmHWM``), with source paths
  generated chunk-by-chunk (never materializing the stream).  The flatness
  ratio ``peak(4×) / peak(1×)`` is the headline: the LSM-style memtable
  holds it near 1.0.  Each child verifies a deterministic sample of
  ingested paths round-trips from the sealed shards before reporting.
* **monolithic-vs-sharded crossover** — the same stream lengths ingested
  the monolithic way (accumulate every path in memory, compress once,
  write one blob) for the crossover table: monolithic is faster at small
  scale but its peak RSS grows with the dataset, while sharded ingest
  stays flat — the point where the curves cross is where sharding starts
  paying for itself.

Numbers here are *smoke* numbers: shared CI runners, modest sizes.  Read
them for trajectory (is peak memory flat? where do the curves cross?),
not for truth.

::

    PYTHONPATH=src python benchmarks/bench_shard.py --size medium --out BENCH_shard.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROUNDS = 3  # report min-of-3
INGEST_CHUNK = 5000
MEMTABLE_PATHS = 4096
TRAIN_AFTER = 1000
BASE_ID = 1 << 30


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _generate_chunks(total: int):
    """Yield the ingest stream as (chunk_index, paths) without ever holding
    more than one chunk: the point of the memory benchmark is that *ingest*
    memory stays flat, so the source must not grow with ``total`` either."""
    from repro.workloads.synthetic import alibaba_cloud_workload

    produced = 0
    index = 0
    while produced < total:
        count = min(INGEST_CHUNK, total - produced)
        yield index, list(alibaba_cloud_workload(count, seed=index))
        produced += count
        index += 1


def _peak_rss_mb() -> float:
    """This process's own peak resident set (``VmHWM``), in MB.

    ``getrusage(RUSAGE_SELF).ru_maxrss`` is not used: Linux carries it
    across ``execve``, so a child started from a large parent would report
    the parent's peak instead of its own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _report_child(payload: dict) -> int:
    payload["peak_rss_mb"] = round(_peak_rss_mb(), 2)
    print(json.dumps(payload))
    return 0


def _ingest_child(total: int) -> int:
    """Subprocess body: stream *total* paths through ShardedIngest, verify,
    print one JSON line."""
    from repro.core.sharded import ShardedIngest, ShardedPathStore

    with tempfile.TemporaryDirectory(prefix="bench_shard_") as workdir:
        out = os.path.join(workdir, "stream.rpsm")
        started = time.perf_counter()
        with ShardedIngest(
            out,
            train_after=TRAIN_AFTER,
            memtable_paths=MEMTABLE_PATHS,
            base_id=BASE_ID,
        ) as ingest:
            for _, chunk in _generate_chunks(total):
                ingest.feed_many(chunk)
        elapsed = time.perf_counter() - started

        # Correctness gate: sealed shards must hold exactly the fed stream.
        # Chunks are deterministic, so re-generate and sample-check before
        # reporting any number.
        store = ShardedPathStore.open(out)
        if len(store) != total:
            raise SystemExit(f"ingest lost paths: fed {total}, stored {len(store)}")
        offset = 0
        for _, chunk in _generate_chunks(total):
            for position in range(0, len(chunk), max(1, len(chunk) // 8)):
                got = store.retrieve(offset + position)
                if got != tuple(chunk[position]):
                    raise SystemExit(
                        f"ingested path {offset + position} diverges: "
                        f"{got!r} != {tuple(chunk[position])!r}"
                    )
            offset += len(chunk)
        shard_count = store.shard_count
        mapped = store.mapped_bytes
        store.close()
        return _report_child({
            "mode": "sharded",
            "paths": total,
            "seconds": round(elapsed, 4),
            "paths_per_second": round(total / elapsed, 1) if elapsed else 0.0,
            "shards": shard_count,
            "mapped_bytes": mapped,
            "memtable_paths": MEMTABLE_PATHS,
        })


def _mono_child(total: int) -> int:
    """Subprocess body: the monolithic in-memory counterpart — accumulate
    the whole stream, train on the same warm-up budget, compress once,
    write one v2 blob.  The crossover baseline."""
    from repro.core.builder import build_supernode_table
    from repro.core.compressor import compress_paths_flat
    from repro.core.mapped import MappedPathStore
    from repro.core.serialize import dumps_store_v2_tokens

    with tempfile.TemporaryDirectory(prefix="bench_shard_") as workdir:
        out = os.path.join(workdir, "mono.rpc2")
        started = time.perf_counter()
        paths = []
        for _, chunk in _generate_chunks(total):
            paths.extend(chunk)
        table = build_supernode_table(paths[:TRAIN_AFTER], base_id=BASE_ID)
        tokens = compress_paths_flat(paths, table)
        with open(out, "wb") as fh:
            fh.write(dumps_store_v2_tokens(table, tokens))
        elapsed = time.perf_counter() - started

        with MappedPathStore.open(out) as store:
            if len(store) != total:
                raise SystemExit(f"monolithic build lost paths: {len(store)} != {total}")
            for gid in range(0, total, max(1, total // 64)):
                if store.retrieve(gid) != tuple(paths[gid]):
                    raise SystemExit(f"monolithic path {gid} diverges")
        return _report_child({
            "mode": "monolithic",
            "paths": total,
            "seconds": round(elapsed, 4),
            "paths_per_second": round(total / elapsed, 1) if elapsed else 0.0,
        })


def _run_child(mode_flag: str, total: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode_flag, str(total)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"child {mode_flag} {total} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bench_build_times(corpus, table, shards: int, processes: int, workdir: str) -> dict:
    """Monolithic vs sharded wall time, plus the critical-path
    decomposition that projects multi-core wall-clock."""
    from repro.core.compressor import compress_paths_flat
    from repro.core.flatcorpus import FlatCorpus
    from repro.core.mapped import MappedPathStore
    from repro.core.matcher import static_matcher_from_table
    from repro.core.serialize import dumps_store_v2_tokens
    from repro.core.sharded import ShardedPathStore, build_sharded_store, partition_corpus

    mono_path = os.path.join(workdir, "mono.rpc2")
    sharded_path = os.path.join(workdir, "sharded.rpsm")

    def build_monolithic() -> None:
        matcher = static_matcher_from_table(table)
        tokens = compress_paths_flat(corpus, table, matcher)
        blob = dumps_store_v2_tokens(table, tokens)
        with open(mono_path, "wb") as fh:
            fh.write(blob)

    def build_sharded() -> None:
        build_sharded_store(
            corpus, table, sharded_path, shards=shards, processes=processes
        )

    # Correctness gate before any timing: the sharded archive must answer
    # token-identically to the monolithic one.
    build_monolithic()
    build_sharded()
    with MappedPathStore.open(mono_path) as mono:
        sharded_store = ShardedPathStore.open(sharded_path)
        if sharded_store.tokens() != mono.tokens():
            raise SystemExit("sharded build diverges from monolithic tokens")
        sample = list(range(0, len(mono), max(1, len(mono) // 64)))
        if sharded_store.retrieve_batch(sample) != mono.retrieve_batch(sample):
            raise SystemExit("sharded retrieval diverges from monolithic")
        sharded_store.close()

    mono_seconds = min(_timed(build_monolithic) for _ in range(ROUNDS))
    sharded_seconds = min(_timed(build_sharded) for _ in range(ROUNDS))

    # Critical-path decomposition: fixed overhead is the sharded build of a
    # corpus with ~no compression work (spawn + partition + manifest), the
    # parallel part is the slowest single shard compressed+serialized
    # in-process.  Their sum is the wall a `processes`-core runner would
    # see; on runners with fewer cores than workers the measured wall above
    # is contention-bound, so both are reported, clearly labelled.
    tiny = FlatCorpus.from_paths(list(corpus)[: shards])
    overhead_path = os.path.join(workdir, "overhead.rpsm")
    overhead_seconds = min(
        _timed(lambda: build_sharded_store(
            tiny, table, overhead_path, shards=shards, processes=processes
        ))
        for _ in range(ROUNDS)
    )
    matcher = static_matcher_from_table(table)
    per_shard = []
    for part in partition_corpus(corpus, shards):
        per_shard.append(min(
            _timed(lambda: dumps_store_v2_tokens(
                table, compress_paths_flat(part, table, matcher)))
            for _ in range(ROUNDS)
        ))
    projected = overhead_seconds + max(per_shard)
    return {
        "monolithic_seconds": round(mono_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "wall_speedup": round(mono_seconds / sharded_seconds, 3) if sharded_seconds else 0.0,
        "fixed_overhead_seconds": round(overhead_seconds, 4),
        "per_shard_seconds": [round(s, 4) for s in per_shard],
        "projected_parallel_seconds": round(projected, 4),
        "projected_speedup": round(mono_seconds / projected, 3) if projected else 0.0,
    }


def bench_build(size: str, shards: int, processes: int) -> dict:
    """Min-of-ROUNDS monolithic vs sharded build on one corpus + table."""
    from repro.bench.harness import available_cpus
    from repro.core.builder import TableBuilder
    from repro.core.config import OFFSConfig
    from repro.workloads.registry import make_dataset

    dataset = make_dataset("alibaba", size, seed=0)
    corpus = dataset.to_flat()
    table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=2)).build(dataset)
    with tempfile.TemporaryDirectory(prefix="bench_shard_build_") as workdir:
        times = _bench_build_times(corpus, table, shards, processes, workdir)
    cpus = available_cpus()
    return {
        "workload": "alibaba",
        "size": size,
        "paths": len(corpus),
        "table_entries": len(table),
        "shards": shards,
        "processes": processes,
        "rounds": ROUNDS,
        "cpus": cpus,
        "cpu_limited": cpus < processes,
        **times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="medium", choices=("tiny", "small", "medium"))
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--processes", type=int, default=4)
    parser.add_argument("--ingest-multipliers", default="1,2,4",
                        help="stream lengths as multiples of the size tier")
    parser.add_argument("--out", default="BENCH_shard.json")
    parser.add_argument("--ingest-child", type=int, default=None,
                        help=argparse.SUPPRESS)  # internal: subprocess mode
    parser.add_argument("--mono-child", type=int, default=None,
                        help=argparse.SUPPRESS)  # internal: subprocess mode
    args = parser.parse_args(argv)

    if args.ingest_child is not None:
        return _ingest_child(args.ingest_child)
    if args.mono_child is not None:
        return _mono_child(args.mono_child)

    from repro.core.serialize import publish_file
    from repro.workloads.registry import SIZE_PRESETS

    build = bench_build(args.size, args.shards, args.processes)
    print(f"build[{args.size}]: monolithic {build['monolithic_seconds']}s, "
          f"sharded({args.shards}x{args.processes}) {build['sharded_seconds']}s "
          f"(wall {build['wall_speedup']}x on {build['cpus']} cpu(s); "
          f"projected {build['projected_speedup']}x at {args.processes} cores)",
          flush=True)

    tier = SIZE_PRESETS[args.size]["alibaba"]
    multipliers = [int(part) for part in args.ingest_multipliers.split(",") if part.strip()]
    runs = []
    for multiplier in multipliers:
        for flag, mode in (("--ingest-child", "sharded"), ("--mono-child", "monolithic")):
            run = _run_child(flag, tier * multiplier)
            run["multiplier"] = multiplier
            runs.append(run)
            print(f"{mode}[{multiplier}x = {run['paths']} paths]: "
                  f"{run['seconds']}s, peak {run['peak_rss_mb']} MB", flush=True)

    sharded_runs = [run for run in runs if run["mode"] == "sharded"]
    base_peak = sharded_runs[0]["peak_rss_mb"] if sharded_runs else 0
    payload = {
        "benchmark": "sharded_store",
        "python": platform.python_version(),
        "build": build,
        "ingest": {
            "tier_paths": tier,
            "chunk_paths": INGEST_CHUNK,
            "train_after": TRAIN_AFTER,
            "runs": runs,
            "peak_rss_flatness": {
                f"{run['multiplier']}x": round(run["peak_rss_mb"] / base_peak, 3)
                for run in sharded_runs if base_peak
            },
        },
    }
    publish_file(args.out, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
