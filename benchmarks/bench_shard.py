"""Sharded-store benchmark — ``make bench-shard``.

Three claims of the sharded subsystem, measured end to end and emitted as
one JSON blob (``BENCH_shard.json`` by default):

* **parallel build** — wall-clock of :func:`repro.core.sharded.
  build_sharded_store` (4 shards, per-shard compression *and*
  serialization in the workers) with ``processes=1`` against
  ``processes=min(cpus, shards)``, the two sides alternating for
  ``ROUNDS`` rounds, at 1× and 5× the size tier.  Each side reports its
  min, median and spread; the crossover is the smallest corpus at which
  the fan-out wins by more than the combined spread.  Both archives are
  checked token-identical to the in-process compression *before* any
  timing is reported — a fast wrong build would otherwise look like a win.
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
import functools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROUNDS = 3  # alternating rounds per build side
BUILD_MULTIPLIERS = (1, 5)
INGEST_CHUNK = 5000
MEMTABLE_PATHS = 4096
TRAIN_AFTER = 1000
BASE_ID = 1 << 30


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


def _seconds(timing) -> dict:
    return {
        "min": round(timing.min, 4),
        "median": round(timing.median, 4),
        "spread": round(timing.spread, 4),
    }


def _bench_build_scale(corpus, table, shards: int, processes: int, workdir: str) -> dict:
    """One process against *processes* workers on one corpus, alternating."""
    from repro.analysis.metrics import relative_delta, time_rounds
    from repro.core.compressor import compress_paths_flat
    from repro.core.sharded import ShardedPathStore, build_sharded_store

    def build(workers: int) -> str:
        out = os.path.join(workdir, f"sharded-{workers}.rpsm")
        build_sharded_store(corpus, table, out, shards=shards, processes=workers)
        return out

    one, fan = time_rounds(
        [functools.partial(build, 1), functools.partial(build, processes)], ROUNDS
    )
    # Correctness gate before any timing is reported: both archives must
    # hold exactly the in-process compression's tokens.
    expected = compress_paths_flat(corpus, table)
    for timing in (one, fan):
        with ShardedPathStore.open(timing.result) as store:
            if store.tokens() != expected:
                raise SystemExit("sharded build diverges from in-process tokens")
    gain = relative_delta(one.median, fan.median, one.spread, fan.spread)
    return {
        "paths": len(corpus),
        "table_entries": len(table),
        "one_process_seconds": _seconds(one),
        "fan_out_seconds": _seconds(fan),
        "speedup": round(one.median / fan.median, 3),
        "fan_out_wins": gain > 0,
    }


def bench_build(size: str, shards: int) -> dict:
    """``processes=1`` against ``min(cpus, shards)`` at each build multiplier."""
    from repro.bench.harness import available_cpus
    from repro.core.builder import TableBuilder
    from repro.core.config import OFFSConfig
    from repro.workloads.registry import SIZE_PRESETS
    from repro.workloads.synthetic import alibaba_cloud_workload

    cpus = available_cpus()
    processes = min(cpus, shards)
    scales = []
    for multiplier in BUILD_MULTIPLIERS:
        dataset = alibaba_cloud_workload(SIZE_PRESETS[size]["alibaba"] * multiplier, seed=0)
        table, _ = TableBuilder(OFFSConfig(iterations=3, sample_exponent=2)).build(dataset)
        with tempfile.TemporaryDirectory(prefix="bench_shard_build_") as workdir:
            scale = _bench_build_scale(dataset.to_flat(), table, shards, processes, workdir)
        scales.append({"multiplier": multiplier, **scale})
    wins = [scale["paths"] for scale in scales if scale["fan_out_wins"]]
    return {
        "workload": "alibaba",
        "size": size,
        "shards": shards,
        "processes": processes,
        "rounds": ROUNDS,
        "cpus": cpus,
        "scales": scales,
        "crossover_paths": wins[0] if wins else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="medium", choices=("tiny", "small", "medium"))
    parser.add_argument("--shards", type=int, default=4)
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

    build = bench_build(args.size, args.shards)
    for scale in build["scales"]:
        one, fan = scale["one_process_seconds"], scale["fan_out_seconds"]
        print(f"build[{scale['paths']} paths]: 1 process {one['median']}s "
              f"(spread {one['spread']}), {build['processes']} processes "
              f"{fan['median']}s (spread {fan['spread']}) on {build['cpus']} "
              f"cpu(s): {scale['speedup']}x, wins={scale['fan_out_wins']}",
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
