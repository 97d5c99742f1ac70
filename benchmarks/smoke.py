"""Tiny smoke benchmark — ``make bench-smoke``.

A fig5-style speed run small enough for CI: build one table on one
workload, then time the seed pipeline (per-path loop, flat hash matcher)
against the flat batch pipeline (the vectorized rolling-hash kernel),
asserting byte-identical output.  Compared routes alternate round by
round; each ``seconds`` is the fastest round's, and ``spread_seconds``
records how far every timed quantity's rounds disagree.  The build's table CRC
(``table_crc``) and its Algorithm 5 accounting (``build_counters``:
candidates pruned, probes, hashed vertices) are recorded, so that
``make bench-check`` fails on any drift in construction.  The v2 blob of
the same tokens is timed too (``serialize_seconds``), and its bytes are checked
against a per-token ``encode`` loop (``serialize_matches_scalar``).
Emits one JSON blob (``BENCH_smoke.json`` by default) so CI can archive a
timing trajectory next to the test logs.

The same run benchmarks the decode path into a second blob
(``BENCH_decode.json``): cold vs warm expansion cache, the per-path
decompress loop vs the flat batch kernel, and in-memory retrieval vs a
``MappedPathStore`` over a temp v2 file (every id once, then one bulk
``retrieve_all``) — all on the same archive, with an identical-output
assertion across every route.

Timings here are *smoke* numbers: small inputs, shared runners — read them
for trajectory and order-of-magnitude, not for truth.  The real harness is
``pytest benchmarks/ --benchmark-only`` and ``python -m repro.bench``.

::

    PYTHONPATH=src python benchmarks/smoke.py --size tiny --out BENCH_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import zlib
from typing import Callable, Dict


def timed(rounds: int, **runs: Callable[[], object]) -> Dict[str, object]:
    """name -> ``Timing`` of every run, alternating round by round."""
    from repro.analysis.metrics import time_rounds

    return dict(zip(runs, time_rounds(list(runs.values()), rounds)))


def spreads(timings: Dict[str, object]) -> Dict[str, float]:
    return {
        f"{name}_seconds": round(timing.spread, 6)
        for name, timing in sorted(timings.items())
    }


def bench_decode(table, tokens, paths, rounds: int) -> Dict[str, object]:
    """Time the decode routes on one archive; returns the JSON payload.

    Every route is checked for identical output before anything is timed —
    a fast wrong answer would otherwise look like a win.
    """
    from repro.core.compressor import decompress_path, decompress_paths_flat
    from repro.core.flatcorpus import FlatCorpus
    from repro.core.mapped import MappedPathStore
    from repro.core.serialize import dump_store_file
    from repro.core.store import CompressedPathStore

    store = CompressedPathStore(table)
    store._tokens.extend(tokens)
    token_corpus = FlatCorpus.from_paths(tokens)
    total_symbols = sum(len(p) for p in paths)

    def seed_loop():
        return [decompress_path(t, table) for t in tokens]

    # Identity first: per-path loop == flat kernel == original paths.
    loop_out = seed_loop()
    flat_out = decompress_paths_flat(token_corpus, table, as_corpus=True)
    identical = loop_out == list(paths) and flat_out.to_paths() == loop_out

    # Cold = cache built inside the timed region (first decode after load);
    # warm = the steady state every later decode enjoys (the cold round
    # just before it rebuilt the cache).
    def cold_first_decode():
        table._expansion_cache = None
        return seed_loop()

    t = timed(rounds, cold_first_decode=cold_first_decode, warm_decode=seed_loop)
    t.update(timed(
        rounds,
        flat_batch_corpus=lambda: decompress_paths_flat(
            token_corpus, table, as_corpus=True
        ),
        flat_batch_to_paths=lambda: decompress_paths_flat(token_corpus, table),
    ))

    # Point retrievals: every path once, in-memory store vs mapped v2 file;
    # then the bulk retrieve_all of both (mapped: one payload parse).
    sample = range(len(store))
    fd, v2_path = tempfile.mkstemp(suffix=".rpc2")
    os.close(fd)
    try:
        dump_store_file(store, v2_path)
        t.update(timed(
            rounds, mapped_open=lambda: MappedPathStore.open(v2_path).close()
        ))
        with MappedPathStore.open(v2_path) as mapped:
            identical = (
                identical
                and [mapped.retrieve(i) for i in sample] == loop_out
                and store.retrieve_all() == loop_out
                and mapped.retrieve_all() == loop_out
            )
            t.update(timed(
                rounds,
                memory_retrieve_all_ids=lambda: [store.retrieve(i) for i in sample],
                mapped_retrieve_all_ids=lambda: [mapped.retrieve(i) for i in sample],
            ))
            t.update(timed(
                rounds,
                memory_retrieve_all=store.retrieve_all,
                mapped_retrieve_all=mapped.retrieve_all,
            ))
    finally:
        os.unlink(v2_path)
    cold_s, warm_s, flat_s, flat_paths_s, open_s = (t[name].min for name in (
        "cold_first_decode", "warm_decode", "flat_batch_corpus",
        "flat_batch_to_paths", "mapped_open",
    ))
    memory_s, mapped_s, memory_all_s, mapped_all_s = (t[name].min for name in (
        "memory_retrieve_all_ids", "mapped_retrieve_all_ids",
        "memory_retrieve_all", "mapped_retrieve_all",
    ))

    def msym(seconds: float) -> float:
        return round(total_symbols / seconds / 1e6, 3) if seconds else 0.0

    return {
        "benchmark": "smoke_decode",
        "rounds": rounds,
        "paths": len(tokens),
        "symbols": total_symbols,
        "identical_output": identical,
        "expansion_cache": {
            "cold_first_decode_seconds": round(cold_s, 4),
            "warm_decode_seconds": round(warm_s, 4),
            "cold_over_warm": round(cold_s / warm_s, 3) if warm_s else None,
        },
        "pipelines": {
            "seed_perpath_loop": {"seconds": round(warm_s, 4), "msym_per_s": msym(warm_s)},
            "flat_batch_corpus": {"seconds": round(flat_s, 4), "msym_per_s": msym(flat_s)},
            "flat_batch_to_paths": {
                "seconds": round(flat_paths_s, 4),
                "msym_per_s": msym(flat_paths_s),
            },
        },
        "stores": {
            "mapped_open_seconds": round(open_s, 6),
            "memory_retrieve_all_ids_seconds": round(memory_s, 4),
            "mapped_retrieve_all_ids_seconds": round(mapped_s, 4),
            "mapped_over_memory": round(mapped_s / memory_s, 3) if memory_s else None,
            "memory_retrieve_all_seconds": round(memory_all_s, 4),
            "mapped_retrieve_all_seconds": round(mapped_all_s, 4),
            "mapped_retrieve_all_over_memory": (
                round(mapped_all_s / memory_all_s, 3) if memory_all_s else None
            ),
        },
        "speedup": round(warm_s / flat_s, 3) if flat_s else None,
        "spread_seconds": spreads(t),
    }


def scalar_v2_sections(table, tokens) -> bytes:
    """The table, index and payload sections of a v2 blob, one ``encode`` per token.

    The reference the bulk writer is held to: the layout of docs/formats.md
    spelled out token by token.
    """
    import struct

    from repro.paths.encoding import VarintEncoding

    encode = VarintEncoding().encode
    table_blob = b"RPST" + struct.pack("<BII", 1, table.base_id, len(table))
    for sid in range(table.base_id, table.base_id + len(table)):
        entry = table.expand(sid)
        table_blob += encode([len(entry)]) + encode(entry)
    payload = b""
    index = struct.pack("<Q", 0)
    for token in tokens:
        payload += encode(token)
        index += struct.pack("<Q", len(payload))
    return table_blob + index + payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="tiny", choices=("tiny", "small", "medium"))
    parser.add_argument("--workload", default="alibaba")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per route (fastest reported)")
    parser.add_argument("--out", default="BENCH_smoke.json")
    parser.add_argument("--decode-out", default="BENCH_decode.json")
    args = parser.parse_args(argv)

    from repro.bench.harness import available_cpus
    from repro.core.builder import TableBuilder
    from repro.core.compressor import compress_dataset, compress_paths_flat
    from repro.core.config import OFFSConfig
    from repro.core.matcher import static_matcher_from_table
    from repro.core.serialize import (
        STORE_V2_HEADER_SIZE,
        dumps_store_v2_tokens,
        dumps_table,
        publish_file,
    )
    from repro.obs import instrumented
    from repro.workloads.registry import make_dataset

    dataset = make_dataset(args.workload, args.size, seed=0)
    sample_exponent = {"tiny": 0, "small": 2, "medium": 4}[args.size]
    config = OFFSConfig(iterations=4, sample_exponent=sample_exponent)
    with instrumented() as build_obs:
        table, report = TableBuilder(config).build(dataset)
    build_counters = {
        name: build_obs.registry.counters().get(name, 0)
        for name in ("build.candidates_pruned", "build.matcher.probes",
                     "build.matcher.hashed_vertices")
    }

    paths = list(dataset)
    corpus = dataset.to_flat()
    total_symbols = corpus.total_symbols

    matcher = static_matcher_from_table(table)

    baseline_tokens = compress_dataset(paths, table, matcher)
    identical = compress_paths_flat(corpus, table, matcher) == baseline_tokens

    # Symmetric inputs: each pipeline is timed on its natural prebuilt
    # representation (list of tuples for the seed loop, FlatCorpus for the
    # batch route); the one-off interning cost is reported separately.
    t = timed(
        args.rounds,
        seed_hash_loop=lambda: compress_dataset(paths, table, matcher),
        flat_rolling_batch=lambda: compress_paths_flat(corpus, table, matcher),
    )
    t.update(timed(args.rounds, intern=dataset.to_flat))

    # The v2 blob of the same tokens: bulk writer against the per-token loop.
    v2_blob = dumps_store_v2_tokens(table, baseline_tokens)
    serialize_matches = v2_blob[STORE_V2_HEADER_SIZE:] == scalar_v2_sections(
        table, baseline_tokens
    )
    t.update(timed(
        args.rounds, serialize=lambda: dumps_store_v2_tokens(table, baseline_tokens)
    ))
    baseline_s, flat_s, intern_s, serialize_s = (t[name].min for name in (
        "seed_hash_loop", "flat_rolling_batch", "intern", "serialize",
    ))

    def probe_counters(run: Callable[[], object]) -> Dict[str, int]:
        with instrumented() as obs:
            run()
        counters = obs.registry.counters()
        return {
            "matcher.probes": counters.get("matcher.probes", 0),
            "matcher.hashed_vertices": counters.get("matcher.hashed_vertices", 0),
        }

    result = {
        "benchmark": "smoke_fig5_speed",
        "workload": args.workload,
        "size": args.size,
        "rounds": args.rounds,
        "python": platform.python_version(),
        "cpus": available_cpus(),
        "paths": len(paths),
        "symbols": total_symbols,
        "table_entries": len(table),
        "table_crc": zlib.crc32(dumps_table(table)),
        "build_counters": build_counters,
        "build_seconds": round(report.elapsed_seconds, 4),
        "intern_seconds": round(intern_s, 4),
        "identical_output": identical,
        "pipelines": {
            "seed_hash_loop": {
                "seconds": round(baseline_s, 4),
                "msym_per_s": round(total_symbols / baseline_s / 1e6, 3),
                "probes": probe_counters(
                    lambda: compress_dataset(paths, table, matcher)
                ),
            },
            "flat_rolling_batch": {
                "seconds": round(flat_s, 4),
                "msym_per_s": round(total_symbols / flat_s / 1e6, 3),
                "probes": probe_counters(
                    lambda: compress_paths_flat(corpus, table, matcher)
                ),
            },
        },
        "speedup": round(baseline_s / flat_s, 3) if flat_s else None,
        "serialize_seconds": round(serialize_s, 4),
        "serialize_bytes": len(v2_blob),
        "serialize_matches_scalar": serialize_matches,
        "spread_seconds": spreads(t),
    }

    blob = json.dumps(result, indent=2, sort_keys=True)
    publish_file(args.out, (blob + "\n").encode("utf-8"))
    print(blob)
    print(f"\nsmoke: {result['speedup']}x flat-rolling over seed loop "
          f"(identical={identical}) -> {args.out}", file=sys.stderr)
    if not identical:
        print("smoke: OUTPUT MISMATCH — flat pipeline diverged", file=sys.stderr)
        return 1
    if not serialize_matches:
        print("smoke: OUTPUT MISMATCH — bulk v2 writer diverged from the "
              "per-token loop", file=sys.stderr)
        return 1

    decode = bench_decode(table, baseline_tokens, paths, args.rounds)
    decode.update({"workload": args.workload, "size": args.size,
                   "python": platform.python_version(), "cpus": available_cpus()})
    blob = json.dumps(decode, indent=2, sort_keys=True)
    publish_file(args.decode_out, (blob + "\n").encode("utf-8"))
    print(blob)
    print(f"smoke: {decode['speedup']}x flat-batch decode over seed loop "
          f"(identical={decode['identical_output']}) -> {args.decode_out}",
          file=sys.stderr)
    if not decode["identical_output"]:
        print("smoke: OUTPUT MISMATCH — decode routes diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
