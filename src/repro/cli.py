"""Command-line interface: compress, decompress, inspect and query archives.

The operational surface a deployment needs, over the text/binary formats of
:mod:`repro.paths.io` and the archive format of :mod:`repro.core.serialize`:

* ``python -m repro compress IN.paths OUT.offs`` — build a table and
  compress a path file (one space-separated path per line);
  ``--format v2`` writes the mmap-friendly single-file layout instead of
  the v1 blob; ``--shards N`` writes a *sharded* store instead (an
  ``RPSM`` manifest plus N self-contained v2 shard files, compressed in
  parallel across ``--processes`` workers; see docs/formats.md).
  ``--auto`` tunes the config on a pilot sample first and compresses with
  the pick; add ``--ablation-report BENCH_ablation.json`` to seed the
  sweep with the report's measured CR gains (see docs/ablation.md).
  ``--reorder frequency`` fits a hottest-first vertex order first; the
  invertible mapping persists inside the v2/sharded archive and every
  reader keeps answering in original ids.
* ``python -m repro decompress IN.offs OUT.paths`` — restore the text file.
* ``python -m repro stats IN.offs`` — archive health without decompression.
* ``python -m repro retrieve IN.offs --id 42`` — fetch single paths;
  ``--slice X Y`` fetches ``path[X:Y]`` of each id without materializing
  the rest (arithmetic over the expansion cache).
* ``python -m repro query IN.offs --contains V`` / ``--between S D`` /
  ``--subpath V...`` / ``--via SRC W... DST`` — the paper's Case 1 / Case 2
  queries plus subpath and waypoint search.

Every archive-reading command sniffs the file magic: v1 blobs (``RPCS``)
are parsed in full, v2 files (``RPC2``) open as a
:class:`~repro.core.mapped.MappedPathStore` — header-only open, per-path
mmap seeks — so ``retrieve``/``query`` against a v2 archive touch only the
paths they return.  Shard manifests (``RPSM``) open as a
:class:`~repro.core.sharded.ShardedPathStore`, one token source over the
shards that returns exactly what the monolithic archive would.
* ``python -m repro serve --store X.rpc2 --workers N --port P`` — long-lived
  JSON-over-HTTP query server (pre-forked workers over one mapped v2
  store or sharded manifest; see docs/serving.md).
* ``python -m repro verify IN.offs`` — integrity + sampled round-trip.
* ``python -m repro generate NAME OUT.paths`` — synthetic workloads.
* ``python -m repro tune IN.paths`` — Exp-1-style (i, k) selection;
  ``--ablation-report`` switches to the guarded ablation-guided mode.
* ``python -m repro compare IN.paths`` — Fig. 5-style codec comparison.

``compress``, ``decompress`` and ``compare`` accept ``--metrics OUT.json``:
the run executes under :mod:`repro.obs` instrumentation and its snapshot —
span tree (builder iterations, ingest phases), counters (matcher probes,
symbols in/out) and gauges (store byte totals) — is written as JSON.
Without the flag instrumentation stays inactive and costs nothing.

Every command prints plain text suitable for shell pipelines; errors exit
non-zero with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.analysis.stats import format_table
from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.serialize import dumps_store, publish_file
from repro.core.store import CompressedPathStore
from repro.paths.io import load_text, save_text
from repro.paths.reorder import ORDER_STRATEGIES
from repro.paths.dataset import PathDataset
from repro.queries.analytics import compression_summary, hot_subpaths


def _add_metrics_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", metavar="OUT.json", default=None,
                        help="run instrumented and write the obs snapshot "
                             "(spans + counters + gauges) to this JSON file")


def _metrics_scope(args: argparse.Namespace):
    """An instrumentation scope honouring ``--metrics`` (no-op without it)."""
    if getattr(args, "metrics", None) is None:
        return nullcontext(None)
    from repro.obs import instrumented

    return instrumented()


def _write_metrics(args: argparse.Namespace, obs) -> None:
    if obs is None:
        return
    from repro.obs import write_json

    write_json(obs, args.metrics)
    print(f"metrics -> {args.metrics}", file=sys.stderr)


def _add_offs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", type=int, default=4,
                        help="merge/expansion iterations (paper default: 4)")
    parser.add_argument("--sample-exponent", type=int, default=2,
                        help="train on 1 path in 2^k (paper default k=7 at full scale)")
    parser.add_argument("--delta", type=int, default=8,
                        help="maximum supernode length (paper default: 8)")
    parser.add_argument("--beta", type=float, default=500.0,
                        help="candidate capacity divisor lambda = nodes/beta")
    parser.add_argument("--topdown-rounds", type=int, default=0,
                        help="hybrid top-down refinement rounds (0 = off)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OFFS path compression (ICDE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a text path file into an archive")
    p.add_argument("input", help="text file, one space-separated path per line")
    p.add_argument("output", help="archive file to write")
    p.add_argument("--format", choices=("v1", "v2"), default="v1", dest="fmt",
                   help="archive layout: v1 in-memory blob (default) or v2 "
                        "mmap-friendly single file (O(1)-seek retrievals)")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="write a sharded store: RPSM manifest + N v2 shard "
                        "files compressed in parallel (0 = monolithic)")
    p.add_argument("--processes", type=int, default=1, metavar="M",
                   help="worker processes for the sharded build (with --shards)")
    p.add_argument("--reorder", choices=ORDER_STRATEGIES, default="identity",
                   help="compression-aware vertex reordering; non-identity "
                        "orders persist in the archive (v2/sharded only) and "
                        "queries still speak original ids (see docs/tuning.md)")
    p.add_argument("--auto", action="store_true",
                   help="autotune (i, k) on a pilot sample of the input and "
                        "compress with the pick (explicit knob flags become "
                        "the tuning base)")
    p.add_argument("--ablation-report", metavar="JSON", default=None,
                   help="with --auto: a BENCH_ablation.json report; applies "
                        "the component values that measured a CR gain "
                        "(guard-verified)")
    p.add_argument("--auto-pilot", type=int, default=2000, metavar="N",
                   help="paths measured per tuning grid point (with --auto)")
    _add_offs_options(p)
    _add_metrics_option(p)

    p = sub.add_parser("decompress", help="restore a text path file from an archive")
    p.add_argument("input", help="archive file")
    p.add_argument("output", help="text file to write")
    _add_metrics_option(p)

    p = sub.add_parser("stats", help="archive statistics (no decompression)")
    p.add_argument("input", help="archive file")
    p.add_argument("--hot", type=int, default=5,
                   help="show the N most valuable table entries")

    p = sub.add_parser("retrieve", help="fetch individual paths by id")
    p.add_argument("input", help="archive file")
    p.add_argument("--id", type=int, action="append", required=True,
                   dest="ids", help="path id (repeatable)")
    p.add_argument("--slice", type=int, nargs=2, metavar=("X", "Y"),
                   dest="window",
                   help="print path[X:Y] of each id instead of the full "
                        "path (no full-path materialization)")

    p = sub.add_parser("query", help="Case 1/2 retrieval queries")
    p.add_argument("input", help="archive file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--contains", type=int, metavar="VERTEX",
                       help="Case 1: all paths through VERTEX")
    group.add_argument("--between", type=int, nargs=2, metavar=("SRC", "DST"),
                       help="Case 2: all paths from SRC to DST")
    group.add_argument("--subpath", type=int, nargs="+", metavar="V",
                       help="paths containing this exact vertex sequence")
    group.add_argument("--via", type=int, nargs="+", metavar="V",
                       help="SRC [WAYPOINT...] DST: paths from SRC to DST "
                            "through the waypoints in order")

    p = sub.add_parser("serve", help="serve a v2 archive over HTTP (JSON API)")
    p.add_argument("--store", required=True, metavar="X.rpc2",
                   help="v2 (RPC2) store file or sharded (RPSM) manifest to "
                        "serve, validated at startup")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port; 0 picks an ephemeral port (default 8080)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes sharing one listening socket")
    p.add_argument("--metrics-dir", default=None, metavar="DIR",
                   help="each worker writes its obs snapshot here at shutdown")

    p = sub.add_parser("generate", help="write a synthetic workload to a text file")
    p.add_argument("workload", help="alibaba | rome | porto | sanfrancisco | "
                                    "web | collision | noise")
    p.add_argument("output", help="text file to write")
    p.add_argument("--paths", type=int, default=1000, help="number of paths")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tune", help="pick (i, k) for a workload (Exp-1 style)")
    p.add_argument("input", help="text file, one space-separated path per line")
    p.add_argument("--pilot", type=int, default=2000,
                   help="paths measured per grid point")
    p.add_argument("--ablation-report", metavar="JSON", default=None,
                   help="BENCH_ablation.json report; seeds the sweep with "
                        "the component values that measured a CR gain and "
                        "emits a guard-verified recommended config")

    p = sub.add_parser("verify", help="validate an archive's integrity")
    p.add_argument("input", help="archive file")
    p.add_argument("--sample", type=int, default=256,
                   help="paths to round-trip check")

    p = sub.add_parser("compare", help="compare codecs on a path file (Fig 5 style)")
    p.add_argument("input", help="text file, one space-separated path per line")
    p.add_argument("--no-repair", action="store_true",
                   help="skip the (slow) Re-Pair comparator")
    p.add_argument("--sample-exponent", type=int, default=2,
                   help="construction sampling for the DICT codecs")
    _add_metrics_option(p)
    return parser


def _load_store(path: str):
    """Open an archive by magic sniff: v1 blob, v2 mmap, or shard manifest."""
    from repro.core.sharded import open_store

    return open_store(path)


def _load_ablation_report(path: Optional[str]):
    if path is None:
        return None
    from repro.bench.ablation import load_report

    return load_report(path)


def _cmd_compress(args: argparse.Namespace) -> int:
    dataset = load_text(args.input, name=args.input)
    config = OFFSConfig(
        iterations=args.iterations,
        sample_exponent=args.sample_exponent,
        delta=args.delta,
        alpha=min(5, args.delta - 1),
        beta=args.beta,
        topdown_rounds=args.topdown_rounds,
        reorder=args.reorder,
    )
    if args.reorder != "identity" and args.fmt == "v1" and args.shards == 0:
        print("error: --reorder requires --format v2 or --shards "
              "(the v1 blob cannot persist an order table)", file=sys.stderr)
        return 1
    if args.ablation_report and not args.auto:
        print("error: --ablation-report requires --auto", file=sys.stderr)
        return 1
    if args.auto:
        from repro.core.autotune import autotune

        result = autotune(
            dataset,
            base=config,
            pilot_paths=args.auto_pilot,
            ablation_report=_load_ablation_report(args.ablation_report),
        )
        config = result.best_config(base=config)
        note = ""
        if result.recommended_config is not None:
            note = " (ablation-guided"
            note += ", guard fell back to default)" if result.fallback_to_default else ")"
        print(f"autotuned: i={config.iterations} k={config.sample_exponent} "
              f"capacity={config.capacity} topdown_rounds={config.topdown_rounds} "
              f"reorder={config.reorder}{note}", file=sys.stderr)
    corpus = dataset.to_flat()
    with _metrics_scope(args) as obs:
        codec = OFFSCodec(config).fit(corpus)
        if args.shards > 0:
            from repro.core.sharded import ShardedPathStore, build_sharded_store

            build_sharded_store(
                corpus,
                codec.table,
                args.output,
                shards=args.shards,
                processes=args.processes,
                order=codec.order,
            )
            sharded = ShardedPathStore.open(args.output)
            print(f"{len(sharded):,} paths -> {args.output} "
                  f"({sharded.mapped_bytes:,} bytes in {args.shards} shard(s), "
                  f"CR={sharded.compression_ratio():.2f}, "
                  f"table={len(codec.table)} entries)")
            sharded.close()
            _write_metrics(args, obs)
            return 0
        store = CompressedPathStore.from_corpus(corpus, codec.table, order=codec.order)
        ratio = store.compression_ratio()
        if args.fmt == "v2":
            from repro.core.serialize import dumps_store_v2

            blob = dumps_store_v2(store)
        else:
            blob = dumps_store(store)
    publish_file(args.output, blob)
    print(f"{len(store):,} paths -> {args.output} "
          f"({len(blob):,} bytes, {args.fmt}, CR={ratio:.2f}, "
          f"table={len(codec.table)} entries)")
    _write_metrics(args, obs)
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    store = _load_store(args.input)
    with _metrics_scope(args) as obs:
        dataset = PathDataset(store.retrieve_all(), name=args.input)
    save_text(dataset, args.output)
    print(f"{len(dataset):,} paths restored to {args.output}")
    _write_metrics(args, obs)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    store = _load_store(args.input)
    summary = compression_summary(store)
    rows = [("metric", "value")] + [
        (key, round(value, 3)) for key, value in summary.items()
    ]
    print(format_table(rows, title=f"archive {args.input}"))
    if args.hot > 0:
        hot_rows = [("subpath", "uses", "vertices saved")]
        for subpath, uses, saved in hot_subpaths(store, top=args.hot):
            hot_rows.append((str(list(subpath)), uses, saved))
        print()
        print(format_table(hot_rows, title="hottest table entries"))
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    store = _load_store(args.input)
    for path_id in args.ids:
        if args.window is not None:
            path = store.retrieve_slice(path_id, args.window[0], args.window[1])
        else:
            path = store.retrieve(path_id)
        print(" ".join(str(v) for v in path))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = _load_store(args.input)
    if args.contains is not None:
        paths = store.affected_paths(args.contains)
    elif args.between is not None:
        paths = store.paths_between(args.between[0], args.between[1])
    elif args.via is not None:
        from repro.queries.pattern import PathPattern

        if len(args.via) < 2:
            print("error: --via needs at least SRC and DST", file=sys.stderr)
            return 1
        paths = store.pattern_search(
            PathPattern.via(args.via[0], args.via[1:-1], args.via[-1])
        )
    else:
        paths = store.subpath_search(args.subpath)
    for path in paths:
        print(" ".join(str(v) for v in path))
    print(f"# {len(paths)} path(s)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import PathServer, ServeConfig

    config = ServeConfig(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        metrics_dir=args.metrics_dir,
    )
    server = PathServer(config)
    server.start()   # a truncated/corrupt store fails here with one clean line
    print(f"serving {server.path_count:,} paths from {args.store} "
          f"on {server.address} with {config.workers} worker(s)", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads.registry import _FACTORIES

    if args.workload not in _FACTORIES:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(sorted(_FACTORIES))}", file=sys.stderr)
        return 1
    dataset = _FACTORIES[args.workload](args.paths, seed=args.seed)
    save_text(dataset, args.output)
    stats = dataset.stats()
    print(f"{stats.path_number:,} paths (avg length {stats.avg_length:.1f}, "
          f"{stats.id_number:,} ids) -> {args.output}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.autotune import autotune

    dataset = load_text(args.input, name=args.input)
    result = autotune(
        dataset,
        pilot_paths=args.pilot,
        ablation_report=_load_ablation_report(args.ablation_report),
    )
    rows = [("i", "k", "CR", "CS (MB/s)")] + [p.as_row() for p in result.points]
    print(format_table(rows, title=f"tuning sweep ({result.pilot_paths} pilot paths)"))
    d, f = result.default_mode, result.fast_mode
    print(f"\ndefault mode: i={d.iterations} k={d.sample_exponent} "
          f"(CR {d.compression_ratio:.2f}, CS {d.compression_speed_mbps:.2f} MB/s)")
    print(f"fast mode:    i={f.iterations} k={f.sample_exponent} "
          f"(CR {f.compression_ratio:.2f}, CS {f.compression_speed_mbps:.2f} MB/s)")
    if result.recommended_config is not None:
        rec = result.recommended_config
        print(f"\nrecommended (ablation-guided): i={rec.iterations} "
              f"k={rec.sample_exponent} capacity={rec.capacity} "
              f"topdown_rounds={rec.topdown_rounds}")
        if result.fallback_to_default:
            print("guard: recommendation lost CR to the default -> kept default")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.validate import validate_store

    store = _load_store(args.input)
    report = validate_store(store, sample=args.sample)
    print(report.summary())
    for error in report.errors:
        print(f"  {error}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_codecs, comparison_rows, default_roster

    dataset = load_text(args.input, name=args.input)
    roster = default_roster(
        sample_exponent=args.sample_exponent,
        include_repair=not args.no_repair,
    )
    with _metrics_scope(args) as obs:
        results = compare_codecs(dataset, roster)
    print(format_table(comparison_rows(results), title=f"codecs on {args.input}"))
    _write_metrics(args, obs)
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "stats": _cmd_stats,
    "retrieve": _cmd_retrieve,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "generate": _cmd_generate,
    "tune": _cmd_tune,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
