"""Component-ablation benchmark — ``make bench-ablation``.

Runs the :mod:`repro.bench.ablation` matrix (baseline + one cell per knob
value, per workload), in-process and one cell at a time, round-trip-verifying
every cell, and emits one JSON report (``BENCH_ablation.json``) with stable
run ids and the ranked per-component importance table that
``repro.core.autotune`` consumes.

The run is resumable: pass ``--partial FILE`` (kept by default next to the
output) and an interrupted campaign continues where it stopped — completed
run ids are skipped, not re-measured.

::

    PYTHONPATH=src python benchmarks/bench_ablation.py --size small --out BENCH_ablation.json
    PYTHONPATH=src python benchmarks/bench_ablation.py --size tiny --rounds 1 --workloads rome
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.analysis.stats import format_table
    from repro.bench.ablation import DEFAULT_WORKLOADS, run_ablation
    from repro.core.serialize import publish_file

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--size", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS),
                        help="workload names (default: %(default)s)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="min-of-N rounds per timed region")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_ablation.json")
    parser.add_argument("--partial", default=None, metavar="FILE",
                        help="resumable partial-results file "
                             "(default: <out>.partial)")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore and overwrite any existing partial file")
    args = parser.parse_args(argv)

    partial = args.partial or args.out + ".partial"
    if args.fresh and os.path.exists(partial):
        os.remove(partial)

    report = run_ablation(
        workloads=args.workloads,
        size=args.size,
        seed=args.seed,
        rounds=args.rounds,
        partial_path=partial,
        echo=lambda line: print(line, flush=True),
    )
    publish_file(args.out, json.dumps(report, indent=2, sort_keys=True).encode("utf-8"))
    if os.path.exists(partial):
        os.remove(partial)  # campaign finished; the report is the artifact

    rows = [("workload", "rank", "component", "knob", "importance", "best", "CR")]
    for entry in report["importance"]:
        rows.append((
            entry["workload"], entry["rank"], entry["component"], entry["knob"],
            entry["importance"], str(entry["best_value"]), entry["best_cr"],
        ))
    print(format_table(rows, title=f"component importance ({args.size} tier)"))
    print(f"wrote {args.out} ({len(report['runs'])} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
