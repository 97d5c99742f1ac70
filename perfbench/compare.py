"""Compare two sets of benchmark runs, metric by metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 >> base.out
    ...                                                            >> new.out
    python3 perfbench/compare.py base.out new.out

Each file holds the captured standard output of any number of runs; the
``record`` line of each run is read and every other line is skipped.
The comparison is refused (exit 2) unless both sides ran the same
(workload, trace, seed) triples and every run of one triple, on either
side, used identical inputs: the same dataset and op-stream digests.
Otherwise, for every workload it prints each metric's median over all
its runs on both sides.  An end-to-end metric whose median got worse by
more than its ``BENCHMARK.json`` bound is a regression, and so is a new
side that counted more failed ops (wrong answers, failed requests) than
the base side: either gives exit 1.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """``{(workload, trace, seed): [record, ...]}`` from captured run output."""
    records = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"record"'):
                continue
            record = json.loads(line)["record"]
            records[(record["workload"], record["trace"], record["seed"])].append(record)
    return records


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(args[0]), load(args[1])
    if not base or set(base) != set(new):
        print(f"refused: the two sides ran different (workload, trace, seed) sets: "
              f"{sorted(set(base) ^ set(new))}", file=sys.stderr)
        return 2
    differing = [
        key for key in base
        if len({json.dumps(r["digests"], sort_keys=True) for r in base[key] + new[key]}) > 1
    ]
    if differing:
        print(f"refused: inputs differ (dataset or op-stream digest) for {sorted(differing)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    grouped = defaultdict(lambda: ([], []))
    for key in base:
        for side, records in enumerate((base[key], new[key])):
            grouped[key[:2]][side].extend(records)
    regressions = 0
    for (workload, trace), (old_runs, new_runs) in sorted(grouped.items()):
        old_failed = sum(r["failed"] for r in old_runs)
        new_failed = sum(r["failed"] for r in new_runs)
        print(f"== {workload} (trace {trace}; {len(old_runs)} -> {len(new_runs)} runs; "
              f"failed ops {old_failed} -> {new_failed})")
        if new_failed > old_failed:
            print("  FAILURES: the new side got more ops wrong")
            regressions += 1
        slots = old_runs[0].get("slots", {})
        for name in old_runs[0]["metrics"]:
            old = statistics.median(r["metrics"][name] for r in old_runs)
            now = statistics.median(r["metrics"][name] for r in new_runs)
            change = (now - old) / old if old else 0.0
            verdict = ""
            if not trace and name in bounds:
                better, bound = bounds[name]
                worse = -change if better == "higher" else change
                if worse > bound:
                    verdict = f"  REGRESSION (bound {bound:.0%})"
                    regressions += 1
            label = f"{name} ({slots[name]})" if name in slots else name
            print(f"  {label:36s} {old:14.6g} -> {now:14.6g}  {change:+8.2%}{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
