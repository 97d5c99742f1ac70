"""Standalone experiment runner — ``python -m repro.bench``.

Runs every paper experiment without pytest and writes one consolidated
report (tables + ASCII figure charts + shape dictionaries).  Useful when
the goal is the reproduced artifacts rather than timing statistics; the
pytest-benchmark route (``pytest benchmarks/ --benchmark-only``) remains
the full harness.

::

    python -m repro.bench                     # medium campaign, full set
    python -m repro.bench --size small        # quick pass
    python -m repro.bench --only fig5 fig6    # subset by prefix
    python -m repro.bench --out report.txt    # also write to a file
    python -m repro.bench --metrics m.json    # run under repro.obs, dump JSON
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.charts import chart_from_rows
from repro.analysis.stats import format_table
from repro.bench.experiments import (
    exp_ablation_matchers,
    exp_ablation_measure,
    exp_ablation_params,
    exp_fig4_iterations,
    exp_fig4_sampling,
    exp_fig5_comparison,
    exp_fig6_decompression,
    exp_fig6_partial,
    exp_fig6_scalability,
    exp_flat_batch,
    exp_table3,
)
from repro.bench.harness import BenchConfig
from repro.core.serialize import publish_file
from repro.workloads.registry import DATASET_NAMES

#: name -> (callable(config) -> (rows, shape), optional chart spec)
EXPERIMENTS: Dict[str, Tuple[Callable, Optional[Tuple]]] = {
    "table3": (exp_table3, None),
    **{
        f"fig4_iterations_{name}": (
            (lambda n: lambda config: exp_fig4_iterations(n, config=config))(name),
            (0, {"CR": 1, "CS": 2}),
        )
        for name in DATASET_NAMES
    },
    **{
        f"fig4_sampling_{name}": (
            (lambda n: lambda config: exp_fig4_sampling(n, config=config))(name),
            (0, {"CR": 2, "CS": 3}),
        )
        for name in DATASET_NAMES
    },
    "fig5_comparison": (exp_fig5_comparison, None),
    "fig6_decompression": (exp_fig6_decompression, None),
    "fig6_partial": (exp_fig6_partial, (0, {"PDS": 1})),
    "fig6_scalability": (exp_fig6_scalability, (0, {"CR": 1})),
    "ablation_matchers": (exp_ablation_matchers, None),
    "ablation_measure": (exp_ablation_measure, None),
    "ablation_params": (exp_ablation_params, None),
    "flat_batch": (exp_flat_batch, None),
}


def run_experiments(
    config: BenchConfig,
    only: Optional[List[str]] = None,
) -> List[str]:
    """Run the (filtered) experiment set; returns the report sections."""
    sections: List[str] = []
    for name, (fn, chart) in EXPERIMENTS.items():
        if only and not any(name.startswith(prefix) for prefix in only):
            continue
        started = time.perf_counter()
        rows, shape = fn(config=config)
        elapsed = time.perf_counter() - started
        text = format_table(rows, title=f"== {name} ==")
        if chart:
            x_column, y_columns = chart
            text += "\n" + chart_from_rows(rows, x_column, y_columns, width=54, height=12)
        shaped = ", ".join(f"{k}={v:.3f}" for k, v in shape.items())
        text += f"\n   shape: {shaped}\n   ({elapsed:.1f}s)"
        sections.append(text)
    return sections


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's tables and figures (no pytest).",
    )
    parser.add_argument("--size", default="medium",
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--only", nargs="*", default=None, metavar="PREFIX",
                        help="run only experiments whose name starts with a prefix")
    parser.add_argument("--out", default=None, help="also write the report here")
    parser.add_argument("--metrics", default=None, metavar="OUT.json",
                        help="run under repro.obs instrumentation and write "
                             "the metrics/span snapshot to this JSON file")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    args = parser.parse_args(argv)

    if args.list:
        try:
            for name in EXPERIMENTS:
                print(name)
        except BrokenPipeError:  # piped into head & co.
            pass
        return 0

    sample_exponent = {"tiny": 0, "small": 2, "medium": 4}[args.size]
    config = BenchConfig(size=args.size, sample_exponent=sample_exponent)
    if args.metrics:
        from repro.obs import instrumented, write_json

        with instrumented() as obs:
            sections = run_experiments(config, only=args.only)
        write_json(obs, args.metrics)
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    else:
        sections = run_experiments(config, only=args.only)
    if not sections:
        print("no experiments matched", file=sys.stderr)
        return 1
    report = "\n\n".join(sections)
    print(report)
    if args.out:
        publish_file(args.out, (report + "\n").encode("utf-8"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
