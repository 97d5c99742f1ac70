"""Shared fixtures and reporting for the paper-reproduction benchmarks.

Every ``bench_*.py`` regenerates one table or figure of the paper's
evaluation (see DESIGN.md §4).  Experiment tables are printed straight to
the terminal (bypassing capture) *and* written under ``benchmarks/results/``
so a ``pytest benchmarks/ --benchmark-only | tee`` run leaves both the
pytest-benchmark timing tables and the paper-shaped experiment tables on
record.

Scale: the ``medium`` presets with a scaled sample exponent (see
``repro.bench.harness.BenchConfig``) — large enough for the paper's
λ = nodes/500 capacity rule to bind as designed, small enough for pure
Python.  Set ``REPRO_BENCH_SIZE=small`` for a quick pass.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.charts import chart_from_rows
from repro.analysis.stats import format_table
from repro.bench.harness import BenchConfig
from repro.core.serialize import publish_file

RESULTS_DIR = Path(__file__).parent / "results"


def bench_config() -> BenchConfig:
    """The campaign configuration for this run (env-overridable)."""
    size = os.environ.get("REPRO_BENCH_SIZE", "medium")
    sample_exponent = {"tiny": 0, "small": 2, "medium": 4}.get(size, 4)
    return BenchConfig(size=size, sample_exponent=sample_exponent)


@pytest.fixture(scope="session")
def config() -> BenchConfig:
    return bench_config()


@pytest.fixture(scope="session")
def strict(config) -> bool:
    """Paper-shape margins are asserted strictly only at the intended scale.

    Below ``medium``, λ = nodes/500 degenerates toward its floor and hot
    patterns repeat too rarely for the full margins; quick runs then check
    orderings rather than magnitudes.
    """
    return config.size == "medium"


@pytest.fixture(scope="session")
def report():
    """Emit an experiment table to stdout and benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(name: str, rows, shape, note: str = "", chart=None) -> None:
        text = format_table(rows, title=f"== {name} ==")
        if chart:
            # chart = (x_column, {series: column}) — render the figure's
            # curve shape right under its table.
            x_column, y_columns = chart
            text += "\n" + chart_from_rows(
                rows, x_column, y_columns, width=54, height=12
            )
        if shape:
            shaped = ", ".join(f"{k}={v:.3f}" for k, v in shape.items())
            text += f"\n   shape: {shaped}"
        if note:
            text += f"\n   paper: {note}"
        # Tables always land in benchmarks/results/; they also print to
        # stdout, which reaches the terminal when pytest runs with -s
        # (pytest's default fd-level capture otherwise swallows passing
        # tests' output — run `pytest benchmarks/ --benchmark-only -s`
        # to watch the reproduced artifacts scroll by).
        print("\n" + text, flush=True)
        publish_file(str(RESULTS_DIR / f"{name}.txt"), (text + "\n").encode("utf-8"))

    return emit
