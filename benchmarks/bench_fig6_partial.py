"""Figure 6b — partial decompression speed vs retrieved fraction.

Paper shape: per-path granularity keeps PDS in the same league as full DS
all the way down to 1% retrieval (≈ 500 MB/s at 1% vs ≈ 1000 MB/s full on
their hardware; the *ratio* is what the benchmark checks).  One
pytest-benchmark row per fraction.

Methodology: every row is timed as the *minimum over N rounds* (min-of-N
is the standard noise filter for wall-clock microbenchmarks — the minimum
is the run least perturbed by scheduler and allocator noise;
pytest-benchmark's ``min`` column is the number to read).  The slice rows
take partiality below the per-path granularity the paper stops at:
``retrieve_slice`` serves a window of one path by arithmetic over the
memoized expansion lengths, so its cost tracks the window, not the path.
"""

import pytest

from repro.bench.experiments import exp_fig6_partial
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.workloads.registry import make_dataset

FRACTIONS = (0.01, 0.05, 0.10, 0.25, 0.50, 1.0)
ROUNDS = 3  # report min-of-3


def test_fig6b_partial_decompression_table(benchmark, config, report):
    rows, shape = benchmark.pedantic(
        lambda: exp_fig6_partial("alibaba", FRACTIONS, config),
        rounds=ROUNDS, iterations=1,
    )
    report(
        "fig6b_partial_decompression", rows, shape,
        note="PDS at 1% stays within ~2x of full-archive DS (paper: 0.75x).",
        chart=(0, {"PDS": 1}),
    )
    assert shape["pds_min"] > 0
    assert shape["pds_at_1pct_over_full"] > 0.3


@pytest.fixture(scope="module")
def store(config):
    dataset = make_dataset("alibaba", config.size, config.seed)
    codec = OFFSCodec(config.offs_config()).fit(dataset)
    return CompressedPathStore.from_corpus(dataset, codec.table)


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_fig6b_retrieval_speed(benchmark, store, fraction):
    benchmark.pedantic(
        lambda: store.retrieve_fraction(fraction, seed=1),
        rounds=ROUNDS, iterations=1,
    )


@pytest.mark.parametrize("window", (1, 4))
def test_fig6b_slice_retrieval_speed(benchmark, store, window):
    """Sub-path partial decompression: a fixed window out of every path."""
    store.table.expansions()  # steady-state: cache warmed outside the timer
    n = len(store)

    def slice_all():
        for pid in range(n):
            store.retrieve_slice(pid, 0, window)

    benchmark.extra_info["window"] = window
    benchmark.pedantic(slice_all, rounds=ROUNDS, iterations=1)


def test_fig6b_slice_equals_full_retrieve_slicing(store):
    """The slice route must be exact — spot-check against full retrieval."""
    for pid in range(0, len(store), max(1, len(store) // 50)):
        full = store.retrieve(pid)
        assert store.retrieve_slice(pid, 0, 4) == full[0:4]
        assert store.retrieve_slice(pid, -2, None) == full[-2:]
