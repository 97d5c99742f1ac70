"""Section V — per-path parallelism of compression and decompression.

The paper claims ``O(|P|·δ²/p)`` compression and ``O(|P|/p)`` decompression
on p cores thanks to per-path purity.  One pytest-benchmark row per
process count; pure-Python IPC overhead means the speedup is visible but
sublinear (the vectorized batch kernel narrows the gap by shrinking
per-chunk Python work).

Methodology: every row is timed as the *minimum over N rounds* (min-of-N is
the standard noise filter for wall-clock microbenchmarks — the minimum is
the run least perturbed by scheduler and allocator noise; pytest-benchmark's
``min`` column is the number to read).  Alongside the timing, each row runs
once under :mod:`repro.obs` instrumentation and attaches the probe counters
(``matcher.probes`` / ``matcher.hashed_vertices``) to
``benchmark.extra_info``, so the probe work is on record next to the
wall-clock it explains.
"""

import pytest

from repro.core.offs import OFFSCodec
from repro.core.parallel import parallel_compress, parallel_decompress
from repro.obs import instrumented
from repro.workloads.registry import make_dataset

PROCESS_COUNTS = (1, 2, 4)
ROUNDS = 3  # report min-of-3


@pytest.fixture(scope="module")
def setup(config):
    dataset = make_dataset("alibaba", config.size, config.seed)
    codec = OFFSCodec(config.offs_config()).fit(dataset)
    tokens = codec.compress_dataset(dataset)
    return list(dataset), codec.table, tokens


def _probe_counters(run):
    """One instrumented execution of *run*; returns the probe counters."""
    with instrumented() as obs:
        run()
    counters = obs.registry.counters()
    return {
        "matcher.probes": counters.get("matcher.probes", 0),
        "matcher.hashed_vertices": counters.get("matcher.hashed_vertices", 0),
    }


@pytest.mark.parametrize("processes", PROCESS_COUNTS)
def test_parallel_compress_scaling(benchmark, setup, processes):
    paths, table, _ = setup
    run = lambda: parallel_compress(paths, table, processes=processes)
    benchmark.extra_info.update(_probe_counters(run))
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.parametrize("processes", PROCESS_COUNTS)
def test_parallel_decompress_scaling(benchmark, setup, processes):
    _, table, tokens = setup
    benchmark.pedantic(
        lambda: parallel_decompress(tokens, table, processes=processes),
        rounds=ROUNDS, iterations=1,
    )
