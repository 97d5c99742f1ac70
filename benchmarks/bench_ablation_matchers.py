"""Ablation A1 — matcher backends: flat hash vs two-level hash.

The backends (Algorithm 6 and Algorithm 7) must produce identical tables
and tokens; what differs is probe cost.  The printed table records
CR (identical) and build/compress timings; the pytest-benchmark rows time
the reference route, ``compress_path(path, table, matcher)``, per backend
(codecs and stores run the exact encoder and never build a matcher).
"""

import pytest

from repro.bench.experiments import exp_ablation_matchers
from repro.core.compressor import compress_path
from repro.core.config import MATCHER_BACKENDS
from repro.core.matcher import static_matcher_from_table
from repro.core.offs import OFFSCodec
from repro.workloads.registry import make_dataset

def test_a1_matcher_backend_table(benchmark, config, report):
    rows, shape = benchmark.pedantic(
        lambda: exp_ablation_matchers("alibaba", config),
        rounds=1, iterations=1,
    )
    report(
        "ablation_a1_matchers", rows, shape,
        note="Identical results by contract; Lemma 3 only changes probe cost.",
    )
    assert shape["results_identical"] == 1.0


@pytest.fixture(scope="module")
def compression_setup(config):
    dataset = make_dataset("alibaba", config.size, config.seed)
    codec = OFFSCodec(config.offs_config()).fit(dataset)
    return dataset, codec.table


@pytest.mark.parametrize("backend", MATCHER_BACKENDS)
def test_a1_compression_probe_cost(benchmark, compression_setup, backend):
    dataset, table = compression_setup
    matcher = static_matcher_from_table(table, backend)
    paths = list(dataset)
    benchmark.pedantic(
        lambda: [compress_path(p, table, matcher) for p in paths],
        rounds=3, iterations=1,
    )
