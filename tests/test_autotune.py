"""Unit tests for the (i, k) auto-tuner."""

import os
import random
import types

import pytest

from repro.core.autotune import TuningPoint, autotune, choose, sweep
from repro.core.config import OFFSConfig
from repro.workloads.registry import make_dataset


def point(i, k, cr, cs):
    return TuningPoint(i, k, cr, cs)


class TestChoose:
    def test_default_is_fastest_near_best_cr(self):
        points = [
            point(4, 0, 3.0, 1.0),
            point(4, 2, 2.95, 3.0),   # within 5% of best, much faster
            point(1, 4, 2.0, 9.0),
        ]
        default, _ = choose(points, cr_tolerance=0.05)
        assert (default.iterations, default.sample_exponent) == (4, 2)

    def test_fast_mode_bounded_cr_loss(self):
        points = [
            point(4, 2, 3.0, 3.0),
            point(2, 2, 2.8, 6.0),    # -0.2 CR, 2x speed: valid fast pick
            point(1, 4, 1.5, 12.0),   # too lossy
        ]
        default, fast = choose(points, cr_tolerance=0.01, fast_cr_loss=0.35)
        assert (fast.iterations, fast.sample_exponent) == (2, 2)

    def test_fast_can_equal_default(self):
        points = [point(4, 2, 3.0, 5.0)]
        default, fast = choose(points)
        assert default == fast

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            choose([])


class TestSweep:
    def test_grid_coverage(self):
        dataset = make_dataset("sanfrancisco", "tiny")
        points = sweep(dataset, i_values=(1, 3), k_values=(0, 1), pilot_paths=150)
        assert len(points) == 4
        assert {(p.iterations, p.sample_exponent) for p in points} == {
            (1, 0), (1, 1), (3, 0), (3, 1)
        }

    def test_more_iterations_do_not_hurt_cr_much(self):
        dataset = make_dataset("sanfrancisco", "tiny")
        points = sweep(dataset, i_values=(1, 4), k_values=(0,), pilot_paths=150)
        by_i = {p.iterations: p for p in points}
        assert by_i[4].compression_ratio >= by_i[1].compression_ratio * 0.9


class TestAutotune:
    def test_end_to_end(self):
        dataset = make_dataset("sanfrancisco", "tiny")
        result = autotune(dataset, pilot_paths=150, seed=1)
        assert result.pilot_paths == 150
        assert result.default_mode in result.points
        assert result.fast_mode in result.points
        # The fast mode never compresses better AND slower than default.
        assert result.fast_mode.compression_speed_mbps >= \
            result.default_mode.compression_speed_mbps

    def test_configs_materialize(self):
        dataset = make_dataset("sanfrancisco", "tiny")
        result = autotune(dataset, pilot_paths=100)
        cfg = result.default_config(OFFSConfig(delta=8))
        assert cfg.iterations == result.default_mode.iterations
        assert cfg.sample_exponent == result.default_mode.sample_exponent
        fast_cfg = result.fast_config()
        assert fast_cfg.iterations == result.fast_mode.iterations

    def test_tuned_codec_works(self):
        from repro.core.offs import OFFSCodec

        dataset = make_dataset("sanfrancisco", "tiny")
        result = autotune(dataset, pilot_paths=100)
        codec = OFFSCodec(result.default_config()).fit(dataset)
        for path in list(dataset)[:20]:
            assert codec.decompress_path(codec.compress_path(path)) == path

    def test_point_rows(self):
        p = point(4, 2, 3.14159, 1.23456)
        assert p.as_row() == (4, 2, 3.142, 1.235)


def jittered_clock(grid, seed, amplitude=0.05):
    """A fake ``time`` whose timed rounds cost ``i`` seconds times a seeded
    jitter inside each point's spread.

    Calls come in (start, stop) pairs, round-major over *grid*.  Each
    point's three rounds take a shuffle of ``(-a, +a, u)`` with ``u``
    uniform in ``[-a, a]``: its spread always covers its jitter, and only
    the median moves with the seed.
    """
    rng = random.Random(seed)
    jitter = []
    for _ in grid:
        rounds = [-amplitude, amplitude, rng.uniform(-amplitude, amplitude)]
        rng.shuffle(rounds)
        jitter.append(rounds)
    state = {"now": 0.0, "calls": 0}

    def perf_counter():
        pair, stop = divmod(state["calls"], 2)
        state["calls"] += 1
        if stop:
            side = pair % len(grid)
            i, _ = grid[side]
            state["now"] += i * (1.0 + jitter[side][(pair // len(grid)) % 3])
        return state["now"]

    return types.SimpleNamespace(perf_counter=perf_counter)


def test_tune_pick_is_stable_under_jitter(monkeypatch):
    from repro.analysis import metrics

    dataset = make_dataset("alibaba", "tiny")
    i_values, k_values = (1, 2, 3, 4, 6), (0, 1, 2, 3, 4)
    grid = [(i, k) for i in i_values for k in k_values]
    results = []
    for seed in (1, 2):
        monkeypatch.setattr(metrics, "time", jittered_clock(grid, seed))
        results.append(
            autotune(dataset, pilot_paths=150, i_values=i_values, k_values=k_values)
        )
    first, second = (
        [(p.iterations, p.sample_exponent) for p in (r.default_mode, r.fast_mode)]
        for r in results
    )
    assert first == second
    assert all(p.compression_speed_spread_mbps > 0 for p in results[0].points)


# -- ablation-guided mode --------------------------------------------------------


def synthetic_report(entries, knobs=None):
    """A minimal BENCH_ablation.json payload for override tests."""
    return {
        "benchmark": "ablation",
        "schema_version": 2,
        "knobs": knobs or [
            {"name": "capacity", "target": "config.capacity"},
            {"name": "iterations", "target": "config.iterations"},
            {"name": "sample_exponent", "target": "config.sample_exponent"},
        ],
        "importance": entries,
    }


def entry(knob, component, importance, values=None, workload="w"):
    return {
        "workload": workload,
        "knob": knob,
        "component": component,
        "importance": importance,
        "values": values or {},
    }


class TestAblationOverrides:
    def test_grid_knobs_are_not_overrides(self):
        from repro.core.autotune import ablation_overrides

        report = synthetic_report([
            entry("iterations", "table construction", 0.5,
                  {"2": {"delta_cr": 0.5, "delta_cs": 0.0}}),
        ])
        assert ablation_overrides(report, "w") == {}  # the (i, k) grid owns it

    def test_cr_improving_value_becomes_an_override(self):
        from repro.core.autotune import ablation_overrides

        report = synthetic_report([
            entry("capacity", "candidate capacity", 0.3,
                  {"64": {"delta_cr": 0.3, "delta_cs": 0.0},
                   "256": {"delta_cr": 0.1, "delta_cs": 0.9},
                   "1024": {"delta_cr": -0.1, "delta_cs": 0.5}}),
        ])
        assert ablation_overrides(report, "w") == {"capacity": 64}

    @pytest.mark.parametrize("deltas", [
        {"delta_cr": -0.3, "delta_cs": 2.0},
        {"delta_cr": 0.0, "delta_cs": 0.5},
    ], ids=["cr-loss", "cr-neutral"])
    def test_no_cr_gain_never_overrides(self, deltas):
        from repro.core.autotune import ablation_overrides

        report = synthetic_report([
            entry("capacity", "candidate capacity", 0.3, {"64": deltas}),
        ])
        assert ablation_overrides(report, "w") == {}

    def test_unknown_workload_reads_every_workload(self):
        from repro.core.autotune import ablation_overrides

        report = synthetic_report([
            entry("capacity", "candidate capacity", 0.1,
                  {"64": {"delta_cr": 0.1, "delta_cs": 0.0}}, workload="a"),
            entry("capacity", "candidate capacity", 0.4,
                  {"1024": {"delta_cr": 0.4, "delta_cs": 0.0}}, workload="b"),
        ])
        assert ablation_overrides(report, "a") == {"capacity": 64}
        assert ablation_overrides(report, "zzz") == {"capacity": 1024}

    @pytest.mark.parametrize("workload", ["alibaba", "rome", "porto"])
    def test_committed_report_overrides_only_capacity(self, workload):
        from repro.bench.ablation import load_report
        from repro.core.autotune import ablation_overrides

        report = load_report(
            os.path.join(os.path.dirname(__file__), "..", "BENCH_ablation.json")
        )
        assert ablation_overrides(report, workload) == {"capacity": 1024}


class TestAblationGuidedAutotune:
    def _report(self):
        from repro.bench.ablation import run_ablation

        return run_ablation(workloads=["alibaba"], size="tiny", rounds=1)

    def test_full_grid_always_runs(self):
        from repro.core.autotune import autotune

        dataset = make_dataset("alibaba", "tiny")
        report = synthetic_report([
            entry("sample_exponent", "construction sampling", 0.0,
                  workload="alibaba"),
        ])
        result = autotune(
            dataset, pilot_paths=150, ablation_report=report,
            i_values=(1, 2), k_values=(0, 1, 2),
        )
        assert len(result.points) == 6
        assert result.recommended_config is not None

    def test_guard_rejects_a_lying_report(self):
        from repro.core.autotune import autotune
        from repro.core.offs import OFFSCodec
        from repro.analysis.metrics import measure_codec
        from repro.paths.dataset import PathDataset

        dataset = make_dataset("alibaba", "tiny")
        # The report swears a tiny candidate capacity improved CR; on the
        # real data it strangles the table.  The guard must catch it.
        report = synthetic_report([
            entry("capacity", "candidate capacity", 0.9,
                  {"8": {"delta_cr": 0.9, "delta_cs": 0.0}},
                  workload="alibaba"),
        ])
        result = autotune(
            dataset, pilot_paths=200, ablation_report=report,
            i_values=(4,), k_values=(2,),
        )
        cfg = result.best_config()
        pilot = PathDataset(list(dataset)[:200], name="pilot")
        best = measure_codec(OFFSCodec(cfg), pilot, verify=True)
        default = measure_codec(
            OFFSCodec(OFFSConfig().with_(seed=0)), pilot, verify=True
        )
        assert best.compression_ratio >= default.compression_ratio
        if result.fallback_to_default:
            assert cfg.capacity is None  # the default, not the lie

    def test_recommendation_never_worse_than_default(self):
        """Property: guided autotune holds the default's CR (seeded)."""
        from hypothesis import given, settings, strategies as st
        from repro.core.autotune import autotune
        from repro.core.offs import OFFSCodec
        from repro.analysis.metrics import measure_codec
        from repro.paths.dataset import PathDataset

        report = self._report()

        @settings(max_examples=4, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=3),
            workload=st.sampled_from(["alibaba", "rome", "sanfrancisco"]),
        )
        def check(seed, workload):
            dataset = make_dataset(workload, "tiny", seed=seed)
            result = autotune(
                dataset, pilot_paths=150, seed=seed,
                ablation_report=report, i_values=(2, 4), k_values=(0, 2),
            )
            pilot = PathDataset(list(dataset)[:150], name="pilot")
            # verify=True: the recommendation must round-trip exactly.
            best = measure_codec(
                OFFSCodec(result.best_config()), pilot, verify=True
            )
            default = measure_codec(
                OFFSCodec(OFFSConfig().with_(seed=seed)), pilot, verify=True
            )
            assert best.compression_ratio >= default.compression_ratio

        check()

    def test_plain_autotune_unchanged_without_report(self):
        from repro.core.autotune import autotune

        dataset = make_dataset("sanfrancisco", "tiny")
        result = autotune(dataset, pilot_paths=100)
        assert result.recommended_config is None
        assert result.best_config() == result.default_config()
