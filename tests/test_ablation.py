"""Unit tests for the component-ablation matrix (repro.bench.ablation)."""

import json

import pytest

from repro.bench.ablation import (
    KNOBS,
    SCHEMA_VERSION,
    Cell,
    Knob,
    baseline_spec,
    build_report,
    format_value,
    generate_matrix,
    importance_table,
    knob_by_name,
    load_report,
    measure_cell,
    run_matrix,
)
from repro.core.errors import InvalidInputError

#: A two-knob registry keeping executor tests to a handful of fast cells.
SMALL_KNOBS = (
    knob_by_name("capacity"),
    knob_by_name("store_format"),
)


def _result(workload, knob, component, value, cr, cs=1.0, ds=1.0, pds=1.0):
    """A synthetic run_matrix result row (importance-table input)."""
    return {
        "run_id": f"{workload}-{knob}={value}" if knob else f"{workload}-baseline",
        "workload": workload,
        "knob": knob,
        "component": component,
        "value": value,
        "verified": True,
        "compression_ratio": cr,
        "compression_speed_mbps": cs,
        "decompression_speed_mbps": ds,
        "partial_decompression_speed_mbps": pds,
    }


class TestRunIds:
    def test_ids_are_workload_knob_value_slugs(self):
        ids = {c.run_id for c in generate_matrix(["rome"], knobs=SMALL_KNOBS)}
        assert ids == {
            "rome-baseline",
            "rome-capacity=64",
            "rome-capacity=1024",
            "rome-store_format=v2",
        }

    def test_workload_ordering_cannot_change_the_matrix(self):
        forward = generate_matrix(["alibaba", "rome"], knobs=SMALL_KNOBS)
        backward = generate_matrix(["rome", "alibaba"], knobs=SMALL_KNOBS)
        duplicated = generate_matrix(
            ["rome", "alibaba", "rome"], knobs=SMALL_KNOBS
        )
        assert forward == backward == duplicated

    def test_knob_ordering_cannot_change_the_id_set(self):
        forward = generate_matrix(["rome"], knobs=SMALL_KNOBS)
        backward = generate_matrix(["rome"], knobs=tuple(reversed(SMALL_KNOBS)))
        assert forward == backward

    def test_cells_sorted_by_run_id(self):
        cells = generate_matrix()
        ids = [c.run_id for c in cells]
        assert ids == sorted(ids)

    def test_default_registry_covers_six_plus_knobs(self):
        assert len({k.name for k in KNOBS}) >= 6

    def test_value_formatting_is_canonical(self):
        assert format_value(True) == "on"
        assert format_value(False) == "off"
        assert format_value(None) == "none"
        assert format_value(12) == "12"
        with pytest.raises(InvalidInputError):
            format_value(0.5)


class TestKnobRegistry:
    def test_unknown_knob_rejected(self):
        with pytest.raises(InvalidInputError):
            knob_by_name("quantum_tunneling")

    def test_cell_spec_applies_settings(self):
        cell = next(
            c
            for c in generate_matrix(["rome"], knobs=SMALL_KNOBS)
            if c.run_id == "rome-store_format=v2"
        )
        spec = cell.spec(size="tiny", seed=3)
        assert spec.store_format == "v2"
        assert spec.workload == "rome"
        assert spec.seed == 3
        baseline = baseline_spec("rome", size="tiny", seed=3)
        assert spec.config == baseline.config


class TestMeasureCell:
    def test_baseline_cell_verifies_and_scores(self):
        result = measure_cell(baseline_spec("rome", size="tiny"), rounds=1)
        assert result["verified"] is True
        assert result["compression_ratio"] > 1.0
        assert result["compression_speed_mbps"] > 0
        assert result["decompression_speed_mbps"] > 0
        assert result["partial_decompression_speed_mbps"] > 0

    def test_v2_and_sharded_routes_verify(self):
        for cell_id in ("rome-store_format=v2", "rome-shards=2"):
            cell = next(
                c for c in generate_matrix(["rome"]) if c.run_id == cell_id
            )
            result = measure_cell(cell.spec(size="tiny"), rounds=1)
            assert result["verified"] is True, cell_id
            assert result["compressed_bytes"] > 0


class TestResume:
    def _cells(self):
        return [
            c
            for c in generate_matrix(["rome"], knobs=SMALL_KNOBS)
            if c.run_id in ("rome-baseline", "rome-capacity=64")
        ]

    def test_resume_skips_completed_cells(self, tmp_path):
        from repro.obs import instrumented
        from repro.obs import catalog

        partial = tmp_path / "partial.json"
        cells = self._cells()
        first = run_matrix(cells, size="tiny", rounds=1, partial_path=str(partial))
        assert set(first) == {c.run_id for c in cells}
        assert partial.exists()

        seen = []
        with instrumented() as obs:
            second = run_matrix(
                cells, size="tiny", rounds=1, partial_path=str(partial),
                echo=seen.append,
            )
            skipped = obs.registry.counter(catalog.ABLATION_CELLS_SKIPPED).value
            measured = obs.registry.counter(catalog.ABLATION_CELLS).value
        assert second == first  # resumed results are the recorded results
        assert skipped == len(cells) and measured == 0
        assert all(line.startswith("skip ") for line in seen)

    @pytest.mark.parametrize("changed", ["seed", "rounds"])
    def test_partial_for_other_seed_is_ignored(self, tmp_path, changed):
        partial = tmp_path / "partial.json"
        cells = self._cells()
        first = {"seed": 0, "rounds": 1}
        run_matrix(cells, size="tiny", partial_path=str(partial), **first)
        data = json.loads(partial.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["rounds"] == 1

        seen = []
        run_matrix(
            cells, size="tiny", partial_path=str(partial), echo=seen.append,
            **{**first, changed: 2},
        )
        assert not any(line.startswith("skip ") for line in seen)

    def test_unverified_partial_rows_are_remeasured(self, tmp_path):
        partial = tmp_path / "partial.json"
        cells = self._cells()
        run_matrix(cells, size="tiny", rounds=1, partial_path=str(partial))
        data = json.loads(partial.read_text())
        data["results"]["rome-baseline"]["verified"] = False
        partial.write_text(json.dumps(data))

        seen = []
        run_matrix(
            cells, size="tiny", rounds=1, partial_path=str(partial),
            echo=seen.append,
        )
        assert "skip rome-baseline (resumed)" not in seen
        assert "skip rome-capacity=64 (resumed)" in seen


class TestImportance:
    def _tied_results(self, order=(0, 1, 2)):
        rows = [
            _result("w", None, "baseline", "baseline", cr=2.0),
            # Two knobs with the exact same CR delta: rank must tie-break
            # on (component, knob), never on insertion order.
            _result("w", "zeta", "aaa component", "1", cr=2.2),
            _result("w", "alpha", "bbb component", "1", cr=2.2),
        ]
        return {rows[i]["run_id"]: rows[i] for i in order}

    def test_tied_deltas_rank_deterministically(self):
        entries = importance_table(self._tied_results())
        assert [e["knob"] for e in entries] == ["zeta", "alpha"]
        assert [e["rank"] for e in entries] == [1, 2]
        assert entries[0]["importance"] == entries[1]["importance"] == 0.1

    def test_insertion_order_cannot_shuffle_ranks(self):
        baseline_first = importance_table(self._tied_results((0, 1, 2)))
        baseline_last = importance_table(self._tied_results((2, 1, 0)))
        assert baseline_first == baseline_last

    def test_missing_baseline_rejected(self):
        rows = {"w-alpha=1": _result("w", "alpha", "c", "1", cr=2.0)}
        with pytest.raises(InvalidInputError):
            importance_table(rows)

    def test_timing_delta_inside_the_spread_scores_zero(self):
        base = _result("w", None, "baseline", "baseline", cr=2.0,
                       cs=1.0, ds=10.0, pds=5.0)
        noisy = _result("w", "cache", "expansion cache", "off", cr=2.0,
                        cs=1.3, ds=8.0, pds=5.5)
        for row, spread in ((base, 0.2), (noisy, 0.1)):
            row["compression_speed_spread_mbps"] = spread
            row["decompression_speed_spread_mbps"] = 20 * spread
            row["partial_decompression_speed_spread_mbps"] = 5 * spread
        [entry] = importance_table({"w-baseline": base, "w-cache=off": noisy})
        assert entry["importance"] == 0.0
        assert set(entry["values"]["off"].values()) == {0.0}

    def test_best_value_maximizes_cr(self):
        results = self._tied_results()
        worse = _result("w", "alpha", "bbb component", "2", cr=1.5)
        results[worse["run_id"]] = worse
        entries = importance_table(results)
        alpha = next(e for e in entries if e["knob"] == "alpha")
        assert alpha["best_value"] == "1"
        # The lossy value still widens the knob's importance.
        assert alpha["importance"] == 0.25


class TestReport:
    def test_report_round_trips_through_load(self, tmp_path):
        results = {
            "w-baseline": _result("w", None, "baseline", "baseline", cr=2.0),
            "w-alpha=1": _result("w", "alpha", "c", "1", cr=2.2),
        }
        report = build_report(
            results, workloads=["w"], size="tiny", seed=0, rounds=1
        )
        assert report["schema_version"] == SCHEMA_VERSION
        assert list(report["runs"]) == sorted(results)
        target = tmp_path / "BENCH_ablation.json"
        target.write_text(json.dumps(report))
        assert load_report(str(target)) == report

    def test_load_rejects_foreign_payloads(self, tmp_path):
        target = tmp_path / "other.json"
        target.write_text(json.dumps({"benchmark": "smoke_fig5_speed"}))
        with pytest.raises(InvalidInputError):
            load_report(str(target))

    def test_load_rejects_a_report_naming_a_retired_knob(self, tmp_path):
        retired = (
            ("processes", "spec.processes", "2"),
            ("reorder", "config.reorder", "frequency"),
        )
        for name, target_field, value in retired:
            report = build_report(
                {"w-baseline": _result("w", None, "baseline", "baseline", cr=2.0)},
                workloads=["w"], size="tiny", seed=0, rounds=1,
            )
            report["knobs"].append(
                {"name": name, "component": "retired", "target": target_field,
                 "values": [value], "summary": ""}
            )
            target = tmp_path / "BENCH_ablation.json"
            target.write_text(json.dumps(report))
            with pytest.raises(InvalidInputError, match=f"'{name}'.*make bench-ablation"):
                load_report(str(target))

    def test_load_rejects_a_report_listing_the_matcher_knob(self, tmp_path):
        # Reports measured while the matcher backend was a knob name a
        # config choice this build no longer offers.
        report = build_report(
            {"w-baseline": _result("w", None, "baseline", "baseline", cr=2.0)},
            workloads=["w"], size="tiny", seed=0, rounds=1,
        )
        report["knobs"].insert(
            0,
            {"name": "matcher", "component": "matcher backend",
             "target": "config.matcher", "values": ["hash", "multilevel"],
             "summary": ""},
        )
        target = tmp_path / "BENCH_ablation.json"
        target.write_text(json.dumps(report))
        with pytest.raises(InvalidInputError, match="'matcher'.*make bench-ablation"):
            load_report(str(target))

    def test_load_rejects_a_report_naming_a_retired_knob_value(self, tmp_path):
        report = build_report(
            {"w-baseline": _result("w", None, "baseline", "baseline", cr=2.0)},
            workloads=["w"], size="tiny", seed=0, rounds=1,
        )
        shards = next(k for k in report["knobs"] if k["name"] == "shards")
        shards["values"] = ["2", "4"]
        target = tmp_path / "BENCH_ablation.json"
        target.write_text(json.dumps(report))
        with pytest.raises(InvalidInputError, match="shards=4.*make bench-ablation"):
            load_report(str(target))
