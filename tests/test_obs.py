"""Unit tests for the repro.obs instrumentation subsystem.

Covers the satellite checklist: registry semantics (counter / gauge /
timer in both forms), nested spans, disabled-mode no-op behaviour, JSON
export round-trip — plus the runtime activation plumbing the core layers
rely on and the ProbeStats bridge onto the registry.
"""

import json

import pytest

from repro.core.probestats import ProbeStats
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    SpanTracer,
    activate,
    active_span,
    active_timer,
    deactivate,
    from_json,
    get_active,
    instrumented,
    render_text,
    to_json,
)


class TestCounters:
    def test_counter_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        counter = reg.counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert reg.counter("x").value == 5

    def test_counter_identity_per_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")

    def test_inc_shorthand(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 9)
        assert reg.counters() == {"hits": 10}


class TestGauges:
    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("level", 3)
        reg.set_gauge("level", 7)
        assert reg.gauge("level").value == 7


class TestTimers:
    def test_context_manager_form(self):
        reg = MetricsRegistry()
        with reg.timeit("t"):
            pass
        timer = reg.timer("t")
        assert timer.count == 1
        assert timer.total_seconds >= 0.0
        assert timer.min_seconds is not None and timer.max_seconds is not None

    def test_decorator_form(self):
        reg = MetricsRegistry()

        @reg.timeit("fn")
        def answer():
            return 42

        assert answer() == 42 and answer() == 42
        assert reg.timer("fn").count == 2

    def test_decorator_times_raising_function(self):
        reg = MetricsRegistry()

        @reg.timeit("boom")
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            boom()
        assert reg.timer("boom").count == 1

    def test_observe_accumulates_distribution(self):
        reg = MetricsRegistry()
        for seconds in (0.5, 0.1, 0.9):
            reg.observe("t", seconds)
        timer = reg.timer("t")
        assert timer.count == 3
        assert timer.min_seconds == pytest.approx(0.1)
        assert timer.max_seconds == pytest.approx(0.9)
        assert timer.mean_seconds == pytest.approx(0.5)


class TestDisabledMode:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.set_gauge("g", 1.0)
        with reg.timeit("t"):
            pass
        reg.observe("t2", 1.0)
        assert len(reg) == 0
        assert reg.as_dict() == {"counters": {}, "gauges": {}, "timers": {}}

    def test_disabled_registry_decorator_is_passthrough(self):
        reg = MetricsRegistry(enabled=False)

        def fn():
            return "ok"

        assert reg.timeit("t")(fn) is fn

    def test_disabled_tracer_yields_none(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("a") as span:
            assert span is None
        assert tracer.roots == [] and tracer.as_dict() == []

    def test_no_active_instrumentation_helpers_are_noops(self):
        assert get_active() is None
        with active_span("phase") as span:
            assert span is None
        with active_timer("t") as timer:
            assert timer is None


class TestSpans:
    def test_nested_spans_build_a_tree(self):
        tracer = SpanTracer()
        with tracer.span("build"):
            with tracer.span("build.iteration", iteration=1) as inner:
                inner.add("matches", 3)
                inner.add("matches", 2)
            with tracer.span("build.iteration", iteration=2):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "build"
        assert [c.attrs["iteration"] for c in root.children] == [1, 2]
        assert root.children[0].counts == {"matches": 5}
        assert root.elapsed_seconds >= sum(c.elapsed_seconds for c in root.children)

    def test_current_and_add_target_innermost(self):
        tracer = SpanTracer()
        assert tracer.current() is None
        tracer.add("ignored")  # outside any span: no-op, no crash
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
                tracer.add("hits")
        assert tracer.roots[0].children[0].counts == {"hits": 1}

    def test_span_closed_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("risky"):
                raise ValueError("x")
        assert tracer.current() is None
        assert tracer.roots[0].name == "risky"
        assert tracer.roots[0].elapsed_seconds >= 0.0


class TestRuntime:
    def test_instrumented_scope_activates_and_restores(self):
        assert get_active() is None
        with instrumented() as obs:
            assert get_active() is obs
            obs.registry.inc("seen")
        assert get_active() is None
        assert obs.registry.counters() == {"seen": 1}

    def test_instrumented_scopes_nest(self):
        with instrumented() as outer:
            with instrumented() as inner:
                assert get_active() is inner
            assert get_active() is outer

    def test_activate_deactivate(self):
        inst = Instrumentation()
        try:
            assert activate(inst) is inst
            assert get_active() is inst
        finally:
            deactivate()
        assert get_active() is None


class TestExport:
    def _populated(self) -> Instrumentation:
        obs = Instrumentation()
        obs.registry.inc("paths", 7)
        obs.registry.set_gauge("bytes", 123.0)
        obs.registry.observe("t", 0.25)
        with obs.span("build", matcher="hash"):
            with obs.span("build.iteration", iteration=1) as span:
                span.add("matches", 4)
        return obs

    def test_json_round_trip(self):
        obs = self._populated()
        snapshot = from_json(to_json(obs))
        assert snapshot["metrics"] == obs.registry.as_dict()
        assert snapshot["spans"] == obs.tracer.as_dict()
        assert snapshot["schema_version"] == 1
        # And the parsed snapshot re-serializes identically.
        assert to_json(snapshot) == to_json(obs)

    def test_from_json_rejects_non_snapshots(self):
        with pytest.raises(ValueError):
            from_json(json.dumps({"nope": 1}))

    def test_render_text_mentions_everything(self):
        text = render_text(self._populated())
        for needle in ("paths", "bytes", "build.iteration", "matches=4"):
            assert needle in text

    def test_render_text_empty(self):
        assert "no metrics" in render_text(Instrumentation())


class TestMerge:
    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.observe("t", 0.2)
        b.observe("t", 0.6)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 9.0
        timer = a.timer("t")
        assert timer.count == 2
        assert timer.min_seconds == pytest.approx(0.2)
        assert timer.max_seconds == pytest.approx(0.6)

    def test_merge_dict_survives_snapshot_boundary(self):
        src = MetricsRegistry()
        src.inc("x", 4)
        dst = MetricsRegistry()
        dst.merge_dict(json.loads(src.to_json()))
        assert dst.counter("x").value == 4

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert len(reg) == 0 and reg.enabled


class TestProbeStatsBridge:
    """The satellite fix: reset/snapshot/delta are the public batch API."""

    def test_reset_between_longest_match_batches(self):
        from repro.core.matcher import HashCandidates

        cands = HashCandidates()
        cands.add((1, 2, 3))
        path = (1, 2, 3, 4)
        cands.longest_match(path, 0, 4)
        first_batch = cands.stats.snapshot()
        assert first_batch.probes > 0 and first_batch.hashed_vertices > 0

        stats_obj = cands.stats
        cands.stats.reset()  # public API: no re-instantiation needed
        assert cands.stats is stats_obj
        assert cands.stats.probes == 0 and cands.stats.hashed_vertices == 0

        cands.longest_match(path, 0, 4)
        assert cands.stats.snapshot() == first_batch

    def test_delta_since_and_publish(self):
        stats = ProbeStats(probes=10, hashed_vertices=40)
        before = stats.snapshot()
        stats.probes += 5
        stats.hashed_vertices += 12
        delta = stats.delta_since(before)
        assert delta == ProbeStats(5, 12)
        assert delta.as_dict() == {"probes": 5, "hashed_vertices": 12}

        reg = MetricsRegistry()
        delta.publish(reg, "matcher")
        delta.publish(reg, "matcher")
        assert reg.counters() == {
            "matcher.probes": 10,
            "matcher.hashed_vertices": 24,
        }

    def test_every_backend_carries_stats(self):
        from repro.core.config import MATCHER_BACKENDS
        from repro.core.matcher import make_candidate_set

        for backend in MATCHER_BACKENDS:
            cands = make_candidate_set(backend)
            assert isinstance(cands.stats, ProbeStats)
            cands.stats.reset()
            assert cands.stats.probes == 0


class TestCoreIntegration:
    def test_build_emits_iteration_spans_and_probe_counters(self, simple_dataset):
        from repro.core.builder import TableBuilder
        from repro.core.config import OFFSConfig

        with instrumented() as obs:
            TableBuilder(OFFSConfig(iterations=3, sample_exponent=0)).build(
                simple_dataset
            )
        counters = obs.registry.counters()
        assert counters["build.iterations"] == 3
        assert counters["build.matcher.probes"] > 0
        roots = obs.tracer.roots
        assert [r.name for r in roots] == ["build"]
        child_names = [c.name for c in roots[0].children]
        assert child_names.count("build.iteration") == 3
        assert "build.initialize" in child_names and "build.finalize" in child_names

    def test_each_iteration_holds_one_prune_span(self, simple_dataset):
        from repro.core.builder import TableBuilder
        from repro.core.config import OFFSConfig

        with instrumented() as obs:
            TableBuilder(
                OFFSConfig(iterations=3, sample_exponent=0, capacity=3)
            ).build(simple_dataset)
        iterations = [
            c for c in obs.tracer.roots[0].children if c.name == "build.iteration"
        ]
        prunes = []
        for iteration in iterations:
            inner = [c for c in iteration.children if c.name == "build.prune"]
            assert len(inner) == 1
            prunes.extend(inner)
        assert len(prunes) == 3
        for prune in prunes:
            before, after = prune.attrs["candidates_before"], prune.attrs["candidates_after"]
            assert before - after == prune.counts.get("pruned", 0)
            assert after <= 3
        pruned = obs.registry.counters()["build.candidates_pruned"]
        assert pruned > 0
        assert sum(p.counts.get("pruned", 0) for p in prunes) == pruned

    def test_store_counts_and_gauges(self, simple_dataset):
        from repro.core.config import OFFSConfig
        from repro.core.offs import OFFSCodec
        from repro.core.store import CompressedPathStore

        codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0)).fit(
            simple_dataset
        )
        with instrumented() as obs:
            store = CompressedPathStore.from_corpus(simple_dataset, codec.table)
            store.retrieve(0)
            store.compression_ratio()
        counters = obs.registry.counters()
        assert counters["store.ingested_paths"] == len(simple_dataset)
        assert counters["store.retrieved_paths"] == 1
        assert counters["matcher.probes"] > 0
        gauges = obs.registry.as_dict()["gauges"]
        assert gauges["store.compressed_bytes"] > 0
        # (no ordering assertion: on tiny inputs the table overhead can make
        # the compressed form larger than the raw one)
        assert gauges["store.raw_bytes"] > 0

    def test_instrumentation_off_changes_no_results(self, simple_dataset):
        from repro.core.config import OFFSConfig
        from repro.core.offs import OFFSCodec

        config = OFFSConfig(iterations=3, sample_exponent=0)
        plain = OFFSCodec(config).fit(simple_dataset)
        with instrumented():
            observed = OFFSCodec(config).fit(simple_dataset)
        assert plain.table.subpaths == observed.table.subpaths
        for path in simple_dataset:
            assert plain.compress_path(path) == observed.compress_path(path)

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_compress_metrics_report_the_serialize_timer(self, tmp_path, fmt):
        from repro.cli import main

        paths = tmp_path / "paths.txt"
        paths.write_text("".join(f"{i} {i + 1} {i + 2} 1 2 3\n" for i in range(40)))
        archive = tmp_path / f"store.{fmt}"
        snapshot = tmp_path / "metrics.json"
        assert main(["compress", str(paths), str(archive), "--format", fmt,
                     "--sample-exponent", "0", "--metrics", str(snapshot)]) == 0
        payload = json.loads(snapshot.read_text())
        assert payload["metrics"]["timers"]["store.serialize.seconds"]["count"] == 1
        serialize_spans = [s for s in payload["spans"] if s["name"] == "store.serialize"]
        assert len(serialize_spans) == 1
        assert serialize_spans[0]["counts"]["bytes"] == archive.stat().st_size

    def test_serialize_is_uninstrumented_when_off(self, simple_dataset):
        from repro.core.config import OFFSConfig
        from repro.core.offs import OFFSCodec
        from repro.core.serialize import dumps_store, dumps_store_v2
        from repro.core.store import CompressedPathStore

        codec = OFFSCodec(OFFSConfig(iterations=2, sample_exponent=0)).fit(simple_dataset)
        store = CompressedPathStore.from_corpus(simple_dataset, codec.table)
        plain = (dumps_store(store), dumps_store_v2(store))
        with instrumented() as obs:
            observed = (dumps_store(store), dumps_store_v2(store))
        assert observed == plain
        assert obs.registry.as_dict()["timers"]["store.serialize.seconds"]["count"] == 2
        assert get_active() is None
