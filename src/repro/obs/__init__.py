"""Lightweight, zero-dependency instrumentation for the OFFS pipeline.

The paper's own arguments are counter-based (§IV-C counts hashed vertices,
not milliseconds), and the ROADMAP's north star — "as fast as the hardware
allows" — needs every perf PR to be measurable.  This package is that
measurement layer:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` with counters,
  gauges and monotonic-clock timers (context-manager and decorator forms);
* :mod:`repro.obs.spans` — :class:`SpanTracer`, a hierarchical span tree
  for phase breakdowns (``build → build.iteration → …``);
* :mod:`repro.obs.runtime` — scoped activation; the hot layers in
  :mod:`repro.core` observe only while an :class:`Instrumentation` is
  active, so the default mode costs one ``None`` check;
* :mod:`repro.obs.export` — JSON and text exporters for snapshots.

Quick start::

    from repro.obs import Instrumentation, instrumented, render_text

    with instrumented() as obs:
        codec = OFFSCodec().fit(dataset)
        store = CompressedPathStore.from_corpus(dataset, codec.table)
    print(render_text(obs))          # or write_json(obs, "metrics.json")

See docs/observability.md for metric and span naming conventions.
"""

from repro.obs.export import from_json, render_text, to_json, write_json
from repro.obs.registry import Counter, Gauge, MetricsRegistry, Timer
from repro.obs.runtime import (
    Instrumentation,
    activate,
    active_span,
    active_timer,
    deactivate,
    get_active,
    instrumented,
)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "Instrumentation",
    "get_active",
    "activate",
    "deactivate",
    "instrumented",
    "active_span",
    "active_timer",
    "to_json",
    "from_json",
    "write_json",
    "render_text",
]
