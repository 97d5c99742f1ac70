"""Exporters — snapshots to JSON documents and terminal-friendly text.

Both exporters operate on the plain-dict snapshot shape
(:meth:`repro.obs.runtime.Instrumentation.snapshot`)::

    {"metrics": {"counters": ..., "gauges": ..., "timers": ...},
     "spans": [<span dict>, ...]}

so they also accept snapshots that crossed a process or file boundary.
``schema_version`` is stamped into written documents for forward
compatibility of any tooling that parses them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.obs.runtime import Instrumentation

SCHEMA_VERSION = 1

Snapshot = Dict[str, Any]


def _as_snapshot(source: Union[Instrumentation, Snapshot]) -> Snapshot:
    if isinstance(source, Instrumentation):
        return source.snapshot()
    return source


def to_json(source: Union[Instrumentation, Snapshot], indent: Optional[int] = 2) -> str:
    """Serialize an instrumentation (or raw snapshot) as a JSON document."""
    snapshot = dict(_as_snapshot(source))
    snapshot.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def from_json(document: str) -> Snapshot:
    """Parse a document produced by :func:`to_json` back into a snapshot."""
    snapshot = json.loads(document)
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise ValueError("not an obs snapshot: missing 'metrics' section")
    return snapshot


def write_json(source: Union[Instrumentation, Snapshot], path: str) -> None:
    """Publish the JSON export of *source* at *path*."""
    from repro.core.serialize import publish_file

    publish_file(path, (to_json(source) + "\n").encode("utf-8"))


def render_text(source: Union[Instrumentation, Snapshot]) -> str:
    """Human-readable report: metric listings plus an indented span tree."""
    snapshot = _as_snapshot(source)
    metrics = snapshot.get("metrics", {})
    lines: List[str] = []

    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value:,}")

    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")

    timers = metrics.get("timers", {})
    if timers:
        lines.append("timers:")
        width = max(len(name) for name in timers)
        for name, stats in timers.items():
            count = stats.get("count", 0)
            total = stats.get("total_seconds", 0.0)
            mean = total / count if count else 0.0
            lines.append(
                f"  {name:<{width}}  n={count}  total={total:.6f}s  mean={mean:.6f}s"
            )

    spans = snapshot.get("spans", [])
    if spans:
        lines.append("spans:")
        for span in spans:
            _render_span(span, lines, depth=1)

    return "\n".join(lines) if lines else "(no metrics recorded)"


def _render_span(span: Dict[str, Any], lines: List[str], depth: int) -> None:
    indent = "  " * depth
    parts = [f"{indent}{span.get('name', '?')}"]
    attrs = span.get("attrs")
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in attrs.items()))
    parts.append(f"{span.get('elapsed_seconds', 0.0):.6f}s")
    counts = span.get("counts")
    if counts:
        parts.append(" ".join(f"{k}={v}" for k, v in counts.items()))
    lines.append("  ".join(parts))
    for child in span.get("children", []):
        _render_span(child, lines, depth + 1)
