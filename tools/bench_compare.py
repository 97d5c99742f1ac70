#!/usr/bin/env python
"""Bench-regression gate: diff fresh bench JSONs against committed baselines.

``make bench-smoke`` (and friends) emit small JSON reports.  This tool
compares a fresh report against the committed baseline of the same name
under ``benchmarks/baselines/`` and classifies every leaf key:

* **correctness-derived** (booleans, counts, ratios of byte sizes,
  structural strings) must match the baseline **exactly** — any drift is a
  blocking regression (``::error``, exit 1).  These numbers are
  deterministic: same code + same seed = same value on every machine.
* **timing-derived** (keys ending in ``seconds``/``_per_s``/``_mbps``,
  ``speedup`` and ``*_over_*`` ratios, latency quantiles) are
  machine-dependent, so they only *warn* (``::warning``) when they drift
  beyond the tolerance band (default ±15%) — informational, never blocking.
* **environment** keys (``python``, ``platform``…) are ignored.

Usage::

    python tools/bench_compare.py --baseline-dir benchmarks/baselines \
        --format gha BENCH_smoke.json BENCH_decode.json

Exit codes: 0 = clean (possibly with timing warnings), 1 = at least one
blocking regression, 2 = usage error (missing file, invalid JSON).

``make bench-check`` wraps the invocation above; CI runs it inside the
``bench (smoke)`` matrix cell so a correctness drift blocks the merge while
a slow runner does not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

#: Leaf keys that describe the machine, not the code under test.
IGNORED_KEYS = frozenset({"python", "platform", "hostname", "timestamp", "cpus"})

#: Leaf-name suffixes / infixes marking a metric as timing-derived.
_TIMING_SUFFIXES = ("seconds", "_per_s", "_mbps", "_qps", "_p50", "_p95", "_p99")
_TIMING_EXACT = frozenset({"speedup", "qps", "p50", "p95", "p99"})

DEFAULT_TOLERANCE = 0.15


def is_timing_key(path: str) -> bool:
    """True when the dotted *path*'s leaf is a wall-clock-derived metric."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf in _TIMING_EXACT or "_over_" in leaf:
        return True
    return any(leaf.endswith(suffix) for suffix in _TIMING_SUFFIXES)


def flatten(payload: object, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield ``(dotted.path, leaf_value)`` pairs in sorted key order."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten(payload[key], path)
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            yield from flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, payload


class Finding:
    """One metric-level comparison outcome."""

    __slots__ = ("severity", "file", "key", "message")

    def __init__(self, severity: str, file: str, key: str, message: str):
        self.severity = severity  # "error" | "warning"
        self.file = file
        self.key = key
        self.message = message

    def render(self, fmt: str) -> str:
        if fmt == "gha":
            # ::error title=...::message — annotates the PR check run.
            return (f"::{self.severity} title=bench-compare "
                    f"{self.file}:{self.key}::{self.message}")
        tag = "REGRESSION" if self.severity == "error" else "drift"
        return f"{tag}: {self.file}: {self.key}: {self.message}"


def compare_payloads(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    file: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Finding]:
    """All findings from comparing one fresh report to its baseline."""
    fresh_flat = dict(flatten(fresh))
    base_flat = dict(flatten(baseline))
    findings: List[Finding] = []
    for key in sorted(set(fresh_flat) | set(base_flat)):
        leaf = key.rsplit(".", 1)[-1]
        if leaf in IGNORED_KEYS:
            continue
        if key not in fresh_flat:
            findings.append(Finding(
                "error", file, key, "metric disappeared from the fresh report"))
            continue
        if key not in base_flat:
            findings.append(Finding(
                "error", file, key,
                "new metric with no committed baseline "
                "(regenerate benchmarks/baselines/)"))
            continue
        got, want = fresh_flat[key], base_flat[key]
        if is_timing_key(key):
            findings.extend(_compare_timing(file, key, got, want, tolerance))
        elif got != want:
            findings.append(Finding(
                "error", file, key,
                f"expected {want!r} (baseline), got {got!r} — "
                "correctness-derived metrics must match exactly"))
    return findings


def _compare_timing(
    file: str, key: str, got: object, want: object, tolerance: float
) -> List[Finding]:
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        if got != want:
            return [Finding("error", file, key,
                            f"timing metric changed type: {want!r} -> {got!r}")]
        return []
    if want == 0:
        return []  # no meaningful relative band against a zero baseline
    rel = (got - want) / want
    if abs(rel) > tolerance:
        return [Finding(
            "warning", file, key,
            f"{want} -> {got} ({rel:+.1%}, band ±{tolerance:.0%}) — "
            "timing drift is informational")]
    return []


def compare_files(
    fresh_path: str,
    baseline_dir: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Finding]:
    """Load one fresh report and its same-named baseline, and compare."""
    baseline_path = os.path.join(baseline_dir, os.path.basename(fresh_path))
    with open(fresh_path, "r", encoding="utf-8") as fh:
        fresh = json.load(fh)
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    return compare_payloads(fresh, baseline, os.path.basename(fresh_path),
                            tolerance=tolerance)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("reports", nargs="+",
                        help="fresh bench JSON files to check")
    parser.add_argument("--baseline-dir", default="benchmarks/baselines",
                        help="directory of committed same-named baselines")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative band for timing metrics "
                             "(default %(default)s)")
    parser.add_argument("--format", choices=("text", "gha"), default="text",
                        dest="fmt",
                        help="'gha' emits ::error/::warning annotations")
    args = parser.parse_args(argv)

    findings: List[Finding] = []
    for report in args.reports:
        try:
            findings.extend(
                compare_files(report, args.baseline_dir, tolerance=args.tolerance))
        except FileNotFoundError as exc:
            print(f"bench-compare: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"bench-compare: {report}: invalid JSON: {exc}",
                  file=sys.stderr)
            return 2

    for finding in findings:
        print(finding.render(args.fmt))
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    print(f"bench-compare: {len(args.reports)} report(s), "
          f"{errors} regression(s), {warnings} timing drift(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
