"""Baseline files: the checked-in list of deliberately-kept findings.

The repo's policy (docs/static-analysis.md) is fix-first: a finding lands in
``lint_baseline.json`` only when the flagged code is *correct* and the rule
cannot see why — e.g. :meth:`ProbeStats.publish` passing catalog-validated
variable names to ``registry.counter``.  Everything else gets fixed.

Baseline entries match on ``(rule, path, message)`` — no line numbers, so
editing code above a baselined site doesn't resurrect it, while any change
to the finding itself (different message, moved file) surfaces again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.engine import SCHEMA_VERSION, Finding, LintInternalError

DEFAULT_BASELINE = "lint_baseline.json"

_Key = Tuple[str, str, str]


@dataclass
class Baseline:
    """The set of accepted findings, plus bookkeeping for staleness."""

    entries: Set[_Key] = field(default_factory=set)

    def split(self, findings: Sequence[Finding]) -> Tuple[List[Finding], List[Finding]]:
        """Partition into (new, suppressed) against this baseline."""
        new: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in findings:
            (suppressed if finding.key() in self.entries else new).append(finding)
        return new, suppressed

    def stale(self, findings: Sequence[Finding]) -> List[_Key]:
        """Baseline entries no longer produced — candidates for deletion."""
        current = {finding.key() for finding in findings}
        return sorted(self.entries - current)


def load_baseline(path: Path | str) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline."""
    target = Path(path)
    if not target.is_file():
        return Baseline()
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LintInternalError(f"cannot read baseline {target}: {exc}") from exc
    if not isinstance(payload, dict) or "entries" not in payload:
        raise LintInternalError(f"baseline {target} is not a baseline file")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise LintInternalError(
            f"baseline {target} has schema_version {version!r}; "
            f"this linter writes {SCHEMA_VERSION}"
        )
    baseline = Baseline()
    for row in payload["entries"]:
        if not isinstance(row, dict):
            raise LintInternalError(f"baseline {target} has a malformed entry: {row!r}")
        try:
            baseline.entries.add((str(row["rule"]), str(row["path"]), str(row["message"])))
        except KeyError as exc:
            raise LintInternalError(
                f"baseline {target} entry missing field {exc}: {row!r}"
            ) from exc
    return baseline


def save_baseline(path: Path | str, findings: Sequence[Finding]) -> None:
    """Write *findings* as the new baseline (sorted, stable output)."""
    rows: List[Dict[str, str]] = [
        {"rule": rule, "path": rel, "message": message}
        for rule, rel, message in sorted({f.key() for f in findings})
    ]
    payload = {"schema_version": SCHEMA_VERSION, "entries": rows}
    from repro.core.serialize import publish_file

    publish_file(str(path), (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
