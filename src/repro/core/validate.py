"""Archive validation — the operational health check.

Before trusting a multi-gigabyte compressed archive (or after moving one
between machines), operators want a cheap integrity pass stronger than the
CRC alone: structural invariants plus a sampled round-trip.
:func:`validate_store` runs:

1. table invariants (bijection, contiguous ids, id-space separation);
2. token range checks (every symbol resolvable, no literal intruding into
   the supernode space);
3. a sampled decompress-and-recompress round-trip — each sampled path must
   re-compress to its stored token, proving the table still matches the
   data it encoded;
4. dead-entry accounting (informational).

Exposed on the CLI as ``python -m repro verify ARCHIVE``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.core.compressor import compress_path, decompress_path
from repro.core.errors import TableError
from repro.core.store import CompressedPathStore


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_store`."""

    paths: int = 0
    table_entries: int = 0
    sampled: int = 0
    dead_entries: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when no error was found."""
        return not self.errors

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.errors)} error(s))"
        return (
            f"{status}: {self.paths:,} paths, {self.table_entries} table "
            f"entries ({self.dead_entries} unused), {self.sampled} paths "
            f"round-trip checked"
        )


def validate_store(
    store: CompressedPathStore,
    sample: int = 256,
    seed: int = 0,
) -> ValidationReport:
    """Validate *store*; returns a report rather than raising.

    :param sample: how many paths get the full round-trip check (all of
        them when the store is smaller).
    """
    report = ValidationReport(paths=len(store), table_entries=len(store.table))

    # 1. Table invariants.
    try:
        store.table.validate()
    except TableError as exc:
        report.errors.append(f"table: {exc}")

    # 2. Token ranges.
    base = store.table.base_id
    limit = base + len(store.table)
    used = set()
    for path_id, token in enumerate(store.tokens()):
        for symbol in token:
            if symbol >= limit:
                report.errors.append(
                    f"path {path_id}: symbol {symbol} beyond table (limit {limit})"
                )
                break
            if symbol >= base:
                used.add(symbol)
    report.dead_entries = len(store.table) - len(used)

    # 3. Sampled round-trip: decompress, then recompress and compare.
    if len(store) and not report.errors:
        rng = random.Random(seed)
        count = min(sample, len(store))
        ids = rng.sample(range(len(store)), count)
        for path_id in ids:
            token = store.token(path_id)
            try:
                path = decompress_path(token, store.table)
                again = compress_path(path, store.table)
            except TableError as exc:
                report.errors.append(f"path {path_id}: {exc}")
                continue
            if again != tuple(token):
                report.errors.append(
                    f"path {path_id}: token does not re-compress to itself "
                    "(table/data mismatch)"
                )
        report.sampled = count

    return report
