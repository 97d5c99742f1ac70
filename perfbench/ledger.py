"""Per-layer ledger: times calls into the program's public functions from outside.

A :class:`Ledger` replaces chosen functions and methods of the ``repro``
package with timing wrappers while it is installed, and restores the
originals when it is removed.  Nothing inside the program changes: the
wrappers only bracket calls the program already makes.  Every wrapped call
is a span with a name and a duration; a span nested in another is
subtracted from it, so :attr:`Ledger.covered` (the wall time inside any
span) never counts a nested layer twice.

Spans and counts are grouped into *cycles* (one build, one ingest, one
block of point reads) so a layer's cost can be reported per cycle and
compared across runs of different length.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Ledger:
    """Spans and counts for one traced run."""

    def __init__(self) -> None:
        #: Per-call durations (seconds) by span name, over the whole run.
        self.calls: Dict[str, List[float]] = defaultdict(list)
        #: Closed cycles: per-name totals (seconds or counts), one dict each.
        self.cycles: List[Dict[str, float]] = []
        #: Seconds spent inside outermost spans.
        self.covered = 0.0
        self._cycle: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._targets: List[tuple] = []
        self._saved: List[tuple] = []

    # -- spans and counts ---------------------------------------------------------

    def enter(self) -> float:
        """Open a span; returns its start time for :meth:`leave`."""
        self._stack.append(0.0)
        return perf_counter()

    def leave(self, name: str, start: float) -> float:
        """Close the innermost span as *name*; returns its duration."""
        elapsed = perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.covered += elapsed
        self.calls[name].append(elapsed)
        self._cycle[name] += elapsed
        return elapsed

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to the counter *name* of the current cycle."""
        self._cycle[name] += amount

    def maximum(self, name: str, value: float) -> None:
        """Keep the largest *value* seen for *name* in the current cycle."""
        self._cycle[name] = max(self._cycle[name], value)

    def end_cycle(self) -> None:
        """Close the current cycle and start a new one."""
        self.cycles.append(dict(self._cycle))
        self._cycle = defaultdict(float)

    # -- installing wrappers ------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable[["Ledger", tuple, object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span *name* once installed.

        *after* receives ``(ledger, args, result)`` to record counts.
        """
        self.substitute(owner, attr, lambda fn: self._timed(fn, name, after))

    def substitute(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)`` once installed.

        *owner* is a module or a class.  A module-level function is also
        replaced in every loaded ``repro`` module that imported it by name,
        so callers that bound it at import time see the replacement too.
        """
        self._targets.append((owner, attr, make))

    def install(self) -> None:
        """Put every registered replacement in place."""
        if self._saved:
            return
        for owner, attr, make in self._targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(make(raw.__func__))
                else:
                    patched = make(raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            patched = make(original)
            holders = [owner] + [
                module
                for module in list(sys.modules.values())
                if module is not owner
                and getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is original
            ]
            for module in holders:
                self._saved.append((module, attr, original))
                setattr(module, attr, patched)

    def remove(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _timed(self, fn, name: str, after):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = ledger.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.leave(name, start)
            if after is not None:
                after(ledger, args, result)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------------

    def per_cycle(self, name: str) -> float:
        """Median over cycles of *name*'s per-cycle total (0 if never seen)."""
        if not self.cycles:
            return 0.0
        return statistics.median(cycle.get(name, 0.0) for cycle in self.cycles)

    def p50(self, name: str) -> float:
        """Median duration of one call of span *name* (0 if never called)."""
        calls = self.calls.get(name)
        return statistics.median(calls) if calls else 0.0

    def mean(self, name: str) -> float:
        """Mean duration of one call of span *name* (0 if never called)."""
        calls = self.calls.get(name)
        return statistics.fmean(calls) if calls else 0.0


def percentile(values: List[float], q: float) -> float:
    """The *q*-th percentile (0-100) of *values*, nearest rank on sorted data."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MB.

    Read from ``/proc/<pid>/status``, which belongs to that process alone.
    ``getrusage().ru_maxrss`` is not used: it survives ``execve``, so a
    child started from a large parent can report the parent's peak.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def reset_hwm(pid: str = "self") -> None:
    """Restart process *pid*'s ``VmHWM`` count from its current resident set.

    Writing ``5`` to ``/proc/<pid>/clear_refs`` does this (Linux 4.0+), so
    a later :func:`vm_hwm_mb` reads the peak of the work done in between.
    """
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
