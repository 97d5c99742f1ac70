"""Probe-cost accounting for the matcher backends.

The paper's §IV-C argument is about *hash cost*, not results: Example 3
counts 35 hashed vertices for a failed length-8 probe under the flat scheme
(``(8+2)(8-2+1)/2``), Example 4 bounds the two-level scheme at 14 for the
same query, and the exact encoder of a finished table starts each probe
run at its 2-prefix bound instead of at δ.
Wall-clock timings in pure Python are too noisy to verify constant-factor
claims, so the backends count their work instead:

* ``probes`` — membership tests issued;
* ``hashed_vertices`` — vertices fed to hash functions (tuple construction
  and hashing are linear in length, the cost model of Lemma 3).  The
  exact encoder counts its subpath→id lookups and their vertices; its
  2-prefix lookups are the filter and count in neither.

``tests/test_probe_costs.py`` re-derives the Examples' arithmetic from
these counters, and the A1 ablation bench reports them alongside timings.

Batch discipline: counters accumulate across ``longest_match`` calls until
explicitly zeroed — :meth:`ProbeStats.reset` between batches is the public
API for that (do not re-instantiate the stats object; backends hold a
reference to theirs for the matcher's whole lifetime).  For accounting a
bounded stretch of work without disturbing the running totals, pair
:meth:`snapshot` with :meth:`delta_since` and, when the
:mod:`repro.obs` layer is active, :meth:`publish` the delta onto its
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class ProbeStats:
    """Work counters accumulated across ``longest_match`` calls."""

    probes: int = 0
    hashed_vertices: int = 0

    def reset(self) -> None:
        """Zero the counters (start of a new measurement batch)."""
        self.probes = 0
        self.hashed_vertices = 0

    def snapshot(self) -> "ProbeStats":
        """A copy of the current counters."""
        return ProbeStats(self.probes, self.hashed_vertices)

    def delta_since(self, earlier: "ProbeStats") -> "ProbeStats":
        """The work done since *earlier* (a prior :meth:`snapshot`)."""
        return ProbeStats(
            self.probes - earlier.probes,
            self.hashed_vertices - earlier.hashed_vertices,
        )

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (JSON-safe)."""
        return {"probes": self.probes, "hashed_vertices": self.hashed_vertices}

    def publish(self, registry, prefix: str = "matcher") -> None:
        """Add these counts onto a :class:`~repro.obs.registry.MetricsRegistry`.

        Emits ``<prefix>.probes`` and ``<prefix>.hashed_vertices``.  This is
        the bridge from the always-on per-backend counters to the opt-in
        observability layer: call sites snapshot before a batch and publish
        the :meth:`delta_since` after it.

        *prefix* must be registered in :data:`repro.obs.catalog.PROBE_PREFIXES`
        — an arbitrary prefix would mint counter names outside the catalog,
        invisible to the conservation tests and dashboards.
        """
        from repro.obs.catalog import probe_counter_names

        probes_name, hashed_name = probe_counter_names(prefix)
        registry.counter(probes_name).inc(self.probes)
        registry.counter(hashed_name).inc(self.hashed_vertices)

    def __add__(self, other: "ProbeStats") -> "ProbeStats":
        return ProbeStats(
            self.probes + other.probes,
            self.hashed_vertices + other.hashed_vertices,
        )
