"""Automatic (i, k) selection — operationalizing the paper's Exp-1.

The paper picks its deployed modes by eyeballing the Fig. 4 trade-off
curves: "Regarding the trade-off between CS and CR, we pick two sets of
(i, k), the default mode (4, 7) and the fast mode (2, 7)."  This module
automates that decision for a new workload:

* :func:`sweep` measures CR and CS over a grid of (i, k) on a pilot sample
  of the data;
* :func:`choose` applies the paper's selection logic: among configurations
  within ``cr_tolerance`` of the best compression ratio, take the fastest
  (the "default mode" pick), and also report the fastest configuration
  losing at most ``fast_cr_loss`` absolute CR (the "fast mode" pick).

The sweep measures on a bounded pilot (``pilot_paths``), so tuning cost is
independent of archive size — the same reason table construction samples.

**Ablation-guided mode.**  Given an ``ablation_report`` (the
``BENCH_ablation.json`` payload of :mod:`repro.bench.ablation`),
:func:`autotune` reads one exact signal from it — compression-ratio gains,
which are byte-exact and so carry no timing noise:

* every config knob outside the (i, k) grid whose report cells measured a
  CR gain contributes its best-gaining value as a config override for the
  sweep base; values with no CR gain never override, whatever their speed
  delta, and the full (i, k) grid is always swept;
* the final pick is **guarded**: the recommended config and the untouched
  default are both measured on the same pilot with full round-trip
  verification, and if the recommendation does not hold the default's CR the
  tuner falls back to the default.  An ablation report can therefore seed
  tuning, but never talk it into a worse or corrupt config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import measure_codec
from repro.core.config import OFFSConfig
from repro.core.errors import InvalidInputError
from repro.core.offs import OFFSCodec
from repro.paths.dataset import PathDataset

@dataclass(frozen=True)
class TuningPoint:
    """One measured (i, k) configuration."""

    iterations: int
    sample_exponent: int
    compression_ratio: float
    compression_speed_mbps: float

    def as_row(self) -> Tuple[int, int, float, float]:
        return (
            self.iterations,
            self.sample_exponent,
            round(self.compression_ratio, 3),
            round(self.compression_speed_mbps, 3),
        )


@dataclass(frozen=True)
class TuningResult:
    """The sweep's outcome: the two operating points, Exp-1 style.

    In ablation-guided mode (``autotune(..., ablation_report=...)``) the
    result additionally carries the guarded recommendation:
    ``recommended_config`` is the full per-workload config (sweep pick plus
    the report's component overrides), and ``fallback_to_default`` records
    that the guard rejected a recommendation that failed to hold the
    default's CR.
    """

    default_mode: TuningPoint
    fast_mode: TuningPoint
    points: Tuple[TuningPoint, ...]
    pilot_paths: int
    elapsed_seconds: float
    recommended_config: Optional[OFFSConfig] = None
    fallback_to_default: bool = False

    def default_config(self, base: Optional[OFFSConfig] = None) -> OFFSConfig:
        """An :class:`OFFSConfig` for the default-mode pick."""
        base = base or OFFSConfig()
        return base.with_(
            iterations=self.default_mode.iterations,
            sample_exponent=self.default_mode.sample_exponent,
        )

    def fast_config(self, base: Optional[OFFSConfig] = None) -> OFFSConfig:
        """An :class:`OFFSConfig` for the fast-mode pick."""
        base = base or OFFSConfig()
        return base.with_(
            iterations=self.fast_mode.iterations,
            sample_exponent=self.fast_mode.sample_exponent,
        )

    def best_config(self, base: Optional[OFFSConfig] = None) -> OFFSConfig:
        """The config to deploy: the guarded recommendation when one exists
        (ablation-guided mode), otherwise the default-mode pick."""
        if self.recommended_config is not None:
            return self.recommended_config
        return self.default_config(base)


def sweep(
    dataset,
    i_values: Sequence[int] = (1, 2, 3, 4, 6),
    k_values: Sequence[int] = (0, 1, 2, 3, 4),
    base: Optional[OFFSConfig] = None,
    pilot_paths: int = 2000,
    seed: int = 0,
) -> List[TuningPoint]:
    """Measure CR and CS over the (i, k) grid on a pilot sample."""
    base = base or OFFSConfig()
    paths = list(dataset)
    pilot = PathDataset(paths[:pilot_paths], name="pilot")
    points: List[TuningPoint] = []
    for i in i_values:
        for k in k_values:
            config = base.with_(iterations=i, sample_exponent=k, seed=seed)
            measurement = measure_codec(OFFSCodec(config), pilot, verify=False)
            points.append(
                TuningPoint(
                    iterations=i,
                    sample_exponent=k,
                    compression_ratio=measurement.compression_ratio,
                    compression_speed_mbps=measurement.compression_speed_mbps,
                )
            )
    return points


def choose(
    points: Sequence[TuningPoint],
    cr_tolerance: float = 0.05,
    fast_cr_loss: float = 0.35,
) -> Tuple[TuningPoint, TuningPoint]:
    """Apply the Exp-1 selection rule to measured *points*.

    :param cr_tolerance: relative CR slack for the default mode — among
        points within ``(1 - cr_tolerance) × best CR``, pick the fastest.
    :param fast_cr_loss: absolute CR the fast mode may give up relative to
        the default mode (the paper's OFFS* "only loses 0.33").
    :returns: ``(default_mode, fast_mode)``.
    """
    if not points:
        raise InvalidInputError("no tuning points to choose from")
    best_cr = max(p.compression_ratio for p in points)
    default_pool = [
        p for p in points if p.compression_ratio >= (1 - cr_tolerance) * best_cr
    ]
    default = max(default_pool, key=lambda p: p.compression_speed_mbps)
    fast_pool = [
        p for p in points
        if p.compression_ratio >= default.compression_ratio - fast_cr_loss
    ]
    fast = max(fast_pool, key=lambda p: p.compression_speed_mbps)
    return default, fast


# -- consuming an ablation report ------------------------------------------------


def _parse_knob_value(label: str) -> object:
    """Invert :func:`repro.bench.ablation.format_value` run-id spellings."""
    if label == "none":
        return None
    if label == "on":
        return True
    if label == "off":
        return False
    try:
        return int(label)
    except ValueError:
        return label


def ablation_overrides(
    report: Mapping[str, object], workload: Optional[str] = None
) -> Dict[str, object]:
    """The :class:`OFFSConfig` overrides a report's CR gains support.

    For each config-targeted knob outside the (i, k) grid, the value label
    with the largest ``delta_cr > 0`` becomes an override; values with no
    CR gain never do.  Reads *workload*'s importance entries, or every
    workload's when *workload* is not in the report.
    """
    entries = list(report.get("importance", ()))
    named = [e for e in entries if e.get("workload") == workload]
    meta = {str(knob["name"]): knob for knob in report.get("knobs", ())}
    best: Dict[str, Tuple[float, object]] = {}
    for entry in named or entries:
        target = str(meta.get(str(entry["knob"]), {}).get("target", ""))
        scope, _, fieldname = target.partition(".")
        if scope != "config" or fieldname in ("iterations", "sample_exponent"):
            continue  # pipeline knobs and the (i, k) grid are not overrides
        for label, deltas in entry.get("values", {}).items():
            gain = float(deltas["delta_cr"])
            if gain > best.get(fieldname, (0.0, None))[0]:
                best[fieldname] = (gain, _parse_knob_value(label))
    return {fieldname: value for fieldname, (_, value) in best.items()}


def autotune(
    dataset,
    base: Optional[OFFSConfig] = None,
    pilot_paths: int = 2000,
    cr_tolerance: float = 0.05,
    fast_cr_loss: float = 0.35,
    seed: int = 0,
    i_values: Sequence[int] = (1, 2, 3, 4, 6),
    k_values: Sequence[int] = (0, 1, 2, 3, 4),
    ablation_report: Optional[Mapping[str, object]] = None,
    workload: Optional[str] = None,
) -> TuningResult:
    """One-call tuning: sweep the grid, pick the two operating points.

    With *ablation_report* (a loaded ``BENCH_ablation.json``, see
    :func:`repro.bench.ablation.load_report`) the report's CR-gaining
    component values for *workload* (defaulting to the dataset's name, see
    :func:`ablation_overrides`) are applied to the sweep base, and the
    returned :attr:`TuningResult.recommended_config` is guard-verified:
    measured against the unmodified default on the same pilot with full
    round-trip verification, falling back to the default if it scores a
    worse CR.
    """
    started = time.perf_counter()
    base = base or OFFSConfig()
    sweep_base = base
    if ablation_report is not None:
        sweep_base = base.with_(**ablation_overrides(
            ablation_report, workload or getattr(dataset, "name", None)
        ))

    points = sweep(
        dataset,
        i_values=i_values,
        k_values=k_values,
        base=sweep_base,
        pilot_paths=pilot_paths,
        seed=seed,
    )
    default, fast = choose(points, cr_tolerance=cr_tolerance, fast_cr_loss=fast_cr_loss)

    recommended: Optional[OFFSConfig] = None
    fallback = False
    if ablation_report is not None:
        paths = list(dataset)
        pilot = PathDataset(paths[:pilot_paths], name="pilot")
        candidate = sweep_base.with_(
            iterations=default.iterations,
            sample_exponent=default.sample_exponent,
            seed=seed,
        )
        reference = base.with_(seed=seed)
        # The guard measures with verify=True: a recommendation that cannot
        # round-trip byte-identically raises here instead of shipping.
        candidate_m = measure_codec(OFFSCodec(candidate), pilot, verify=True)
        reference_m = measure_codec(OFFSCodec(reference), pilot, verify=True)
        if candidate_m.compression_ratio >= reference_m.compression_ratio:
            recommended = candidate
        else:
            recommended = reference
            fallback = True

    return TuningResult(
        default_mode=default,
        fast_mode=fast,
        points=tuple(points),
        pilot_paths=min(pilot_paths, len(dataset)),
        elapsed_seconds=time.perf_counter() - started,
        recommended_config=recommended,
        fallback_to_default=fallback,
    )
