"""Shared configuration and codec roster for the experiment suite.

The paper's comparison setup (Section VI-A): all DICT competitors share the
table capacity, the sample rate for table construction is 1/128, OFFS runs
with δ = 8 and α = 5, and OFFS* is the (i=2, k=7) fast mode.  At
pure-Python, scaled-down dataset sizes the *sample exponent* must scale too
(1/128 of 20k paths trains on almost nothing), so :class:`BenchConfig`
centralizes the scaled equivalents and every bench file reads from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.baselines import Dlz4Codec, GFSCodec, RSSCodec
from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark campaign's knobs.

    :param size: dataset size preset (``tiny`` / ``small`` / ``medium``).
    :param sample_exponent: the scaled equivalent of the paper's k=7;
        ``2**k`` paths feed one to table construction.
    :param iterations: OFFS default-mode iterations (paper: 4).
    :param fast_iterations: OFFS* iterations (paper: 2).
    :param beta: λ divisor (paper: 500).
    :param seed: workload seed.
    """

    size: str = "medium"
    sample_exponent: int = 4
    iterations: int = 4
    fast_iterations: int = 2
    beta: float = 500.0
    seed: int = 0

    def offs_config(self, **overrides) -> OFFSConfig:
        """The campaign's OFFS default-mode configuration."""
        base = dict(
            iterations=self.iterations,
            sample_exponent=self.sample_exponent,
            beta=self.beta,
        )
        base.update(overrides)
        return OFFSConfig(**base)

    def offs_fast_config(self, **overrides) -> OFFSConfig:
        """The campaign's OFFS* fast-mode configuration."""
        return self.offs_config(iterations=self.fast_iterations, **overrides)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one).

    Every bench JSON records it: a timing means little without the number
    of CPUs it was measured on.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The default campaign used by every ``benchmarks/bench_*.py`` file.  Kept
#: at ``medium`` size — large enough for the paper's λ = nodes/500 capacity
#: rule to land in its intended regime, small enough for pure Python.
DEFAULT_BENCH = BenchConfig()

#: A fast campaign for smoke runs and CI.
QUICK_BENCH = BenchConfig(size="small", sample_exponent=2)


def offs_pair(config: BenchConfig = DEFAULT_BENCH) -> List[OFFSCodec]:
    """The two OFFS modes of Exp-1's trade-off pick: OFFS and OFFS*."""
    default = OFFSCodec(config.offs_config())
    fast = OFFSCodec(config.offs_fast_config())
    fast.name = "OFFS*"
    return [default, fast]


def default_codecs(
    config: BenchConfig = DEFAULT_BENCH,
    dict_capacity: int = 512,
) -> List:
    """The Fig. 5/6 roster: OFFS, OFFS*, Dlz4, RSS, GFS.

    :param dict_capacity: table capacity ``c`` for the naive DICTs; the
        paper gives them the same capacity as OFFS, whose λ at medium scale
        lands near 512.
    """
    roster: List = offs_pair(config)
    roster.append(Dlz4Codec(sample_exponent=config.sample_exponent))
    roster.append(
        RSSCodec(capacity=dict_capacity, sample_exponent=config.sample_exponent, seed=config.seed)
    )
    roster.append(
        GFSCodec(capacity=dict_capacity, sample_exponent=config.sample_exponent)
    )
    return roster


#: Factories keyed by codec name, for single-codec benches.
CODEC_FACTORIES: Dict[str, Callable[[BenchConfig], object]] = {
    "OFFS": lambda cfg: OFFSCodec(cfg.offs_config()),
    "OFFS*": lambda cfg: offs_pair(cfg)[1],
    "Dlz4": lambda cfg: Dlz4Codec(sample_exponent=cfg.sample_exponent),
    "RSS": lambda cfg: RSSCodec(capacity=512, sample_exponent=cfg.sample_exponent),
    "GFS": lambda cfg: GFSCodec(capacity=512, sample_exponent=cfg.sample_exponent),
}
