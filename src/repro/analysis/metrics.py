"""The Section VI-B measures: CR, CS, DS and PDS.

* **Compression ratio** ``CR = |P| / (|P'| + |R|)`` — raw bytes over
  compressed bytes including the rule.
* **Compression speed** ``CS = |P| / T_c`` — raw bytes per second of
  *fit + compress* (table construction is part of the paper's compression
  timing: Exp-1 shows CS varying with the construction parameters ``i``
  and ``k``).
* **Decompression speed** ``DS = |P| / T_d`` over the whole archive.
* **Partial decompression speed** ``PDS = |Q| / T_pd`` for a retrieved
  subset ``Q``.

Throughputs are reported in MB/s (1 MB = 10⁶ bytes, as speed plots usually
do).  Absolute values are pure-Python-scale; the benchmarks compare methods
against each other, which is the paper's claim shape.

Repeated timings go through :func:`time_rounds`; :func:`relative_delta`
reads a difference inside the combined spread as none at all.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.sizing import dataset_raw_bytes, tokens_total_bytes
from repro.paths.encoding import DEFAULT_ENCODING, Encoding

_MB = 1_000_000.0


@dataclass(frozen=True)
class CompressionMeasurement:
    """One codec's full measurement on one dataset."""

    codec_name: str
    dataset_name: str
    raw_bytes: int
    compressed_bytes: int
    rule_bytes: int
    fit_seconds: float
    compress_seconds: float
    decompress_seconds: float

    @property
    def compression_ratio(self) -> float:
        """``CR = |P| / (|P'| + |R|)``."""
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 0.0

    @property
    def compression_speed_mbps(self) -> float:
        """``CS``: raw MB per second of fit + compress."""
        elapsed = self.fit_seconds + self.compress_seconds
        return self.raw_bytes / _MB / elapsed if elapsed > 0 else 0.0

    @property
    def decompression_speed_mbps(self) -> float:
        """``DS``: raw MB per second of full decompression."""
        if self.decompress_seconds <= 0:
            return 0.0
        return self.raw_bytes / _MB / self.decompress_seconds

    def as_row(self) -> Tuple[str, str, float, float, float]:
        """``(codec, dataset, CR, CS, DS)`` for report tables."""
        return (
            self.codec_name,
            self.dataset_name,
            round(self.compression_ratio, 3),
            round(self.compression_speed_mbps, 3),
            round(self.decompression_speed_mbps, 3),
        )


@dataclass(frozen=True)
class Timing:
    """One side's last result and min / median / spread (max − min) seconds."""

    result: Any
    min: float
    median: float
    spread: float

    def rate(self, amount: float) -> Tuple[float, float]:
        """``(amount / median, spread)`` of the rate *amount* per second."""
        return amount / self.median, amount / self.min - amount / (self.min + self.spread)


def time_rounds(runs: Sequence[Callable[[], Any]], rounds: int) -> List[Timing]:
    """Time every callable of *runs* for *rounds* rounds, round-major.

    Round ``r`` of every side runs before round ``r + 1`` of any side, so a
    drift in the machine's speed lands on all sides alike.  The clock is
    the module's ``time`` (tests substitute it).
    """
    seconds: List[List[float]] = [[] for _ in runs]
    results: List[Any] = [None] * len(runs)
    for _ in range(max(1, rounds)):
        for side, run in enumerate(runs):
            started = time.perf_counter()
            results[side] = run()
            seconds[side].append(time.perf_counter() - started)
    return [
        Timing(result, min(s), statistics.median(s), max(s) - min(s))
        for result, s in zip(results, seconds)
    ]


def relative_delta(
    a: float, b: float, spread_a: float = 0.0, spread_b: float = 0.0
) -> float:
    """``(a - b) / b``, or 0.0 when ``|a - b| <= spread_a + spread_b``.

    The noise floor: two measurements that differ by no more than their
    combined spread are not told apart.
    """
    if not b or abs(a - b) <= spread_a + spread_b:
        return 0.0
    return (a - b) / b


def compression_ratio(codec, dataset, tokens: Sequence[Any], encoding: Encoding = DEFAULT_ENCODING) -> float:
    """``CR`` of *tokens* produced by *codec* for *dataset*."""
    raw = dataset_raw_bytes(dataset, encoding)
    compressed = tokens_total_bytes(codec, tokens, encoding)
    return raw / compressed if compressed else 0.0


def measure_codec(
    codec,
    dataset,
    encoding: Encoding = DEFAULT_ENCODING,
    verify: bool = True,
) -> CompressionMeasurement:
    """Fit, compress, decompress and time *codec* on *dataset*.

    With ``verify=True`` (default) every decompressed path is checked against
    its original — a measurement of a lossy implementation would be
    meaningless, so corruption raises immediately.
    """
    paths = list(dataset)
    raw = dataset_raw_bytes(paths, encoding)

    started = time.perf_counter()
    codec.fit(dataset)
    fit_seconds = time.perf_counter() - started

    started = time.perf_counter()
    tokens = [codec.compress_path(p) for p in paths]
    compress_seconds = time.perf_counter() - started

    started = time.perf_counter()
    restored = [codec.decompress_path(t) for t in tokens]
    decompress_seconds = time.perf_counter() - started

    if verify:
        for original, back in zip(paths, restored):
            if tuple(original) != tuple(back):
                raise AssertionError(
                    f"{codec.name}: lossy round-trip detected "
                    f"({tuple(original)[:8]}... != {tuple(back)[:8]}...)"
                )

    return CompressionMeasurement(
        codec_name=codec.name,
        dataset_name=getattr(dataset, "name", "dataset"),
        raw_bytes=raw,
        compressed_bytes=tokens_total_bytes(codec, tokens, encoding),
        rule_bytes=codec.rule_size_bytes(encoding),
        fit_seconds=fit_seconds,
        compress_seconds=compress_seconds,
        decompress_seconds=decompress_seconds,
    )


def measure_decompression(codec, tokens: Sequence[Any], raw_bytes: int) -> float:
    """``DS`` in MB/s for decompressing all *tokens* (Fig. 6a)."""
    started = time.perf_counter()
    for token in tokens:
        codec.decompress_path(token)
    elapsed = time.perf_counter() - started
    return raw_bytes / _MB / elapsed if elapsed > 0 else 0.0


def measure_partial_decompression(
    store,
    fraction: float,
    encoding: Encoding = DEFAULT_ENCODING,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> Tuple[float, int]:
    """``PDS`` of retrieving a random *fraction* from a compressed store.

    Returns ``(mbps, retrieved_bytes_per_repeat)``; Fig. 6b sweeps the
    fraction from 1% to 100%.  Small fractions are timed over several
    repeats (different random subsets) so a 1% retrieval is not measured
    from a single sub-millisecond call.
    """
    if repeats is None:
        repeats = max(1, min(25, round(0.25 / fraction)))
    started = time.perf_counter()
    retrieved: List = []
    for r in range(repeats):
        retrieved = store.retrieve_fraction(fraction, seed=seed + r)
    elapsed = time.perf_counter() - started
    out_bytes = dataset_raw_bytes(retrieved, encoding)
    mbps = out_bytes * repeats / _MB / elapsed if elapsed > 0 else 0.0
    return mbps, out_bytes
