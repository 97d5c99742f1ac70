"""Host-speed correction for the benchmark's end-to-end timings.

A shared virtual machine does not run at one speed: on a 2-vCPU Xeon VM
the same pure Python loop takes 4.2 ms in some stretches of seconds and
6.2 ms in others, switching every few seconds, and a run can fall wholly in one
phase or the other.  Timing the work alone, two runs of the same code
then differ by up to half.

So every measured unit of work (a build phase, an ingest chunk, a block
of point reads, a set-up round) sits between two probes of a fixed
reference loop, and its wall time is scaled by ``REFERENCE_S`` over the
mean of the two probes.  The loop runs with the garbage collector off and
allocates only integers, so the program's heap does not change its cost.
The scaled time is what the work would take on a host where the loop
takes ``REFERENCE_S``: on the 2-vCPU Xeon VM this benchmark was tuned on,
that is the loop's time in the host's fast phase, so scaled times read
close to the wall times of a fast stretch.  Raw wall times stay in each
run's record.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Seconds the reference loop takes at the speed timings are scaled to.
REFERENCE_S = 0.00165
_LOOP = 12_000
_REPEATS = 3


def reference_s() -> float:
    """Median seconds of a few runs of the reference loop, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPEATS):
            start = perf_counter()
            table = {}
            for i in range(_LOOP):
                table[(i * 7919) % 10007] = i
            total = 0
            for key, value in table.items():
                total += key ^ value
            times.append(perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes the host's speed between units of work.

    Create it right before the first unit; after each unit, ``scale()``
    probes again and returns the factor for the unit just finished.
    """

    def __init__(self) -> None:
        self._last = reference_s()
        #: Every probe taken, in seconds, for the run's record.
        self.probes = [self._last]

    def scale(self) -> float:
        """Factor from the wall time of the unit since the last probe to
        reference time: ``REFERENCE_S`` over the mean of the probes on either side."""
        probe = reference_s()
        factor = 2 * REFERENCE_S / (self._last + probe)
        self._last = probe
        self.probes.append(probe)
        return factor
