"""Times at a reference CPU speed.

On a shared host the CPU speed a process gets swings by up to 1.7x within
seconds, so raw wall times of one pass spread by +-25% from run to run. A
`SpeedProbe` times a fixed exact-arithmetic kernel, like the inner loops of
hopfsmash, from a timer signal every PERIOD_S seconds while the benchmark
runs. An interval's time at reference speed is its wall time multiplied by
the mean of REF_KERNEL_S / kernel time over the samples inside it: when the
host runs everything 1.5x slower, the kernel and the program slow down
together and the scaled time stays put. A change to hopfsmash moves the
program's time but not the kernel's, so it shows in full.

REF_KERNEL_S is the kernel's time in a quiet period on an Intel Xeon at
2.1 GHz (2-core container, Python 3.11.7); it only fixes the unit.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
REF_KERNEL_S = 0.0003


def kernel() -> dict:
    acc: dict = {}
    for i in range(60):
        c = Fraction(i + 1, 7) * Fraction(3, i + 2)
        acc[i % 13] = acc.get(i % 13, 0) + c
    return acc


class SpeedProbe:
    """Samples the kernel's time from SIGALRM between start() and stop()."""

    def __init__(self):
        self.at: list[float] = []       # sample start times, increasing
        self.speed: list[float] = []    # REF_KERNEL_S / kernel time
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.at.append(t0)
        self.speed.append(REF_KERNEL_S / (time.perf_counter() - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1], widened by one sample on each
        side so that an interval shorter than PERIOD_S still gets its
        neighbours' estimate; 1.0 before the first sample."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.at, t1) + 1, len(self.at))
        if hi <= lo:
            return 1.0
        return sum(self.speed[lo:hi]) / (hi - lo)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at reference speed."""
        return (t1 - t0) * self.factor(t0, t1)
