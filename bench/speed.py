"""Times at a fixed reference speed: the clock of the untraced benchmark.

The shared 2-core VM that the benchmark was built on runs the same code up
to 1.6x slower or faster from one moment to the next, in bursts under a
second and in spells of minutes (see bench/README.md, *Spread*). Raw wall
time then measures the machine more than the program. So a worker samples
the machine's speed while it measures: a timer interrupts it every
INTERVAL_S, and the signal handler runs a fixed reference loop and records
when it ran and how long it took. A measured interval [t0, t1] is reported as

    (t1 - t0 - reference time inside it) * REFERENCE_S / mean reference time near it

that is, in seconds of a machine on which the reference loop takes
REFERENCE_S. "Near" is the samples within WINDOW_S of the interval (at
least MIN_SAMPLES of them). Code that does less work takes less time at any
speed, so a faster or slower program still shows; a slower or faster
machine does not.
"""

from __future__ import annotations

import bisect
import itertools
import signal
from time import perf_counter

INTERVAL_S = 0.004
WINDOW_S = 0.25
MIN_SAMPLES = 8
REFERENCE_LOOPS = 1000
# the reference loop's median duration on the 2-core VM the benchmark was built on
REFERENCE_S = 175e-6


def reference() -> int:
    """Fixed interpreter work: dict stores and lookups, int arithmetic, a small sort."""
    d = {}
    s = 0
    for i in range(REFERENCE_LOOPS):
        d[i & 1023] = i
        s += d.get((i * 7) & 1023, 0)
    sorted(range(REFERENCE_LOOPS // 4, 0, -1))
    return s


def raw_clock(t0: float, t1: float) -> float:
    """Wall time, unnormalised; the traced mode's clock."""
    return t1 - t0


class SpeedClock:
    """Samples the reference loop between start() and stop(); then maps intervals to times."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._cumulative: list[float] = [0.0]
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t = perf_counter()
        reference()
        self.durations.append(perf_counter() - t)
        self.starts.append(t)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __call__(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at the reference speed, the sampler's own time taken out."""
        starts = self.starts
        if not starts:
            raise RuntimeError("no speed samples; the interval was not measured between start() and stop()")
        if len(self._cumulative) != len(starts) + 1:
            self._cumulative = list(itertools.accumulate(self.durations, initial=0.0))
        cum = self._cumulative
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        own = t1 - t0 - (cum[j] - cum[i])
        lo, hi = bisect.bisect_left(starts, t0 - WINDOW_S), bisect.bisect_right(starts, t1 + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        return own * REFERENCE_S * (hi - lo) / (cum[hi] - cum[lo])

    def median_sample(self) -> float:
        s = sorted(self.durations)
        return s[len(s) // 2]
