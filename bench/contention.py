"""Measure how fast the benchmark's core is running, to scale wall times by it.

On a shared host another tenant can slow a core by up to 2x for stretches
of a fraction of a second to many seconds, which moves a run's wall times
far more than the bounds allow. The monitor times a fixed loop of small
numpy and Python work every SAMPLE_PERIOD_S from a timer signal, and the
harness times it right before and after each timed interval. An interval's
scale factor is REF_LOOP_S over the mean loop time sampled in and around
it, so scaled times are proportional to wall time at a fixed core speed.
The loop is benchmark code and the same on every commit; it shares the
core's caches with the program, so a change to the program's memory
footprint can move it slightly.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
# Samples this close to an interval's ends count as taken at its ends.
EDGE_S = 0.001
# Back-to-back loop time on an idle core of an Intel Xeon (2 vCPU) VM with
# Python 3.11 and numpy 2.4. It fixes the unit of the scaled times, not their
# ratios; a loop woken by the timer runs slower than back-to-back, so scaled
# times read below wall times even on an idle core.
REF_LOOP_S = 65e-6

_VEC = np.arange(16.0)


def loop_time() -> float:
    """Seconds for a fixed loop of small numpy and Python work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(60):
        s += float(_VEC @ _VEC) + i
    return time.perf_counter() - t0


class Monitor:
    """Samples loop_time() on SIGALRM while active (a context manager)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, loop seconds)

    def sample(self, *_signal_args):
        """Time the loop now; also called right before and after each timed interval."""
        loop = loop_time()
        self.samples.append((time.perf_counter(), loop))  # one append: safe against the signal

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Idle-core seconds per wall second over [t0, t1], from the samples taken
        in it and right before and after it; 1.0 when there are none."""
        lo = bisect.bisect_left(self.samples, t0 - EDGE_S, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, t1 + EDGE_S, key=lambda s: s[0])
        loops = [loop for _, loop in self.samples[lo:hi]]
        if not loops:
            return 1.0
        return REF_LOOP_S * len(loops) / sum(loops)
