"""Speed-normalised timing, for steady numbers on a host whose speed drifts.

On a shared machine the same pass can take 7 s or 11 s, because the CPU
itself runs slower for stretches of seconds to minutes; CPU time inflates
with wall time, so neither clock helps.  This module measures that speed
from inside the measured process: a timer signal interrupts it every
``interval`` seconds and runs a fixed calibration kernel (exact Fraction
arithmetic, the kind of work ribbonkit's field layer does), recording how
long the kernel took.

* ``clock()`` is program time: wall time minus the time spent in the
  handler, so the kernel never counts against the program.
* ``normalise(start, end, seconds)`` scales a program-time duration to the
  reference speed, at which the kernel takes ``REFERENCE_S``.  The work done
  over an interval is its duration times the mean speed over it, and speed
  at a sample is ``REFERENCE_S / kernel time``.  Samples are taken from the
  interval widened to at least ``WINDOW_S``, so short requests use the
  speed measured around them.

A program change that does more or less work moves the normalised time
in proportion, as it moves wall time; the kernel is independent of
ribbonkit.  Wall times are recorded next to the normalised ones.
"""

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.0007
WINDOW_S = 0.5


def kernel() -> Fraction:
    third, total = Fraction(1, 3), Fraction(0)
    for i in range(300):
        total += third * i
    return total


class SpeedSampler:
    def __init__(self, interval: float):
        self.interval = interval
        self.times = array("d")
        self.durations = array("d")
        self.in_handler = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.in_handler += t1 - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def set_interval(self, interval: float) -> None:
        self.interval = interval
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.in_handler

    def speed(self, start: float, end: float) -> float:
        """Mean speed over wall interval [start, end], 1 at the reference."""
        if not self.times:
            self.sample()
        pad = max(0.0, (WINDOW_S - (end - start)) / 2)
        lo = bisect_left(self.times, start - pad)
        hi = bisect_right(self.times, end + pad)
        if lo == hi:
            # no sample near the interval: take the closest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        window = self.durations[lo:hi]
        return sum(REFERENCE_S / d for d in window) / len(window)

    def normalise(self, start: float, end: float, seconds: float) -> float:
        return seconds * self.speed(start, end)
