"""Fixed reference work that measures how fast the host runs right now.

The sandbox's speed drifts while the code under test stays the same: the
reference loop below took anywhere from 11 to 26 ms (as a 1024-iteration
loop) within one run, switching between levels every second or two.  Every
timed op is therefore also expressed in *drift-corrected* milliseconds:
wall time x R0_MS / r, where r is the mean time of this loop in samples
taken around and during the op (``HostClock``).  Sampling during an op
matters for ops of a few seconds, which span several such switches.

The loop is bounded-size ``Fraction`` arithmetic, the same kind of work the
exact solver does, and it imports nothing from ctxcheck, so a change to the
program cannot move it.  Do not edit the loop or R0_MS: together they
define the unit that every corrected number of every later run is in.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# Typical loop time on the 2-vCPU sandbox where the benchmark was defined,
# so corrected numbers stay close to the raw ones there.
R0_MS = 5.5

_TERMS = tuple(Fraction(3 * i + 1, 7 * i + 2) for i in range(64))


def _loop() -> int:
    check = 0
    for a in _TERMS:
        for b in _TERMS[::16]:
            x = a * b - b / a + (a - b) * (a + b)
            check ^= x.denominator & 0xFF
    return check


# The result of one loop, fixed by the arithmetic; a different value means
# the loop did not do its work.
_EXPECTED = _loop()


def reference_ms() -> float:
    """Wall milliseconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    check = _loop()
    elapsed = (time.perf_counter() - t0) * 1e3
    if check != _EXPECTED:
        raise RuntimeError("reference loop produced a wrong result")
    return elapsed


class HostClock:
    """Program time, with the reference loop sampled every ``period_s``.

    Inside ``sampling()`` a SIGALRM handler runs the reference loop every
    ``period_s`` of wall time, on the benchmark's only thread, between two
    bytecodes of whatever is running.  ``now()`` is wall time minus the time
    spent in those samples, so sampling never counts as program time.
    """

    def __init__(self, period_s: float = 0.2) -> None:
        self.period_s = period_s
        self.stolen = 0.0
        self.times: list[float] = []
        self.loop_ms: list[float] = []

    def now(self) -> float:
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:  # no sample ran in between
                return t - stolen

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        ms = reference_ms()
        self.times.append(t0 - self.stolen)
        self.loop_ms.append(ms)
        self.stolen += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def factor(self, start: float, end: float) -> float:
        """R0 / mean loop time of the samples within one period of [start, end]."""
        lo = bisect.bisect_left(self.times, start - self.period_s)
        hi = bisect.bisect_right(self.times, end + self.period_s)
        if lo == hi:  # a late sample left a gap: use its neighbours
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return R0_MS / statistics.fmean(self.loop_ms[lo:hi])
