"""Correction of measured times for the drifting speed of a shared CPU.

On a machine whose cores are shared with other tenants, the speed of
pure-Python code drifts by up to 2x over a few seconds, which swamps the
differences the benchmark exists to show.  While a pass runs, a SIGALRM
handler runs a short fixed probe every ``INTERVAL_S``: stdlib-only work of
the kinds the engine spends its time on (composing permutation tuples of
240 points, Fraction arithmetic), independent of the engine's code.  A
timed interval is then reported as its wall time, minus the probes that ran
inside it, times ``REFERENCE_S`` over the median probe time around it: the
time it would have taken at the reference probe speed ("reference
seconds").  A faster or slower engine changes the interval and not the
probe, so it shows in full.  Each probe runs its work twice and times the
second run, so the cache state of the interrupted engine code does not
leak into the probe time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.04
# Probes up to this far before an interval's start and after its end count
# for it; the drift moves on a scale of seconds.
WINDOW_S = 0.1
# Probe time at which reference seconds equal wall seconds: the probe's
# uncontended time on the 2-core Xeon the benchmark was sized on.
REFERENCE_S = 0.0003

_P = tuple((i * 97) % 240 for i in range(240))
_Q = tuple((i * 53 + 11) % 240 for i in range(240))


def probe_work() -> None:
    p, seen = _P, set()
    for _ in range(20):
        p = tuple(p[i] for i in _Q)
        seen.add(p)
    a = Fraction(1, 3)
    for i in range(1, 40):
        a = a * Fraction(i, i + 1) + Fraction(1, 7)


class SpeedSampler:
    """Probe samples of one process, and the scaling of intervals by them."""

    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.probe_s: List[float] = []  # time of each probe's second run
        self._spent: List[float] = [0.0]  # probe seconds before probe i
        self._busy = False
        self._previous = None

    def probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe_work()
        warm = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.probe_s.append(end - warm)
        self._spent.append(self._spent[-1] + end - start)
        self._busy = False

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def net(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] minus the probes that ran inside it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = self._spent[last] - self._spent[first] if last > first else 0.0
        return end - start - inside

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second around [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi <= lo:
            first = bisect.bisect_left(self.starts, start)
            lo, hi = max(0, first - 1), min(len(self.starts), first + 1)
        return REFERENCE_S / statistics.median(self.probe_s[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of [start, end], the probes inside it excluded."""
        return self.net(start, end) * self.factor(start, end)
