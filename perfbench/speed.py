"""Speed index of the core the benchmark runs on, sampled throughout a run.

Other tenants of a shared machine slow its cores by up to 40%, switching
every few milliseconds, and how much of the time a core runs slow changes
over tens of seconds.  CPU time slows as much as wall time, so the same job
list can read 27% slower in one run than in the next.  A `Sampler` runs a
fixed probe, independent of frobpair, every `interval` seconds from a
SIGALRM timer, between the bytecodes of whatever is running, jobs included.
(A CPU-time timer, ITIMER_PROF, was tried first: while it was armed,
`time.process_time` did not advance across a 2 ms probe on the tuning
machine.)  The mean probe time around a stretch of work, against `REF_S`, is how slow
the core ran during it; run.py divides each job's time by it.  Samples next
to a short job predict its speed about twice as well as the mean of its
whole pass.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, process_time

#: CPU seconds of one probe at the reference speed: about its median time on
#: the machine the benchmark was tuned on (2 vCPUs of a shared 2.0 GHz Xeon)
REF_S = 0.0005


def probe():
    """A fixed mix of the work frobpair does: Fraction arithmetic, dict
    updates and a sort."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(80):
        k = (i * 7919) % 257
        v = acc.get(k, 0) + x * (i % 11 + 1)
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return sorted(acc.items())[0]


class Sampler:
    """Probe times, and the `perf_counter` time each was taken, every
    `interval` seconds while active.

    `spent` is the CPU time spent in the handler, which a caller subtracts
    from the CPU time of the work it timed.
    """

    def __init__(self, interval):
        self.interval = interval
        self.times = []
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = process_time()
        probe()
        t1 = process_time()
        self.times.append(perf_counter())
        self.samples.append(t1 - t0)
        self.spent += process_time() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start=-math.inf, end=math.inf, least=10) -> float:
        """Mean probe time over REF_S of the samples taken between the
        `perf_counter` times start and end, widened to the `least` nearest
        samples when fewer fall inside."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        while hi - lo < least and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            raise RuntimeError("no speed samples in the timed stretch")
        return sum(self.samples[lo:hi]) / (hi - lo) / REF_S
