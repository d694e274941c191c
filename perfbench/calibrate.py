"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host.  Each CPU slows by up
to ~2x, by a different amount, as neighbours load the shared caches, and
flips between fast and slow within a tenth of a second; CPU time slows with
the wall clock, so no statistic taken over one run removes the drift.  So
run.py pins itself and its set-up probes to one CPU, and while it measures
a timer signal runs a fixed kernel (this file's code only, independent of
quatbox) every SAMPLE_EVERY_S seconds, inside requests as well as between
them, with the garbage collector off.  Time spent in the kernel is taken
out of the latencies (`Calibrator.clock`).  The kernel is pure-Python
object arithmetic plus a walk over objects that do not fit in L2: the two
slow down by different amounts in a slow spell, and their sum tracks the
workloads' own slow-down more closely than either part alone.

Each latency is then scaled by REFERENCE_S over the mean kernel time of the
samples taken while it ran (at least the WINDOW nearest): it reads as the
latency on a machine where the kernel takes REFERENCE_S.  A change to
quatbox moves the request times and not the kernel, so it moves the
calibrated times alike.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

#: kernel time the calibrated timings are scaled to: about its time in the
#: quiet spells of the 2-vCPU Intel Xeon host the benchmark was defined on
REFERENCE_S = 2.5e-3
#: wall time between kernel samples
SAMPLE_EVERY_S = 0.02
#: fewest kernel samples that set a latency's scale; a request shorter than
#: WINDOW samples takes the ones nearest to it
WINDOW = 5


class _Q:
    """A slotted four-float value with a product, like scalar quaternion code."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o):
        return _Q(self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
                  self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
                  self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
                  self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a)


#: ~7 MB of int objects and the list that holds them, walked by the kernel
_SPREAD = list(range(200_000))


def kernel() -> tuple[dict, int]:
    """A few milliseconds of interpreter work: products, attributes, a dict, a walk."""
    x, y = _Q(0.5, 0.5, 0.5, 0.5), _Q(0.9, 0.1, -0.3, 0.2)
    seen = {}
    for i in range(1500):
        x = x * y
        seen[i & 63] = (x.a, i)
        if abs(x.a) > 10.0:
            x = _Q(0.5, 0.5, 0.5, 0.5)
    total = 0
    for v in _SPREAD[::16]:
        total += v
    return seen, total


class Calibrator:
    """Kernel samples over a run, and the scale they give to any interval."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each sample's midpoint
        self.took: list[float] = []
        self.stolen = 0.0  # seconds spent in samples so far
        self._busy = False
        for _ in range(WINDOW):  # so that the first requests have WINDOW samples
            self.sample()

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.stolen += t1 - t0

    def clock(self) -> float:
        """perf_counter without the time spent in samples."""
        return time.perf_counter() - self.stolen

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_EVERY_S seconds of wall time, from a timer signal."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples within [start, end].

        When fewer than WINDOW samples fall within it, the interval grows
        towards whichever sample outside it is nearer until WINDOW do.
        """
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        while hi - lo < min(WINDOW, len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
