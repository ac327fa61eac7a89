"""Host-speed reference: scales measured times to a host of fixed speed.

On a shared host the speed of one process drifts by 20% or more within
seconds, as other tenants come and go.  A fixed reference kernel, timed in
short samples interleaved with the program's work, slows down and speeds up
with the program.  On a 2-vCPU Xeon VM, 124 repeats of ``verify_all(d12)``
spread 19% (IQR over median) as measured and 3% once scaled.

An op is cut into segments at the samples taken inside it.  Each segment's
time is multiplied by ``REF_S`` over the median of the 3 samples nearest
its end, which gives the time the segment would take on a host where the
kernel takes ``REF_S``.  A program that gets faster keeps its ratio to the
unchanged kernel, so its scaled time falls with it.

``arm()`` starts an interval timer whose SIGALRM handler takes one sample
every ``INTERVAL_S``, so an op that runs for seconds is sampled all through.
The samples' own time is left out of the op they interrupt.  While a child
process runs, the parent samples alongside it on the other CPU.  The
garbage collector is off during a sample, so that collecting the program's
objects is never charged to the kernel.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_TERMS = 150
# About the kernel's time on the baseline host, a 2-vCPU Xeon VM, at its
# fastest: scaled times read as seconds on a host that fast.  A constant,
# never measured per run.
REF_S = 3.0e-4
INTERVAL_S = 0.012
NEAREST = 3


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, REF_TERMS):
        s += Fraction(1, i)
    return s


class Speedometer:
    """Reference samples as (start, end, duration) in perf_counter time, in start order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._old_handler = None

    def _take(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self._take()
            finally:
                self._busy = False

    def arm(self):
        """Sample now and every INTERVAL_S from now on."""
        self._take()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self):
        """Stop the timer and take a last sample, after the last op."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        self._take()

    def factor(self, j) -> float:
        """REF_S over the median of the NEAREST samples around sample index j."""
        n = len(self.durations)
        if n == 0:
            raise RuntimeError("no reference samples were taken")
        lo = max(0, min(j - NEAREST // 2, n - NEAREST))
        return REF_S / statistics.median(self.durations[lo:lo + NEAREST])

    def scaled(self, t0, t1, concurrent=False) -> float:
        """The time of [t0, t1) at reference speed.

        The samples taken inside it are left out, unless they ran
        concurrently with the work, as they do while a child process runs.
        """
        total, start = 0.0, t0
        j = bisect.bisect_left(self.starts, t0)
        while j < len(self.starts) and self.starts[j] < t1:
            total += (self.starts[j] - start) * self.factor(j)
            start = self.starts[j] if concurrent else self.ends[j]
            j += 1
        return total + (t1 - start) * self.factor(j)
