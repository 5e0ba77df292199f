"""Machine-speed reference for scaling the benchmark's times.

The shared machine the benchmark was set up on runs in two speeds and
switches between them about once a second. A fixed kernel timed once a
second read either about 4.8 ms or about 7.8 ms, and a `plan_wide`
planner call took 28 ms in some minutes and 49 ms in others. Process
CPU time slowed with wall time, so the slow state is slower execution,
not stolen time. The share of a run spent in the slow state varies from
run to run. With raw times, ten runs of ``train_chain5`` gave spreads of
0.4 to 0.5, which swamps the changes the benchmark exists to detect.

So a short fixed kernel that does not use ``smcplan`` is timed once per
``PERIOD_S`` while a run measures. That gives about a hundred samples
over a run. The kernel mixes the kinds of work the workloads do:
small-array numpy calls under Python control, scipy ``logsumexp`` on
short vectors, a 1024-element sort, and compiling Python source. Its mean
time over the run measures the run's average slowdown. Every reported
time is multiplied by ``NOMINAL_S`` ÷ that mean, so it reads as if the
machine ran the kernel in ``NOMINAL_S`` throughout. A change to
``smcplan`` cannot change the kernel.

``now()`` leaves the time spent timing the kernel out, so a sample taken
inside a measured interval does not lengthen it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.special import logsumexp

NOMINAL_S = 3e-3
PERIOD_S = 0.2

_SMALL = np.arange(16.0)
_BIG = np.linspace(0.0, 1.0, 1024)
_PAIR = np.array([0.25, 0.75])
_SOURCE = "\n".join(
    f"def f{i}(a, b={i}):\n    x = [a * j + b for j in range(10)]\n    return sum(x) / len(x)\n"
    for i in range(20)
)


def _kernel() -> float:
    acc = 0.0
    for i in range(25):
        acc += float(np.exp(_SMALL * (1e-3 * i)).sum()) + math.sqrt(i)
    for i in range(4):
        acc += float(logsumexp(_PAIR * i))
    for i in range(4):
        acc += float(np.cumsum(np.sort(_BIG * i)).sum())
    compile(_SOURCE, "<reference>", "exec")
    return acc


class Reference:
    """Kernel timings taken during one run, on a clock that leaves them out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = -math.inf

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, force: bool = False):
        """Time the kernel once, at most once per ``PERIOD_S`` unless forced."""
        start = time.perf_counter()
        if not force and start - self._last < PERIOD_S:
            return
        _kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's seconds into nominal seconds."""
        return NOMINAL_S / self.mean_s()


class Unscaled:
    """The plain wall clock, for runs that report no times."""

    now = staticmethod(time.perf_counter)

    def sample(self, force: bool = False):
        pass

    def scale(self) -> float:
        return 1.0
