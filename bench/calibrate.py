"""Host speed, measured with fixed kernels between ops.

On a shared host the same op can run 20-40 % slower for tens of seconds
while other tenants load the physical cores; the process's CPU time grows
with its wall time, so the loss is the core's speed, not scheduling.  A run
of one workload lasts about as long as one such phase, so raw per-run
timings spread with the host rather than with the program.

``Calibrator.sample`` times five small kernels that never touch hypofp: a
pure-Python loop, element-wise numpy on arrays far larger than L2, on
arrays that fit in L2, many calls on tiny arrays, and first writes to a
fresh anonymous mapping (page faults on huge pages, as numpy asks for
large arrays).  None calls BLAS or uses the heap, so neither the program's
thread settings nor its allocations can move them.  The host speed factor is the geometric mean of each kernel's time
over its reference time in ``REFERENCE_S``; a factor of 1.2 means the host
ran 20 % slower than when the references were taken.  ``scale`` divides an
op's wall time by the median factor of the samples taken nearest to it,
which gives the op's time at reference speed.
"""

from __future__ import annotations

import bisect
import math
import mmap
import statistics
import time

import numpy as np

# Median kernel times (s) on a 2-vCPU "Intel Xeon Processor" VM, one BLAS
# thread, Python 3 / numpy 2.  Only ratios to these matter.
REFERENCE_S = {"python": 3.46e-3, "large": 6.0e-3, "medium": 1.63e-3, "tiny": 1.77e-3,
               "faults": 6.8e-3}
FAULT_BYTES = 8 << 20
NEAREST = 5  # samples whose median factor scales an op
INTERVAL_S = 0.25  # at most one sample per this much op time


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.large = rng.standard_normal((3, 1 << 18))
        self.large_tmp = np.empty_like(self.large)
        self.large_out = np.empty(1 << 18)
        self.medium = rng.standard_normal((256, 256))
        self.medium_tmp = np.empty_like(self.medium)
        self.tiny = rng.standard_normal(6)
        self.tiny_out = np.empty(6)
        self.times: list[float] = []  # perf_counter at each sample
        self.factors: list[float] = []
        self.last = -math.inf

    # -- kernels -------------------------------------------------------------

    def _python(self):
        s = 0.0
        for i in range(30000):
            s += (i * i) % 7 * 0.5
        return s

    def _large(self):
        for _ in range(2):
            np.multiply(self.large, self.large, out=self.large_tmp)
            np.sum(self.large_tmp, axis=0, out=self.large_out)
            np.multiply(self.large_out, -0.5, out=self.large_out)
            np.exp(self.large_out, out=self.large_out)

    def _medium(self):
        for _ in range(12):
            np.multiply(self.medium, 0.5, out=self.medium_tmp)
            np.add(self.medium_tmp, self.medium, out=self.medium_tmp)
            np.sqrt(np.abs(self.medium_tmp, out=self.medium_tmp), out=self.medium_tmp)

    def _tiny(self):
        for _ in range(1000):
            np.multiply(self.tiny, 1.0001, out=self.tiny_out)
            np.add(self.tiny_out, self.tiny, out=self.tiny_out)

    def _faults(self):
        buf = mmap.mmap(-1, FAULT_BYTES)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            buf.madvise(mmap.MADV_HUGEPAGE)
        view = np.frombuffer(buf, dtype=np.float64)
        view[:] = 1.0
        del view
        buf.close()

    KERNELS = {"python": _python, "large": _large, "medium": _medium, "tiny": _tiny,
               "faults": _faults}

    def kernel_times(self) -> dict:
        times = {}
        for name, kernel in self.KERNELS.items():
            t0 = time.perf_counter()
            kernel(self)
            times[name] = time.perf_counter() - t0
        return times

    # -- sampling ------------------------------------------------------------

    def sample(self) -> float:
        """Time the kernels once and record the host speed factor."""
        times = self.kernel_times()
        logs = [math.log(times[k] / REFERENCE_S[k]) for k in REFERENCE_S]
        factor = math.exp(sum(logs) / len(logs))
        self.last = time.perf_counter()
        self.times.append(self.last)
        self.factors.append(factor)
        return factor

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor_at(self, t: float) -> float:
        """Median factor of the NEAREST samples closest in time to ``t``."""
        if not self.factors:
            return 1.0
        j = bisect.bisect_left(self.times, t)
        lo, hi = j, j
        while hi - lo < min(NEAREST, len(self.times)):
            if lo > 0 and (hi >= len(self.times) or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.factors[lo:hi])

    def scale(self, seconds: float, at: float) -> float:
        """``seconds`` measured around perf_counter ``at``, at reference speed."""
        return seconds / self.factor_at(at)
