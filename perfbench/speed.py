"""Machine speed, sampled while the benchmark runs, to put timings on one scale.

On a shared host the same work runs at speeds that differ by up to 1.6x from
one minute to the next (neighbouring load, not this process), which swamps
the differences the benchmark exists to show. Every 5 ms of process CPU
time a profiling signal runs one of two fixed snippets, alternately, and
records how long it took: a pure-Python loop, which tracks the interpreter's
speed, and a numpy pass over a 512 KiB array, which tracks memory speed.
The scoring stages follow the first and anchor coverage the second; their
geometric mean tracks both better than either. A time measured over an
interval is multiplied by ``factor``: the geometric mean, over the two
snippets, of the snippet's reference duration over its median duration in
that interval.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.005
MIN_SAMPLES = 5
# each snippet's duration at the reference speed: about its median on a
# 2-vCPU Intel Xeon VM in a quiet spell
PYTHON_REFERENCE_S = 22e-6
NUMPY_REFERENCE_S = 29e-6


def _python_snippet(_buffers) -> int:
    total = 0
    for i in range(300):
        total += i * i
    return total


def _numpy_snippet(buffers):
    np.add(buffers[0], 1.0, out=buffers[1])


class _Samples:
    def __init__(self, snippet, reference_s: float):
        self.snippet = snippet
        self.reference_s = reference_s
        self.times: list[float] = []  # when each sample was taken
        self.durations: list[float] = []

    def scale(self, start: float, end: float) -> float:
        """Reference over median duration, from the samples in the interval.

        Takes the last ``MIN_SAMPLES`` before ``end`` when the interval holds
        fewer.
        """
        hi = bisect.bisect_right(self.times, end)
        lo = min(bisect.bisect_left(self.times, start), max(0, hi - MIN_SAMPLES))
        if hi == lo:
            raise RuntimeError("no speed sample before the end of the interval")
        return self.reference_s / statistics.median(self.durations[lo:hi])


class SpeedProbe:
    """Samples both snippets from ``start`` until ``stop``."""

    def __init__(self):
        self._buffers = (np.ones(1 << 16), np.empty(1 << 16))
        self._samples = (
            _Samples(_python_snippet, PYTHON_REFERENCE_S),
            _Samples(_numpy_snippet, NUMPY_REFERENCE_S),
        )
        self._ticks = 0

    def _tick(self, signum, frame):
        samples = self._samples[self._ticks % len(self._samples)]
        self._ticks += 1
        samples.snippet(self._buffers)  # warm it, so the timed run measures speed, not caches
        start = time.perf_counter()
        samples.snippet(self._buffers)
        samples.times.append(start)
        samples.durations.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """What a time measured between ``start`` and ``end`` is multiplied by."""
        return math.prod(s.scale(start, end) for s in self._samples) ** (1 / len(self._samples))
