"""Wall time, and wall time scaled to a reference CPU speed.

The per-core speed of a shared machine drifts: on the shared 2-core VM
where this benchmark was written, a fixed pure-Python loop took between
12.5 and 24 ms in one-second windows of the same 20 s, and whole 20 s
runs of a workload differed by 45%.  Timing alone cannot tell such a
drift from a change in the program.  So every timed region also samples
the speed of the core it runs on: a timer signal interrupts the region
every INTERVAL seconds and times a short fixed loop (REFERENCE_LOOP),
which does not touch mirror_ring.  The region's reference time is its
wall time scaled by REFERENCE_S / (typical loop time), i.e. the wall
time on a core where that loop takes REFERENCE_S.  The typical loop time
is the mean of the middle three fifths of the samples, which drops the
samples that a page fault or a neighbour's burst caught.  The time spent
in the samples is taken out of the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.02  # seconds between speed samples inside a timed region
REFERENCE_LOOP = 2000  # iterations of the sample loop
REFERENCE_S = 150e-6  # sample loop time on the reference core


def sample_loop() -> float:
    """Seconds taken by the fixed reference loop, here and now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def typical(samples: list[float]) -> float:
    """Mean of the samples left after dropping the lowest and highest fifth."""
    ordered = sorted(samples)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class Timed:
    """Context manager timing one region, with speed samples inside it.

    After the block: `seconds` is the wall time minus the time spent
    sampling, `ref_seconds` the same scaled to the reference core.
    """

    def __init__(self, interrupt: bool = True):
        self.interrupt = interrupt  # False: sample only before and after
        self.samples: list[float] = []
        self._sampling = 0.0
        self.seconds = 0.0
        self.ref_seconds = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append(sample_loop())
        self._sampling += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        self._sampling = 0.0
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._start
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.seconds = wall - self._sampling
        self._sample()
        self.ref_seconds = self.seconds * REFERENCE_S / typical(self.samples)
        return False
