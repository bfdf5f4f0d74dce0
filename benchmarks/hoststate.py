"""Host-speed sentinel: which stretches of an iteration ran on a fast host.

On the 2-core shared host the README's figures come from (an Intel Xeon
virtual machine), the program slows by up to a factor of two, for stretches
of a few milliseconds to many seconds, through contention from outside the
machine (CPU time tracks wall time and the other CPU is idle, so this is
not preemption). A median over a whole run then measures the share of time
the host spent slow as much as it measures the program.

``Sentinel`` (in the iteration's process) fires ``SIGALRM`` every
``PERIOD_S`` and times a fixed pure-Python kernel in the handler: a
host-speed sample every 10 ms, with no hook in the program. The runner pools
a run's samples, takes their ``REFERENCE_QUANTILE`` as the fast host's
time, and keeps a stretch between two consecutive samples when both are
within ``FAST_FACTOR`` of it. Timed calls count only inside kept stretches;
a call that a sample interrupted straddles a stretch boundary and is
dropped, so the handler never inflates a latency.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.01
REFERENCE_QUANTILE = 0.5   # percent
FAST_FACTOR = 1.15


def _kernel() -> int:
    s = 0
    for i in range(400):
        s += i * i & 255
    return s


class Sentinel:
    """Samples host speed every PERIOD_S while active (``with`` block)."""

    def __init__(self):
        self.start = array("q")
        self.dur = array("q")

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter_ns
        t = clock()
        _kernel()
        self.start.append(t)
        self.dur.append(clock() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_ns(durations: list[np.ndarray]) -> float:
    """The fast host's sentinel time over every iteration of a run."""
    pooled = np.concatenate(durations)
    return float(np.percentile(pooled, REFERENCE_QUANTILE)) if pooled.size else float("inf")


def fast_stretches(start: np.ndarray, dur: np.ndarray, ref_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi) of each stretch between two consecutive fast samples."""
    fast = dur <= FAST_FACTOR * ref_ns
    both = fast[:-1] & fast[1:]
    return (start + dur)[:-1][both], start[1:][both]


def inside(lo: np.ndarray, hi: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Mask of the intervals [t0, t1] that lie wholly inside one stretch."""
    if lo.size == 0:
        return np.zeros(np.shape(t0), dtype=bool)
    k = np.searchsorted(lo, t0, side="right") - 1
    return (k >= 0) & (t1 <= hi[np.maximum(k, 0)])
