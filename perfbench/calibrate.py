"""Host-speed calibration: a fixed reference kernel timed during the work.

The speed of a shared host drifts, by up to about a quarter over tens of
seconds and by more in flips of a fraction of a second, and the drift slows
every process on it alike.  A run therefore times a fixed kernel of numpy and
interpreted Python work many times while it measures, and scales its measured
times by REFERENCE_S over the median kernel time, which a short burst of
load on the host does not move.  The result is seconds at a fixed reference
speed.  The kernel never calls into hrvaffect, so a change to
the program moves the scaled time by the same share as the raw time.

During the stage calls the kernel runs from a SIGALRM handler every
INTERVAL_S (``Sampler``), so that its samples are spread over the stages as
evenly as the host's drift; the time spent in the handler is taken out of the
stage times.  Around set-ups it runs back to back (``sample``).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the kernel's median time on the 2-CPU VM the bounds were set on.
# Fixed, so that scaled times stay comparable between commits.
REFERENCE_S = 0.005
REPS = 7
INTERVAL_S = 0.15

# The kernel works in these buffers only: it allocates no arrays, so the state
# of the allocator that the program leaves behind does not change its time.
_RNG = np.random.default_rng(12345)
_DATA = _RNG.standard_normal(131_072)
_BUF = np.empty_like(_DATA)
_SCAN = np.empty_like(_DATA)
_MASK = np.empty(_DATA.shape, dtype=bool)
_A = _RNG.standard_normal((128, 128))
_B = np.empty_like(_A)


def _kernel() -> float:
    """The pipeline's kinds of work, mostly numpy: sorting, scans, masks and
    a small matrix product, then an interpreted loop over a dict."""
    total = 0.0
    for _ in range(2):
        np.copyto(_BUF, _DATA)
        _BUF.sort()
        np.cumsum(_BUF, out=_SCAN)
        np.greater(_BUF, 0.1, out=_MASK)
        np.matmul(_A, _A, out=_B)
        total += float(np.sum(_SCAN, where=_MASK)) + float(_B[0, 0])
    table: dict[int, float] = {}
    for i in range(8000):
        total += (i * 7) % 13
        table[i % 97] = total
    return total + len(table)


def sample() -> float:
    """The kernel's time now: the median of REPS back-to-back runs, so one
    preempted run does not count."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the kernel every INTERVAL_S while active (a context manager).

    ``samples`` holds the kernel times and ``spent_s`` the time spent in the
    handler, which a caller subtracts from the times it measures.  Python runs
    the handler between bytecodes of the main thread, so a long call into C
    delays a sample but is not cut short.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the kernel took ``samples``, as seconds at
    the reference speed."""
    return seconds * REFERENCE_S / statistics.median(samples)
