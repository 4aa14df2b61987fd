"""A fixed reference loop that measures how fast the machine runs Python now.

On a shared host the same job can take up to twice as long from one minute
to the next, because neighbours compete for the cores, caches and memory
bandwidth.  ``reference_loop`` does the same kinds of work as the library
(validated frozen dataclasses, float math, 17-digit formatting and joins)
but never calls it, so its time tracks the machine alone.  ``Sampler`` runs
it from a timer signal, inside jobs as well as between them, and a job's
time is scaled by ``REFERENCE_S / local_reference(...)``, the machine's
speed while that job ran.  Do not change this file: normalized figures of
two commits are comparable only when both runs used the same loop and
constants.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

# A typical time of reference_loop on the 2-core host the benchmark was written
# on, where it ranged from about 4.5 to 10 ms.  It only fixes the scale.
REFERENCE_S = 0.008
# A job is paired with the samples taken within this many seconds of it.
WINDOW_S = 1.0
# Seconds between samples.
EVERY_S = 0.2


@dataclass(frozen=True)
class _Vec:
    a: float
    b: float
    c: float

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            if not math.isfinite(v):
                raise ValueError("non-finite component")


def reference_loop() -> float:
    """Seconds taken by one pass of the fixed reference work."""
    t0 = time.perf_counter()
    rows = []
    for i in range(1000):
        v = _Vec(math.sin(i * 1e-3), math.cos(i * 1e-3), i * 0.5)
        w = _Vec(v.a * 2.0, v.b - v.c, v.a * v.b)
        rows.append(",".join(format(x, ".17g") for x in (w.a, w.b, w.c)))
    "\n".join(rows)
    return time.perf_counter() - t0


def local_reference(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean loop time of the (time stamp, seconds) samples taken within
    ``WINDOW_S`` of the interval [start, end], or of the 5 nearest samples
    when fewer than 3 fall inside.  The mean, not the median: the machine
    flips between a fast and a slow state, and a job's time is the sum of
    its time in each."""
    near = [r for t, r in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if len(near) < 3:
        near = [r for _, r in sorted(samples, key=lambda s: abs(s[0] - start))[:5]]
    return statistics.fmean(near)


class Sampler:
    """Runs ``reference_loop`` from a SIGALRM timer every ``EVERY_S`` seconds
    while the context is open.  ``samples`` holds (start time, loop seconds);
    ``stolen(t0, t1)`` is the time the samples that started in [t0, t1] took
    away from whatever ran then."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._spent: list[tuple[float, float]] = []  # (start, seconds in handler)

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, reference_loop()))
        self._spent.append((t0, time.perf_counter() - t0))

    def stolen(self, t0: float, t1: float) -> float:
        return sum(d for t, d in self._spent if t0 <= t <= t1)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
