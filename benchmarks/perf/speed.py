"""A benchmark clock that reads seconds at the machine's reference speed.

On a shared virtual machine the speed of one core changes by up to 2x
for seconds to minutes at a time, because of other tenants: a pass of a
workload replayed on identical state takes anywhere between 0.9x and
1.8x its usual time.  No statistic over a 20 s run removes a slowdown
that lasts minutes.

So the benchmark samples the speed while it measures.  Between the
operations it times (never inside one), at most every
:data:`SAMPLE_INTERVAL` seconds, it times a fixed reference loop.  The
current *scale* is :data:`REFERENCE_LOOP_SECONDS` over the loop's mean
time in the last :data:`WINDOW` samples, and the clock advances by the
elapsed wall time multiplied by the current scale: every duration read
from it is in seconds at the reference speed.  The clock stands still
while the loop runs, so no timing includes it.  The loop is the
benchmark's own code, so a change to the program cannot change its
work; it runs with the garbage collector off, so the program's garbage is
never collected on its time.
"""

from __future__ import annotations

import gc
import time
from collections import deque

#: iterations of the reference loop in one sample
LOOP_ITERATIONS = 500
#: seconds one sample of the reference loop takes at the reference speed:
#: its typical time on a 2-vCPU Intel Xeon VM under CPython 3.11 while
#: the core is not shared (when it is, the loop takes about 0.25 ms)
REFERENCE_LOOP_SECONDS = 0.00013
#: least wall seconds between two samples
SAMPLE_INTERVAL = 0.025
#: samples the scale is averaged over (about 0.4 s of measured work)
WINDOW = 16

_MEMBERS = frozenset(range(0, 97, 3))


def reference_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """A fixed mix of interpreter work like the program's own: integer
    arithmetic, ``str`` conversion, dict updates and set lookups.

    Of the loops tried, loops of this kind tracked the workloads' speed
    better than pure integer arithmetic.  It allocates no object the
    garbage collector tracks, apart from one dict, so sampling does not
    move the program's collections.
    """
    counts: dict = {}
    total = 0
    for step in range(iterations):
        key = step % 97
        counts[key] = counts.get(key, 0) + step
        total += len(str(step)) + (key in _MEMBERS)
    return total


class WorkClock:
    """A monotonic clock in seconds at the reference speed.

    Calling the clock reads it.  :meth:`sample` times the reference loop
    if at least :data:`SAMPLE_INTERVAL` seconds have passed since the last
    sample; :meth:`refill` replaces the whole window with fresh samples,
    for the start of a measured stretch.
    """

    def __init__(self):
        self._recent: deque = deque(maxlen=WINDOW)
        self._scale = 1.0
        self._reading = 0.0
        self._wall = time.perf_counter()
        self._last_sample = float("-inf")

    def __call__(self) -> float:
        now = time.perf_counter()
        self._reading += (now - self._wall) * self._scale
        self._wall = now
        return self._reading

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_sample < SAMPLE_INTERVAL:
            return
        self()  # advance the reading to now at the old scale
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        self._recent.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self._scale = REFERENCE_LOOP_SECONDS * len(self._recent) / sum(self._recent)
        self._wall = self._last_sample = time.perf_counter()  # the sample is not counted

    def refill(self) -> None:
        """Fill the whole window with samples taken now."""
        for _ in range(WINDOW):
            self.sample(force=True)
