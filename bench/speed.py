"""Scaling measured times to a fixed reference CPU speed.

On the shared virtual machine this benchmark was built on, the CPU ran in
a fast or a slow state for minutes at a time, about 1.35x apart, so ten
runs of one workload split into two clusters and their spread reflected
the machine, not the program.  ``SpeedProbe`` times a fixed pure-Python
loop every PROBE_EVERY_S between requests; a request's factor is
REFERENCE_LOOP_S over the loop's median time within WINDOW_S of the
request, so a duration times its factor is the time the same work would
take where the loop takes REFERENCE_LOOP_S (about its median on that
machine).  The loop does not run the program: a change to the program
moves scaled times as much as wall-clock ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

REFERENCE_LOOP_S = 0.004
PROBE_EVERY_S = 0.25
WINDOW_S = 1.0


def reference_loop() -> float:
    """Seconds taken by a fixed mix of tuple, set, dict and generator work."""
    start = perf_counter()
    seen = {}
    for i in range(600):
        vec = tuple((i * k) % 5 for k in range(10))
        top = tuple(min(4, a + 1) for a in vec)
        seen[vec] = all(a <= b for a, b in zip(vec, top)) and len(frozenset(vec) & {1, 3})
    return perf_counter() - start


class SpeedProbe:
    """Times of the reference loop, sampled through a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []
        reference_loop()  # the first run in a process is slower
        self.sample()

    def sample(self) -> None:
        loop = reference_loop()
        self.times.append(perf_counter())
        self.loops.append(loop)

    def tick(self) -> None:
        """Sample if the last sample is more than PROBE_EVERY_S old."""
        if perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factors(self, spans: list[tuple[float, float]]) -> list[float]:
        """Reference seconds per measured second for each (start, duration)."""
        out = []
        for start, duration in spans:
            lo = bisect_left(self.times, start - WINDOW_S)
            hi = bisect_right(self.times, start + duration + WINDOW_S)
            if hi == lo:  # no sample in the window: take the nearest one
                lo = min(lo, len(self.times) - 1)
                hi = lo + 1
            out.append(REFERENCE_LOOP_S / median(self.loops[lo:hi]))
        return out
