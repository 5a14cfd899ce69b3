"""Times scaled to a reference speed of the host.

The host this benchmark was built on is shared with other machines: from
one second to the next its CPUs run the same Python code at speeds up to
two times apart, and the mix drifts over minutes.  Raw times of runs made
minutes apart therefore differ by far more than any code change worth
measuring.

`Meter.measure` times a region and also times a fixed loop of Python
(`calibrate`) just before and just after it, and every `SAMPLE_INTERVAL`
seconds inside it from a timer signal.  The region's time, less the time
spent in those samples, is scaled by `REFERENCE_S` over the mean loop
time.  The result is the region's time on a host that runs the loop in
`REFERENCE_S`, about the speed of this host when it runs alone.  Both the
loop and the program are plain CPython, so contention slows them alike,
while a change to the program does not touch the loop.  The loop walks a
table of a few megabytes at random, so that it feels contention for the
caches as the program does: a loop confined to a few kilobytes tracked
the program's speed to within 4 % over 15 s windows, this one to 1.5 %.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.0015
LOOP_ITERATIONS = 1200
TABLE_BITS = 15
SAMPLE_INTERVAL = 0.05


def make_table() -> list:
    return [(i, -i) for i in range(1 << TABLE_BITS)]


def calibrate(table: list) -> float:
    """Seconds one fixed loop of tuple arithmetic and dict stores takes,
    reading `make_table()` in a pseudo-random order."""
    t0 = perf_counter()
    acc = (0, 0, 0)
    seen = {}
    j = 1
    for i in range(LOOP_ITERATIONS):
        a, b = table[j]
        j = (j * 1103515245 + 12345) & ((1 << TABLE_BITS) - 1)
        acc = tuple(x + y for x, y in zip(acc, (a, 1, b)))
        seen[i & 63] = acc
    return perf_counter() - t0


class Meter:
    """Measures regions in reference seconds; one region at a time."""

    def __init__(self) -> None:
        self._table = make_table()
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._samples.append(calibrate(self._table))
        self._spent += perf_counter() - t0

    def measure(self, fn, sample_inside: bool = True):
        """Run fn(); return (raw seconds, reference seconds, its result).

        With `sample_inside` false the loop is timed only before and after
        fn, so that nothing runs inside it (the traced pass needs this)."""
        self._samples = [calibrate(self._table)]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            t0 = perf_counter()
            result = fn()
            elapsed = perf_counter() - t0
            spent = self._spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(calibrate(self._table))
        raw = elapsed - spent
        return raw, raw * REFERENCE_S / statistics.fmean(self._samples), result
