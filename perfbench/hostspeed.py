"""Host speed, measured beside the workload, for scaling its timings.

On a VM whose physical cores are shared with other machines, the same
operation can take up to about twice as long while they are busy, and such
spells last from seconds to minutes, as long as a run or longer (see
NOTES.md).  So every
run also times a fixed calibration kernel, which calls no catring code:
between operations every `EVERY_S` seconds of the timed loop, and before
and after each set-up sample.  A timing is multiplied by `REF_S / (median
kernel time within WINDOW_S seconds of it)`, so it reads as it would on a
host where the kernel takes `REF_S`.  A change to catring moves the
timings and not the kernel, so it shows in full.  A change of host speed
moves both, and most of it cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

# A round figure near the kernel's median time on the VM described in
# NOTES.md, so that scaled timings there read close to raw ones.
REF_S = 0.010
EVERY_S = 0.5
WINDOW_S = 2.0

_KEYS = [((i * 7919) % 100003, i % 61) for i in range(24000)]
_INTS = [(3 ** (200 + i)) | 1 for i in range(48)]


def kernel() -> int:
    """Fixed pure-Python work of the kinds catring's hot paths do:
    interpreter arithmetic, dict updates keyed by tuples, and products of
    big integers."""
    s = 0
    for i in range(50000):
        s += i * i % 7
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    for a in _INTS:
        for b in _INTS:
            s += a * b % 1000003
    return s + len(counts)


class HostSpeed:
    """Kernel timings of one run, keyed by when they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.last = float("-inf")
        kernel()  # warm-up: first-call allocations are not host speed

    def sample(self, count: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(count):
            t0 = clock()
            kernel()
            t1 = clock()
            self.at.append(0.5 * (t0 + t1))
            self.seconds.append(t1 - t0)
            self.last = t1

    def maybe_sample(self) -> None:
        """One sample per EVERY_S seconds since the last one, so that a long
        operation is followed by as many as its span would have had."""
        due = int((time.perf_counter() - self.last) / EVERY_S)
        if due:
            self.sample(min(due, 4))

    def scale(self, t0: float, t1: float) -> float:
        """Factor that brings a timing of [t0, t1] to the reference host."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError(f"no host-speed sample within {WINDOW_S} s of [{t0}, {t1}]")
        return REF_S / statistics.median(self.seconds[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.seconds)
