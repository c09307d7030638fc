"""A fixed reference task that measures how fast the machine runs right now.

The task uses no ``nihocodes`` code.  It has three parts, one for each kind
of work the library does: interpreted loops over small tuples and dicts,
exact rational arithmetic on big integers, and vectorised numpy compares.

Shared machines change speed by tens of percent over seconds to minutes, for
reasons outside the process.  The benchmark runs the probe after every call
and divides the call's wall time by ``Probe.speed()``, the probe's time over
its ``NOMINAL`` time, so that its times read as seconds on a machine running
at the nominal speed.  ``NOMINAL`` is fixed: it is the probe's median on a
2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL = {"loops": 2.82e-3, "rationals": 2.78e-3, "vector": 2.42e-3}


def _loops() -> int:
    table = {(i, i ^ 5): i for i in range(64)}
    total = 0
    for i in range(3500):
        key = (i & 63, (i & 63) ^ 5)
        total += table.get(key, 0) + len(tuple(a ^ b for a, b in zip(key, key)))
    return total


def _rationals() -> Fraction:
    acc = Fraction(0)
    base = 1023**40
    for j in range(1, 400):
        acc += Fraction(base * j, (j + 1) * 1024**3) ** 2
    return acc


class Probe:
    def __init__(self):
        import numpy as np

        self._array = (np.arange(1 << 17, dtype=np.int64) * 2654435761 % 251).astype(np.uint8)
        self.parts = (("loops", _loops), ("rationals", _rationals), ("vector", self._vector))
        self.times()  # warm-up

    def _vector(self) -> int:
        hits = 0
        for shift in range(32):
            hits += int(((self._array ^ shift) == 0).sum())
        return hits

    def times(self) -> dict[str, float]:
        """Seconds per part, with the garbage collector paused so that a
        collection of the caller's objects is not charged to the probe."""
        out = {}
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, fn in self.parts:
                started = time.perf_counter()
                fn()
                out[name] = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        return out

    def speed(self) -> float:
        """The probe's time relative to NOMINAL, averaged over its parts;
        above 1 means the machine runs slower than nominal now."""
        times = self.times()
        return statistics.fmean(times[name] / NOMINAL[name] for name in times)


def smooth(speeds: list[float]) -> list[float]:
    """Median of each speed and its two neighbours on either side."""
    return [statistics.median(speeds[max(0, i - 2):i + 3]) for i in range(len(speeds))]
