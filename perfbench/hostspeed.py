"""Host speed, measured with a fixed piece of pure-Python work between items.

On a shared virtual machine the same computation can take twice as long for
tens of seconds when neighbouring tenants are busy, and the slowdown hits this
calibration kernel and kmfan alike.  Over nine 20-second windows of the
roundtrip workload on a 2-vCPU host, raw throughput ranged from 1.67 to 2.47
items/s and the corrected throughput from 2.94 to 3.11.  The benchmark divides each item's time by the host speed
measured next to it, so its timings read as on a host where the kernel takes
REFERENCE_S.  Raw times are printed beside the corrected ones.

The kernel does what kmfan does most: fraction-free integer elimination on
small tuples, dict updates and short-lived objects.  It must never change;
a change would rescale every corrected timing.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: typical kernel time on a 2 GHz Xeon vCPU with Python 3.11; only sets the
#: scale of corrected timings
REFERENCE_S = 0.006
#: item time between two kernel samples
EVERY_S = 0.25

_MATRIX = tuple(tuple((7 * i + 3 * j * j + 1) % 11 - 5 for j in range(7)) for i in range(9))


def kernel():
    counts = {}
    for rep in range(100):
        a = [list(r) for r in _MATRIX]
        rank, prev = 0, 1
        for j in range(7):
            piv = next((i for i in range(rank, 9) if a[i][j]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            p = a[rank][j]
            for i in range(rank + 1, 9):
                q = a[i][j]
                a[i] = [(p * x - q * y) // prev for x, y in zip(a[i], a[rank])]
            prev = p
            rank += 1
        for row in a:
            key = tuple(x % 7 for x in row)
            counts[key] = counts.get(key, 0) + rep
    return counts


class HostSpeed:
    """Kernel samples taken between items, and the per-item correction."""

    def __init__(self):
        self.times = []     # when each sample was taken
        self.samples = []   # kernel seconds
        self._since = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(t1 - t0)

    def after_item(self, seconds):
        self._since += seconds
        if self._since >= EVERY_S:
            self._since = 0.0
            self.sample()

    def factor_at(self, t):
        """Slowdown against the reference: the mean of the samples just
        before and just after time t."""
        k = bisect.bisect_right(self.times, t)
        near = self.samples[max(0, k - 1): k + 1]
        return sum(near) / len(near) / REFERENCE_S

    def median_factor(self):
        return statistics.median(self.samples) / REFERENCE_S
