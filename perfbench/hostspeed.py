"""Host speed reference: a fixed piece of pure-Python work, timed often.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over seconds to minutes, as other tenants come and go.  Every block
of items times `sample()` before its first item, again once `EVERY_S`
seconds of item time have passed since the last sample, and after its last
item; each item's time is then rescaled to the reference host, on which
`sample()` takes `REF_S` seconds:

    ref_time = measured_time * REF_S / local_sample_time

where the local sample time is the mean of the smoothed samples before and
after the item.  The benchmark reports these reference seconds, so that a
slow spell of the host does not read as a slow program.  The work here does
not touch the package, so a change to the package moves the measured times
and not the samples.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# sample()'s time on the reference host: a fixed scale, chosen near its
# time on a quiet 2-vCPU VM (5-8 ms there as the host's load varies)
REF_S = 0.005
EVERY_S = 0.1  # item seconds between two samples
MAX_SAMPLES = 5  # samples taken at once after a long item


def sample() -> float:
    """Seconds taken by a fixed mix of integer, Fraction and dict work, the
    operations the package spends its time in."""
    start = time.perf_counter()
    acc, x, table = 0, Fraction(0), {}
    for i in range(24000):
        acc = (acc * 31 + i) % 1_000_003
    for i in range(400):
        f = Fraction(i % 11 + 1, i % 13 + 2)
        x = (x + f * f) % 7
        table[(i % 64, i % 3)] = x
    return time.perf_counter() - start


def warm_sample() -> float:
    """`sample()` after one untimed run of it.  The first run after an idle
    spell can take several times as long, while the core wakes up."""
    sample()
    return sample()


def rescale(times: list[float], segment: list[int], samples: list[float]) -> list[float]:
    """Reference seconds of each item.  `segment[i]` is the index of the
    sample taken just before item i, and sample `segment[i] + 1` was taken
    after it.  Each sample is first replaced by the median of itself and its
    two neighbours, so that one interrupted sample does not skew an item."""
    smooth = [statistics.median(samples[max(j - 1, 0):j + 2]) for j in range(len(samples))]
    return [t * REF_S * 2 / (smooth[j] + smooth[j + 1]) for t, j in zip(times, segment)]
