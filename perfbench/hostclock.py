"""Host time: wall time corrected for how fast the shared host runs just then.

On a host shared with other tenants the same Python work can take twice as
long from one minute to the next.  A fixed piece of pure-Python work of the
pipeline's kinds (n-gram counting, sorting, small frozensets and float
sums) is timed next to the measured work.  Scaling a wall time by
NOMINAL_KERNEL_S over the kernel's time gives host seconds: the time the
work would take on a host where the kernel takes NOMINAL_KERNEL_S.
"""

from __future__ import annotations

import gc
import statistics
from collections import Counter
from time import perf_counter

KERNEL_TEXT = "".join(chr(97 + (i * i + 3 * i) % 26) for i in range(2500))
NOMINAL_KERNEL_S = 0.006  # the kernel's typical time on the reference host
CALIBRATE_EVERY_S = 0.5


def reference_kernel() -> float:
    """Seconds the kernel takes: the median of five runs, so that one preempted run does not count.

    The garbage collector is off meanwhile: a collection's cost grows with
    the measured program's heap, which is not the host's speed.
    """
    times = []
    gc.disable()
    try:
        for _ in range(5):
            started = perf_counter()
            counts: Counter = Counter()
            for n in range(1, 5):
                counts.update(KERNEL_TEXT[i : i + n] for i in range(len(KERNEL_TEXT) - n + 1))
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            [frozenset(range(i, i + 4)) for i in range(1500)]
            sum(min(0.5, 0.1 * (i % 7)) for i in range(15000))
            times.append(perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times)


def host_seconds(wall_s: float, kernel_s: list[float]) -> float:
    """``wall_s`` in host seconds, given kernel times measured around it."""
    return wall_s * NOMINAL_KERNEL_S * len(kernel_s) / sum(kernel_s)
