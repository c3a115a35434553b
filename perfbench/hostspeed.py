"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared virtual machines whose speed drifts by 15-30 %
over minutes, so the raw pass times of consecutive runs spread wider than any
usable regression bound.  A fixed interpreter-bound kernel, timed between the
passes, drifts with the host.  A run's median pass time is rescaled by the
ratio of the kernel's reference time to its median time in that run.  The
kernel uses no code of the benchmarked package, so a change to the package
moves the rescaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import math
import statistics
import time

#: kernel time on the reference host (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_S = 0.012
REPEATS = 5


def kernel_seconds() -> float:
    """Median time of the calibration kernel over REPEATS runs."""
    import numpy as np

    base = np.arange(16).reshape(4, 4)
    a = (base % 5 - 2) + 1j * (base[::-1] % 3)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(400):
            acc += math.sin(0.1 * k) * math.cos(0.2 * k)
            acc += float(np.abs(np.linalg.eigvals(a * (k % 7) + a.T)).max())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescale(seconds: float, kernel_samples) -> float:
    """``seconds`` at the reference host speed, from the kernel times of the run."""
    return seconds * REFERENCE_S / statistics.median(kernel_samples)
