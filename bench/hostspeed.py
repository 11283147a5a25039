"""Host speed, measured beside the ops, to put a run's timings on one scale.

On a shared host, other guests slow this VM by up to 1.7x for tens of
seconds to minutes, longer than a run can wait out. So a worker times a
fixed kernel right after every timed op, and multiplies each pass's
latencies by NOMINAL_S over the median kernel time of that pass. The kernel
is the same kind of work as prefmax's hot paths: projected steps on
2-vectors through small numpy calls in a Python loop, a small scipy NNLS
solve, and tuple and dict work. It never calls prefmax, so a change to the
program moves the scaled times as much as the raw ones; only the host's
share is taken out.

Measured on a 2-vCPU cloud VM over 150 s, as medians in 10 s windows: a
radial-bowl descent moved by 11% (IQR/median) and its ratio to the kernel
by 1%; `prefmax check --suite uniqueness` on kinked-threshold moved by 10%
and its ratio by 5%. The kernel is run once untimed before each timed run:
a first run after any op took 20% longer whatever the op was (descent, CLI
check or a 300k-tuple allocation), a second run the same to within 1%.

NOMINAL_S is the kernel's usual time on that VM (Python 3.11, numpy 2.4,
scipy 1.17), so scaled times read as seconds there.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import nnls

NOMINAL_S = 0.0013

_A = np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.4], [0.1, 0.2, 1.0], [0.6, 0.1, 0.3]])
_B = np.array([1.0, -0.5, 0.7, 0.2])


def kernel() -> float:
    x = np.array([3.0, -2.0])
    c = np.array([1.0, 2.0])
    acc = 0.0
    for k in range(1, 150):
        g = x - c
        n = float(np.linalg.norm(g))
        if n > 0.0:
            x = x - (1.0 / k) * g / n
        acc += float(np.dot(x, x))
    for _ in range(5):
        acc += nnls(_A, _B)[1]
    seen = {}
    for i in range(300):
        p = (i * 0.5, i * 0.25)
        seen[p] = p[0] * p[1] > acc
    return acc + len(seen)


def time_kernel() -> float:
    kernel()  # untimed: brings the kernel's code paths back into cache
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(kernel_times: list[float]) -> float:
    """Factor that puts latencies timed beside these kernel runs on the
    nominal host."""
    return NOMINAL_S / statistics.median(kernel_times)
