"""The shared machine's momentary speed, from a fixed calibration kernel.

The host this benchmark was built on drifts in speed by up to 2x over
minutes and has shorter episodes of faster or slower running (other tenants
share its cores).  CPU time moves with wall time, so this is not
preemption.  A run therefore takes calibrations between its timed
intervals and rescales its times by the median of them to the speed at
which the kernel takes REFERENCE_S.  The kernel
mixes the instruction kinds the inGRAPE, GKSL and search workloads spend
time in: interpreter loops, Fraction arithmetic, small numpy products and
float formatting.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.015
_A = np.random.default_rng(0).standard_normal((4, 4))


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    f = Fraction(1, 3)
    for _ in range(300):
        f = f * Fraction(7, 5) / Fraction(7, 5)
    for _ in range(200):
        np.kron(_A, _A) @ np.kron(_A, _A)
    ",".join(format(x, ".17g") for x in _A.ravel().tolist() * 40)
    return time.perf_counter() - t0


def calibrate(bursts: int = 5) -> float:
    """Median kernel duration over a few bursts, after one to warm up."""
    _kernel()
    return statistics.median(_kernel() for _ in range(bursts))


def scale(calibrations: list[float]) -> float:
    """Factor taking times measured among these calibrations to the
    reference speed."""
    return REFERENCE_S / statistics.median(calibrations)
