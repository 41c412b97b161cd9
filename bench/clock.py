"""Durations in reference seconds, corrected for the drifting speed of a shared CPU.

On a shared machine the same user code runs faster or slower from one
few-second stretch to the next: on a 2-vCPU Xeon VM the user time of one
n=3000 ground state varied from 2.6 s to 3.5 s within one process, with no
system time and no page faults to explain it.  `speed_scale` times a fixed
calibration loop right before a measured step; multiplying the step's wall time
by the scale gives reference seconds, seconds on a machine where the loop
takes NOMINAL_S.  The loop has the solvers' mix of small-array numpy calls and
interpreted arithmetic, so it slows down and speeds up with them: on the
`ground` workload the round-to-round spread of the rescaled time was 0.05,
against 0.145 for wall time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.25
ITERATIONS = 10000


def calibration_s() -> float:
    """Wall time of the calibration loop, about NOMINAL_S."""
    x = np.linspace(0.0, 1.0, 3000)
    acc = 0.0
    start = perf_counter()
    for i in range(ITERATIONS):
        acc += float(np.dot(np.sqrt(x * x + i), x))
        acc += sum(j * 0.5 for j in range(200))
    return perf_counter() - start


def speed_scale() -> float:
    """Reference seconds per wall second for the step that follows."""
    return NOMINAL_S / calibration_s()
