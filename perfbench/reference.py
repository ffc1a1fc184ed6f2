"""A fixed reference kernel that measures the host's speed during a run.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over minutes as other tenants come and go.  A round's wall
time follows that drift, so medians of separate runs spread more than any
change in the program would show.  The kernel below does a fixed amount of
the same kinds of work the workloads do (interpreter loops, small numpy
linear algebra, ``scipy.integrate.quad`` of a Python callable) and never
touches ``normalshift``.  Timed in short slices between the workload's
operations, it slows down with the host, and a round's time divided by the
time of the slices run beside it is steady across runs.
"""

import math
import time

import numpy as np
from scipy import integrate

EYE = np.eye(3)
ONES = np.ones((3, 3))


def _slice() -> float:
    total = 0.0
    for i in range(20000):
        total += (i * 7) % 13
    for i in range(1000):
        b = np.linalg.solve(EYE + (i / 300000.0) * ONES, np.ones(3))
        total += float(np.einsum("ij,j->i", EYE, b)[0])
    for i in range(50):
        k = 1.0 + i * 1e-3
        total += integrate.quad(lambda t: math.exp(-k * t) * t**3, 0.0, k)[0]
    return total


class Reference:
    """Runs kernel slices on demand and keeps the seconds they took."""

    def __init__(self):
        self.seconds = 0.0
        _slice()  # warm-up: first calls into numpy and quad

    def tick(self) -> None:
        started = time.perf_counter()
        _slice()
        self.seconds += time.perf_counter() - started

    def take(self) -> float:
        """Seconds the slices took since the last call."""
        seconds, self.seconds = self.seconds, 0.0
        return seconds
