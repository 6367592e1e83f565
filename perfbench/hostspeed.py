"""How fast the host is running right now, from a fixed reference task.

The host shares its cores with other work, and its speed drifts by 10-20%
between one-minute runs, far more than a benchmark bound can absorb.  A
fixed pure-Python task (Fraction and big-integer arithmetic, like the
program's hot loops) slows down by the same factor: interleaved with
`bound` calls over four minutes, the two agreed with correlation 0.98 on
15 s windows, and their ratio varied by 2.7% where each varied by 9-12%.

So every time metric is scaled by REFERENCE_S over the mean reference
time measured during the run: it reads as the time on a host where the
reference task takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# mean reference time on the benchmark's host at quiet moments
REFERENCE_S = 0.0085
# operation time between two reference samples
SAMPLE_EVERY_S = 0.25


def reference_task() -> Fraction:
    x = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(1, 400):
        acc += x * Fraction(i, i + 7)
        x = (x * x + 1) / (x + 2)
        if x.denominator > 10**40:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
    return acc


class HostSpeed:
    """Reference samples taken between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._pending = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - t0)

    def after(self, op_seconds: float) -> None:
        """Take a sample once SAMPLE_EVERY_S of operation time has passed."""
        self._pending += op_seconds
        if self._pending >= SAMPLE_EVERY_S:
            self._pending = 0.0
            self.sample()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at REFERENCE_S."""
        return REFERENCE_S / statistics.fmean(self.samples)
