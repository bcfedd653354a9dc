"""Quantile estimation for the latency metrics.

A plain sample quantile is one order statistic.  Where query costs are
spread out, a little timing noise reorders the queries next to it and the
quantile jumps across the gap between them.  The Harrell-Davis estimate is
a mean of all order statistics, weighted by the probability that each is
the requested quantile, so it moves smoothly with the data.
"""

from __future__ import annotations

import math

SIMPSON_STEPS = 64     # even number of Simpson sub-intervals per order statistic


def _beta_masses(n: int, a: float, b: float) -> list[float]:
    """Probability of each interval ((i-1)/n, i/n], i = 1..n, under Beta(a, b)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = 1 / (n * SIMPSON_STEPS)
    masses = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, SIMPSON_STEPS))
        masses.append((pdf(lo) + inner + pdf(lo + 1 / n)) * h / 3)
    return masses


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    masses = _beta_masses(n, p * (n + 1), (1 - p) * (n + 1))
    return sum(m * x for m, x in zip(masses, xs)) / sum(masses)
