"""Pearson correlation over lag-aligned pairs.

The coefficient is computed with the classic two-pass formula: subtract
each sample mean, then form sum(dx*dy) / sqrt(sum(dx^2) * sum(dy^2)).
Each series is first scaled by the power of two that puts its largest
magnitude in [0.5, 1): that is exact and leaves r unchanged, and no sum
can overflow or underflow. Accumulation uses compensated summation
(math.fsum), which keeps the result within ~1e-15 of an exact-arithmetic
evaluation for series of this length.

Each series' deviations and sum of squares (its :func:`centered` side)
depend on that series alone, so a caller correlating one series with many
can compute them once; only the cross-sum is then left per pair.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateSeries, InsufficientData

#: Minimum pair count for a correlation to be defined (and stable).
MIN_PAIRS = 3


def centered(values: Sequence[float]) -> tuple[np.ndarray, float]:
    """One series' side of r: its deviations from the mean and their sum of squares.

    The series is first scaled by the power of two that puts its largest
    magnitude in [0.5, 1). Raises InsufficientData for fewer than three
    values and DegenerateSeries for a constant series (zero variance makes
    the coefficient undefined).
    """
    n = len(values)
    if n < MIN_PAIRS:
        raise InsufficientData(f"need at least {MIN_PAIRS} pairs, got {n}")
    v = np.asarray(values, dtype=np.float64)
    # max == min is an exact constant-series test; a summed-variance
    # threshold would misfire on rounding noise.
    if v.max() == v.min():
        raise DegenerateSeries("series is constant")
    # With the largest magnitude in [0.5, 1), a non-constant series keeps
    # a deviation of at least 2^-55, so its variance cannot reach zero.
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
    # Elementwise float64 arithmetic rounds exactly as Python floats do;
    # only the sums need compensation.
    d = v - math.fsum(v.tolist()) / n
    return d, math.fsum((d * d).tolist())


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-pass Pearson correlation of two equal-length sequences.

    Raises InsufficientData for fewer than three pairs and
    DegenerateSeries when either side is constant.
    """
    return pearson_of_sides(centered(xs), centered(ys))


def pearson_of_sides(
    x_side: tuple[np.ndarray, float], y_side: tuple[np.ndarray, float]
) -> float:
    """r from the :func:`centered` sides of two equal-length series."""
    (dx, sxx), (dy, syy) = x_side, y_side
    r = math.fsum((dx * dy).tolist()) / math.sqrt(sxx * syy)
    # Rounding can push |r| infinitesimally past 1 for collinear data.
    return max(-1.0, min(1.0, r))
