"""Pearson correlation over lag-aligned pairs, with a significance rule.

The coefficient is computed with the classic two-pass formula: subtract
each sample mean, then form sum(dx*dy) / sqrt(sum(dx^2) * sum(dy^2)).
Each series is first scaled by the power of two that puts its largest
magnitude in [0.5, 1): that is exact and leaves r unchanged, and no sum
can overflow or underflow. Accumulation uses compensated summation
(math.fsum), which keeps the result within ~1e-15 of an exact-arithmetic
evaluation for series of this length. A correlation is flagged
significant when its magnitude strictly exceeds a threshold (default 0.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AlignedPairs
from .errors import DegenerateSeries, InsufficientData

#: Minimum pair count for a correlation to be defined (and stable).
MIN_PAIRS = 3

#: |r| must strictly exceed this to be called significant.
DEFAULT_THRESHOLD = 0.4


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation coefficient plus the significance decision."""

    r: float
    n: int
    significant: bool
    threshold: float


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-pass Pearson correlation of two equal-length sequences.

    Raises InsufficientData for fewer than three pairs and
    DegenerateSeries when either side is constant (zero variance makes
    the coefficient undefined).
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < MIN_PAIRS:
        raise InsufficientData(f"need at least {MIN_PAIRS} pairs, got {n}")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    # max == min is an exact constant-series test; a summed-variance
    # threshold would misfire on rounding noise.
    if x.max() == x.min():
        raise DegenerateSeries("first series is constant")
    if y.max() == y.min():
        raise DegenerateSeries("second series is constant")
    # With the largest magnitude in [0.5, 1), a non-constant series keeps
    # a deviation of at least 2^-55, so neither variance can reach zero.
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    # Elementwise float64 arithmetic rounds exactly as Python floats do;
    # only the sums need compensation.
    dx = x - math.fsum(x.tolist()) / n
    dy = y - math.fsum(y.tolist()) / n
    sxy = math.fsum((dx * dy).tolist())
    sxx = math.fsum((dx * dx).tolist())
    syy = math.fsum((dy * dy).tolist())
    r = sxy / math.sqrt(sxx * syy)
    # Rounding can push |r| infinitesimally past 1 for collinear data.
    return max(-1.0, min(1.0, r))


def classify(r: float, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Significance rule: |r| strictly greater than ``threshold``."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    return abs(r) > threshold


def correlate(
    aligned: AlignedPairs, threshold: float = DEFAULT_THRESHOLD
) -> CorrelationResult:
    """Correlation of lag-aligned (sentiment, price) pairs."""
    r = pearson(aligned.xs(), aligned.ys())
    return CorrelationResult(
        r=r, n=aligned.n, significant=classify(r, threshold), threshold=threshold
    )
