"""Pearson correlation over lag-aligned pairs.

The coefficient is computed with the classic two-pass formula: subtract
each sample mean, then form sum(dx*dy) / sqrt(sum(dx^2) * sum(dy^2)).
Each series is first scaled by the power of two that puts its largest
magnitude in [0.5, 1): that is exact and leaves r unchanged, and no sum
can overflow or underflow. The sums are numpy's pairwise sums along each
row. For n ≤ 1,260 each term passes through at most 30 roundings, so
with u = 2^-53 each sum errs by at most about 30·u times the sum of its
terms' magnitudes, and r by at most about 70·u ≈ 8e-15 of an
exact-arithmetic evaluation, unless a series' mean dwarfs its spread by
more than about 1e6 (see ``tests/test_pearson.py``).

Each series' deviations and sum of squares (its side of r) depend on that
series alone. :func:`centered_rows` computes the sides of a matrix of
series at once, and :func:`correlations` the r of each of its rows
against one series' side, with one row-wise product and sum. A row's
result is the same float operations whatever else its matrix holds, so
:func:`centered` and :func:`pearson`, the one-row case, equal it bit for
bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateSeries, InsufficientData

#: Minimum pair count for a correlation to be defined (and stable).
MIN_PAIRS = 3


def centered_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's side of r: its deviations from its mean and their sum of squares.

    ``rows`` is a (k, n) float64 matrix, and each row is first scaled by
    the power of two that puts its largest magnitude in [0.5, 1). A
    constant row's sum of squares reads NaN: zero variance makes the
    coefficient undefined. Raises InsufficientData for fewer than three
    columns.
    """
    n = rows.shape[1]
    if n < MIN_PAIRS:
        raise InsufficientData(f"need at least {MIN_PAIRS} pairs, got {n}")
    high, low = rows.max(axis=1), rows.min(axis=1)
    # With the largest magnitude in [0.5, 1), a non-constant row keeps a
    # deviation of at least 2^-55, so its variance cannot reach zero.
    d = np.ldexp(rows, -np.frexp(np.maximum(high, -low))[1][:, np.newaxis])
    d -= (d.sum(axis=1) / n)[:, np.newaxis]
    ss = (d * d).sum(axis=1)
    # max == min is an exact constant-series test; a summed-variance
    # threshold would misfire on rounding noise.
    ss[high == low] = np.nan
    return d, ss


def centered(values: Sequence[float]) -> tuple[np.ndarray, float]:
    """One series' side of r, the one-row case of :func:`centered_rows`.

    Raises InsufficientData for fewer than three values and
    DegenerateSeries for a constant series.
    """
    (d,), (ss,) = centered_rows(np.asarray(values, dtype=np.float64)[np.newaxis])
    if math.isnan(ss):
        raise DegenerateSeries("series is constant")
    return d, float(ss)


def correlations(dys: np.ndarray, syys: np.ndarray, dxs: np.ndarray, sxxs) -> np.ndarray:
    """r of each row side (``dys[j]``, ``syys[j]``) of :func:`centered_rows`
    against the matching side (``dxs[j]``, ``sxxs[j]``), or against one
    side (``dxs``, ``sxxs``) for all rows.

    The cross-sums are one row-wise product and sum. A row whose sum of
    squares is NaN reads NaN.
    """
    r = (dys * dxs).sum(axis=1) / np.sqrt(syys * sxxs)
    # Rounding can push |r| infinitesimally past 1 for collinear data.
    return np.minimum(np.maximum(r, -1.0), 1.0)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-pass Pearson correlation of two equal-length sequences.

    Raises InsufficientData for fewer than three pairs and
    DegenerateSeries when either side is constant.
    """
    dx, sxx = centered(xs)
    dy, syy = centered(ys)
    return float(correlations(dy[np.newaxis], np.array([syy]), dx, sxx)[0])
