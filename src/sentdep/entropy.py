"""Nearest-neighbor differential entropy and Theil's uncertainty coefficient.

Entropy of a continuous d-dimensional sample is estimated by the
Kozachenko–Leonenko k-th nearest-neighbor method:

    Ĥ = ψ(n) − ψ(k) + log(c_d) + (d/n)·Σ_i log ε_i   (nats)

where ε_i is the distance from point i to its k-th nearest neighbor under
the max-norm (Chebyshev), whose unit ball has volume c_d = 2^d, and ψ is
the digamma function. The uncertainty coefficient is the relative
entropy reduction u = (H(y) − H(y|x)) / H(y). Its conditional entropy
comes from the chain rule H(y|x) = H(x, y) − H(x), with the same k and
metric on the marginal cloud of x and on the joint cloud, which is the
(x, y) pairs themselves.

Differential entropies can be negative or near zero, which makes the
ratio ill-conditioned; results therefore carry a validity flag and the
raw numerator (a mutual-information estimate) so downstream consumers can
see *why* a u value is untrustworthy instead of crashing on it.

Neighbor distances come from sorting, in numpy alone. In one dimension
the k nearest neighbors of a point, together with the point itself, fill
k + 1 consecutive places of the sorted sample. A higher-dimensional cloud
is sorted on its last coordinate, and each point searches a strip of
sorted places around it that widens until no point outside can be
nearer. Both searches give exactly the distances of a brute-force
max-norm search, bit for bit. ψ is ``psi`` (``scipy.special.digamma``),
taken from SciPy's compiled ufunc module ``scipy.special._ufuncs`` where
it is used, so the stages that never estimate an entropy do not load
SciPy, and a run never loads the ``scipy.special`` package (see
:func:`sentdep.pipeline._import_scipy_special`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DEFAULT_K, AlignedPairs
from .errors import DegenerateSample, InsufficientData

#: Zero neighbor distances (duplicate points) are floored here before log.
EPSILON_FLOOR = 1e-12

#: More than this fraction of floored distances marks the sample degenerate.
DEGENERATE_ZERO_FRACTION = 0.5

#: Denominators below this make the uncertainty coefficient invalid.
H_Y_EPSILON = 1e-6

#: Window places the max-norm neighbor search holds at once (2 MiB of
#: float64 per temporary).
_BLOCK_ITEMS = 1 << 18


@dataclass(frozen=True)
class EntropyEstimate:
    """One differential-entropy estimate, in nats."""

    value: float
    k: int
    n: int
    dim: int


@dataclass(frozen=True)
class UCoeffResult:
    """Uncertainty coefficient u = (H(y) − H(y|x)) / H(y) with diagnostics.

    ``mi`` is the numerator H(y) − H(y|x): the estimated mutual
    information in nats. ``valid`` is False when the denominator is
    negative or too close to zero for the ratio to mean anything; u is
    still reported (NaN only when h_y is exactly zero).
    """

    u: float
    h_y: float
    h_y_given_x: float
    valid: bool
    k: int
    mi: float


def _kth_neighbor_distance_1d(values: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point of a 1-D sample to its k-th nearest other point.

    A point and its k nearest neighbors fill a window of k + 1 consecutive
    places in the sorted sample. Of the k + 1 windows containing place p,
    the one whose farther end is nearest to it gives the distance. A
    window start below 0 or past n − k − 1 is clipped, which yields another
    window containing p. A rounded difference of sorted values never
    decreases as the true difference grows, so the minimum picks the same
    rounded distance a brute-force max-norm search finds, bit for bit.
    Distances are returned in input order, so sums over them keep their
    order.
    """
    n = values.shape[0]
    order = np.argsort(values)
    s = values[order]
    place = np.arange(n)
    starts = np.clip(place - np.arange(k + 1)[:, np.newaxis], 0, n - k - 1)
    far = np.maximum(s - s[starts], s[starts + k] - s)
    eps = np.empty(n)
    # + 0.0 turns the -0.0 that 0.0 and -0.0 can give into the +0.0 of |a - b|
    eps[order] = far.min(axis=0) + 0.0
    return eps


def _kth_neighbor_distance_strip(points: np.ndarray, k: int) -> np.ndarray:
    """Max-norm distance from each point of an (n, d) cloud to its k-th
    nearest other point.

    The points are sorted on their last coordinate. Each point takes its
    max-norm distances to a window of consecutive sorted places around it,
    itself included, and keeps the (k+1)-th smallest. A point outside the
    window is no nearer than the sort-axis gap to the window's nearest
    outside place on its side, since a rounded difference of sorted values
    never decreases as the true difference grows. So a point whose gaps on
    both sides are at least its candidate has its exact distance; the
    window doubles for the other points until it holds all n places. A
    maximum of absolute differences is exact, and a zero one is +0.0, so
    the distances equal, bit for bit, those of any exact max-norm search.
    Points are taken ``_BLOCK_ITEMS`` window places at a time, so memory
    stays bounded however wide the window grows. Distances are returned in
    input order, so sums over them keep their order.
    """
    n, d = points.shape
    order = np.argsort(points[:, -1])
    # The sorted columns sit between n places of -inf and n of +inf, which
    # are infinitely far from every point: a window never leaves the array,
    # and an edge has an infinite gap.
    padded = np.empty((d, 3 * n))
    padded[:, :n] = -np.inf
    padded[:, n:2 * n] = points[order].T
    padded[:, 2 * n:] = np.inf
    key = padded[-1]
    eps = np.empty(n)
    pending = np.arange(n, 2 * n)
    half = 2 * (k + 1)
    while pending.size:
        half = min(half, n - 1)
        width = 2 * half + 1
        rows = max(1, _BLOCK_ITEMS // width)
        left_over = []
        for first in range(0, pending.size, rows):
            place = pending[first:first + rows]
            start = place - half
            dist = np.zeros((place.size, width))
            for column in padded:
                near = sliding_window_view(column, width)[start]
                near -= column[place, np.newaxis]
                np.maximum(dist, np.abs(near, out=near), out=dist)
            kth = np.partition(dist, k, axis=1)[:, k]
            done = (half == n - 1) | (
                (key[place] - key[start - 1] >= kth) & (key[start + width] - key[place] >= kth)
            )
            eps[order[place[done] - n]] = kth[done]
            left_over.append(place[~done])
        pending = np.concatenate(left_over)
        half *= 2
    return eps


def kl_entropy(samples, k: int = DEFAULT_K) -> EntropyEstimate:
    """Kozachenko–Leonenko entropy of an (n, d) sample, in nats.

    ``samples`` may be a length-n sequence (treated as 1-D points) or an
    (n, d) array. Requires n ≥ k + 2 and 1 ≤ k ≤ 20. Duplicate points
    yield zero neighbor distances: these are floored at ``EPSILON_FLOOR``,
    and the sample is rejected as DegenerateSample when more than half the
    distances needed flooring (the estimate would be floor-driven, not
    data-driven).
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    n, d = pts.shape
    if n < k + 2:
        raise InsufficientData(f"need at least {k + 2} points for k={k}, got {n}")
    if d == 1:
        eps = _kth_neighbor_distance_1d(pts[:, 0], k)
    else:
        eps = _kth_neighbor_distance_strip(pts, k)
    if float(np.mean(eps == 0.0)) > DEGENERATE_ZERO_FRACTION:
        raise DegenerateSample(
            f"more than {DEGENERATE_ZERO_FRACTION:.0%} of k-NN distances are zero "
            f"(duplicated points)"
        )
    eps = np.maximum(eps, EPSILON_FLOOR)
    from scipy.special._ufuncs import psi

    value = (
        float(psi(n)) - float(psi(k)) + d * math.log(2.0)
        + (d / n) * float(np.log(eps).sum())
    )
    return EntropyEstimate(value=value, k=k, n=n, dim=d)


def marginal_entropy(values, k: int = DEFAULT_K) -> float:
    """Ĥ of a 1-D sample in nats: an ``h_y`` or ``h_x`` for
    :func:`uncertainty_coefficient`."""
    return kl_entropy(values, k).value


def uncertainty_coefficient(
    pairs: AlignedPairs,
    k: int = DEFAULT_K,
    h_y: float | None = None,
    h_x: float | None = None,
) -> UCoeffResult:
    """Relative entropy reduction in the price series given the sentiment.

    ``pairs`` carries lag-aligned (sentiment, price) pairs; the result is
    u = (Ĥ(price) − Ĥ(price|sentiment)) / Ĥ(price). The flag ``valid`` is
    True only when the denominator Ĥ(price) ≥ 1e−6; otherwise u is
    reported as-is (NaN for an exactly zero denominator) but flagged.
    ``h_y`` and ``h_x``, the entropies of the price and the sentiment
    sides of the pairs, spare estimating them again when a caller already
    has them; only the joint entropy is then estimated here.

    Ĥ(sentiment) comes before the joint entropy. A zero joint neighbor
    distance needs k other points equal in both coordinates, hence equal
    in the sentiment, so a degenerate joint sample always has a
    degenerate sentiment sample: estimating Ĥ(sentiment) first raises the
    same DegenerateSample without searching the joint cloud.
    """
    if h_y is None:
        h_y = marginal_entropy(pairs.ys(), k)
    if h_x is None:
        h_x = marginal_entropy(pairs.xs(), k)
    h_y_given_x = kl_entropy(pairs.pairs, k).value - h_x
    mi = h_y - h_y_given_x
    u = math.nan if h_y == 0.0 else mi / h_y
    return UCoeffResult(
        u=u,
        h_y=h_y,
        h_y_given_x=h_y_given_x,
        valid=h_y >= H_Y_EPSILON,
        k=k,
        mi=mi,
    )
