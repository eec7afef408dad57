"""Nearest-neighbor differential entropy and Theil's uncertainty coefficient.

Entropy of a continuous d-dimensional sample is estimated by the
Kozachenko–Leonenko k-th nearest-neighbor method:

    Ĥ = ψ(n) − ψ(k) + log(c_d) + (d/n)·Σ_i log ε_i   (nats)

where ε_i is the distance from point i to its k-th nearest neighbor under
the max-norm (Chebyshev), whose unit ball has volume c_d = 2^d, and ψ is
the digamma function. Conditional entropy follows from the chain rule
H(y|x) = H(x, y) − H(x) with the same k and metric on the joint and
marginal clouds, and the uncertainty coefficient is the relative entropy
reduction u = (H(y) − H(y|x)) / H(y).

Differential entropies can be negative or near zero, which makes the
ratio ill-conditioned; results therefore carry a validity flag and the
raw numerator (a mutual-information estimate) so downstream consumers can
see *why* a u value is untrustworthy instead of crashing on it.

In one dimension the k nearest neighbors of a point, together with the
point itself, fill k + 1 consecutive places of the sorted sample, so the
neighbor distances come from sorting. Higher-dimensional clouds query
SciPy's k-d tree. ψ comes from ``scipy.special``. SciPy is imported where
it is used, so the stages that never estimate an entropy do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_K, MAX_K, AlignedPairs
from .errors import DegenerateSample, DomainError, InsufficientData

#: Zero neighbor distances (duplicate points) are floored here before log.
EPSILON_FLOOR = 1e-12

#: More than this fraction of floored distances marks the sample degenerate.
DEGENERATE_ZERO_FRACTION = 0.5

#: Denominators below this make the uncertainty coefficient invalid.
H_Y_EPSILON = 1e-6


@dataclass(frozen=True)
class EntropyEstimate:
    """One differential-entropy estimate, in nats."""

    value: float
    k: int
    n: int
    dim: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"entropy estimate must be finite, got {self.value}")
        if self.n <= self.k:
            raise ValueError(f"need n > k, got n={self.n}, k={self.k}")


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


def digamma(z: float) -> float:
    """ψ(z) for z > 0, by ``scipy.special.digamma``."""
    if not z > 0.0:
        raise DomainError(f"digamma requires z > 0, got {z}")
    from scipy import special

    return float(special.digamma(z))


def _as_points(samples) -> np.ndarray:
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    if pts.ndim != 2:
        raise ValueError(f"samples must be an (n, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("samples must be finite")
    return pts


def _kth_neighbor_distance_1d(values: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point of a 1-D sample to its k-th nearest other point.

    A point and its k nearest neighbors fill a window of k + 1 consecutive
    places in the sorted sample. Of the k + 1 windows containing place p,
    the one whose farther end is nearest to it gives the distance. A
    window start below 0 or past n − k − 1 is clipped, which yields another
    window containing p. A rounded difference of sorted values never
    decreases as the true difference grows, so the minimum picks the same
    rounded distance the max-norm k-d tree reports, bit for bit. Distances
    are returned in input order, so sums over them keep their order.
    """
    n = values.shape[0]
    order = np.argsort(values)
    s = values[order]
    place = np.arange(n)
    starts = np.clip(place - np.arange(k + 1)[:, np.newaxis], 0, n - k - 1)
    far = np.maximum(s - s[starts], s[starts + k] - s)
    eps = np.empty(n)
    # + 0.0 turns a zero distance between 0.0 and -0.0 into the tree's +0.0
    eps[order] = far.min(axis=0) + 0.0
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
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must lie in 1..{MAX_K}, got {k}")
    pts = _as_points(samples)
    n, d = pts.shape
    if n < k + 2:
        raise InsufficientData(f"need at least {k + 2} points for k={k}, got {n}")
    if d == 1:
        eps = _kth_neighbor_distance_1d(pts[:, 0], k)
    else:
        from scipy.spatial import cKDTree

        # k+1 neighbors because each point is its own nearest neighbor.
        dists, _ = cKDTree(pts).query(pts, k=k + 1, p=np.inf)
        eps = dists[:, k]
    if float(np.mean(eps == 0.0)) > DEGENERATE_ZERO_FRACTION:
        raise DegenerateSample(
            f"more than {DEGENERATE_ZERO_FRACTION:.0%} of k-NN distances are zero "
            f"(duplicated points)"
        )
    eps = np.maximum(eps, EPSILON_FLOOR)
    value = (
        digamma(n) - digamma(k) + d * math.log(2.0)
        + (d / n) * float(np.log(eps).sum())
    )
    return EntropyEstimate(value=value, k=k, n=n, dim=d)


def marginal_entropy(values, k: int = DEFAULT_K) -> float:
    """Ĥ of a 1-D sample in nats: an ``h_y`` or ``h_x`` for
    :func:`uncertainty_coefficient`."""
    return kl_entropy(values, k).value


def conditional_entropy(y, x, k: int = DEFAULT_K, h_x: float | None = None) -> EntropyEstimate:
    """Ĥ(y|x) = Ĥ(x, y) − Ĥ(x) via the chain rule, in nats.

    Ĥ(x) comes first; a caller that already has it passes it as ``h_x``.
    A zero joint neighbor distance needs k other points equal in both
    coordinates, hence equal in x, so a degenerate joint sample always has
    a degenerate x sample: estimating Ĥ(x) first raises the same
    DegenerateSample without building the joint cloud's tree.
    """
    ys = _as_points(y)
    xs = _as_points(x)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"length mismatch: {xs.shape[0]} vs {ys.shape[0]}")
    if h_x is None:
        h_x = marginal_entropy(xs, k)
    h_joint = kl_entropy(np.column_stack([xs, ys]), k)
    return EntropyEstimate(
        value=h_joint.value - h_x, k=k, n=ys.shape[0], dim=ys.shape[1]
    )


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
    """
    xs = pairs.xs()
    ys = pairs.ys()
    if h_y is None:
        h_y = marginal_entropy(ys, k)
    h_y_given_x = conditional_entropy(ys, xs, k, h_x).value
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
