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

Neighbor queries use SciPy's k-d tree and ψ comes from ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

from .core import AlignedPairs
from .errors import DegenerateSample, DomainError, InsufficientData

#: Default neighbor order: a common bias/variance compromise.
DEFAULT_K = 3

#: Largest supported neighbor order.
MAX_K = 20

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
    tree = cKDTree(pts)
    # k+1 neighbors because each point is its own nearest neighbor.
    dists, _ = tree.query(pts, k=k + 1, p=np.inf)
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


def conditional_entropy(y, x, k: int = DEFAULT_K) -> EntropyEstimate:
    """Ĥ(y|x) = Ĥ(x, y) − Ĥ(x) via the chain rule, in nats."""
    ys = _as_points(y)
    xs = _as_points(x)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"length mismatch: {xs.shape[0]} vs {ys.shape[0]}")
    joint = np.column_stack([xs, ys])
    h_joint = kl_entropy(joint, k)
    h_x = kl_entropy(xs, k)
    return EntropyEstimate(
        value=h_joint.value - h_x.value, k=k, n=ys.shape[0], dim=ys.shape[1]
    )


def uncertainty_coefficient(pairs: AlignedPairs, k: int = DEFAULT_K) -> UCoeffResult:
    """Relative entropy reduction in the price series given the sentiment.

    ``pairs`` carries lag-aligned (sentiment, price) pairs; the result is
    u = (Ĥ(price) − Ĥ(price|sentiment)) / Ĥ(price). The flag ``valid`` is
    True only when the denominator Ĥ(price) ≥ 1e−6; otherwise u is
    reported as-is (NaN for an exactly zero denominator) but flagged.
    """
    xs = pairs.xs()
    ys = pairs.ys()
    h_y = kl_entropy(ys, k).value
    h_y_given_x = conditional_entropy(ys, xs, k).value
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
