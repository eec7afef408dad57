"""Bivariate linear Granger causality via nested OLS and an F-test.

Does the lagged history of x improve a linear prediction of y beyond y's
own lagged history? Two regressions are fitted over the same effective
sample (the first ``lag`` observations are trimmed):

* restricted:    y_t = c + Σ_{i=1..lag} d_i·y_{t−i} + e_t
* unrestricted:  adds Σ_{i=1..lag} g_i·x_{t−i}

and the exclusion of the cross terms is tested with
F = ((RSS_r − RSS_u)/q) / (RSS_u/(n_eff − 2q − 1)), q = lag, whose
upper-tail probability comes from the F(q, n_eff − 2q − 1) distribution.
``causal`` means p < alpha. The reverse direction (prices explaining
sentiment) is just ``granger_causes(y, x, ...)``; callers flip arguments.

The F upper tail comes from ``scipy.special.fdtrc``, imported on first
use; linear algebra goes through an SVD-based least-squares solve for
rank safety.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_ALPHA
from .errors import InsufficientData, RankDeficient

#: Designs with a condition number above this are treated as rank deficient.
CONDITION_LIMIT = 1e10

#: An RSS at or below this multiple of the response's centered sum of
#: squares is considered an exact fit (pure rounding residue).
PERFECT_FIT_REL_TOL = 1e-12


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit: coefficients (intercept first), RSS, sample size."""

    coefficients: tuple[float, ...]
    rss: float
    n_obs: int

    def __post_init__(self):
        if self.rss < 0:
            raise ValueError(f"rss must be >= 0, got {self.rss}")


@dataclass(frozen=True)
class GrangerResult:
    """Outcome of one directional test at one lag order."""

    f_stat: float
    p_value: float
    df_num: int
    df_den: int
    lag: int
    causal: bool
    alpha: float = DEFAULT_ALPHA
    perfect_fit: bool = False

    def __post_init__(self):
        if self.f_stat < 0:
            raise ValueError(f"f_stat must be >= 0, got {self.f_stat}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must lie in [0, 1], got {self.p_value}")
        if self.df_den < 1:
            raise ValueError(f"df_den must be >= 1, got {self.df_den}")
        if self.causal != (self.p_value < self.alpha):
            raise ValueError("causal flag inconsistent with p_value and alpha")


def ols(regressors, response) -> OlsFit:
    """Least-squares fit of ``response`` on an intercept plus ``regressors``.

    ``regressors`` is an (n, p) matrix (or length-n vector for p = 1)
    WITHOUT an intercept column; one is prepended. Solved via SVD-based
    least squares rather than normal equations so near-collinearity is
    detected instead of silently amplified: a condition number above
    ``CONDITION_LIMIT`` raises RankDeficient. Requires at least one more
    row than total columns (one residual degree of freedom).
    """
    y = np.asarray(response, dtype=float)
    X_reg = np.asarray(regressors, dtype=float)
    if X_reg.ndim == 1:
        X_reg = X_reg[:, np.newaxis]
    if y.ndim != 1 or X_reg.ndim != 2:
        raise ValueError("response must be a vector and regressors a matrix")
    n = y.shape[0]
    if X_reg.shape[0] != n:
        raise ValueError(f"row mismatch: {X_reg.shape[0]} regressor rows, {n} responses")
    if not (np.isfinite(X_reg).all() and np.isfinite(y).all()):
        raise ValueError("regression inputs must be finite")
    p = X_reg.shape[1] + 1
    if n < p + 1:
        raise InsufficientData(f"need at least {p + 1} observations for {p} parameters, got {n}")
    X = np.column_stack([np.ones(n), X_reg])
    beta, _, _, singular = np.linalg.lstsq(X, y, rcond=None)
    if singular[-1] == 0.0 or singular[0] / singular[-1] > CONDITION_LIMIT:
        raise RankDeficient(
            f"design condition number exceeds {CONDITION_LIMIT:.0e}"
        )
    resid = y - X @ beta
    return OlsFit(
        coefficients=tuple(float(b) for b in beta),
        rss=float(resid @ resid),
        n_obs=n,
    )


def _lagged_columns(values: np.ndarray, lag: int) -> np.ndarray:
    """Matrix with columns v_{t−1}, …, v_{t−lag} for t = lag..n−1."""
    n = values.shape[0]
    return np.column_stack([values[lag - i : n - i] for i in range(1, lag + 1)])


def _check_effective_sample(n: int, lag: int) -> None:
    """Raise InsufficientData unless n observations leave n − lag ≥ 2·lag + 10."""
    n_eff = n - lag
    if n_eff < 2 * lag + 10:
        raise InsufficientData(
            f"{n_eff} effective observations after trimming, need {2 * lag + 10}"
        )


def restricted_fit(y: Sequence[float], lag: int = 1) -> OlsFit:
    """The restricted regression of a test at lag order ``lag``.

    Fits y_t on an intercept and y_{t−1}, …, y_{t−lag} over the test's
    effective sample. It depends on y alone, so a caller testing several
    x against one y can fit it once (see :func:`granger_causes`).
    """
    ys = np.asarray(y, dtype=float)
    _check_effective_sample(ys.shape[0], lag)
    return ols(_lagged_columns(ys, lag), ys[lag:])


def granger_causes(
    x: Sequence[float],
    y: Sequence[float],
    lag: int = 1,
    alpha: float = DEFAULT_ALPHA,
    fit_restricted: Callable[[np.ndarray, int], OlsFit] = restricted_fit,
) -> GrangerResult:
    """Test whether lagged x helps predict y, at lag order ``lag``.

    ``x`` and ``y`` are equal-length, same-date chronological series; the
    lagging happens here (feed raw aligned series, not pre-shifted ones).
    Requires n − lag ≥ 2·lag + 10 effective observations. The restricted
    regression comes from ``fit_restricted(y, lag)``; a caller testing
    several x against one y can pass one that fits it only once.

    An unrestricted RSS of zero cannot feed the F ratio; such exact fits
    are reported with ``perfect_fit=True``: causal with p = 0 when the
    cross terms produced the exact fit, non-causal with p = 1 when y's own
    history already fit exactly.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"series must be equal-length vectors, got {xs.shape} and {ys.shape}")
    _check_effective_sample(xs.shape[0], lag)
    restricted = fit_restricted(ys, lag)
    n_eff = xs.shape[0] - lag
    response = ys[lag:]
    own = _lagged_columns(ys, lag)
    unrestricted = ols(np.column_stack([own, _lagged_columns(xs, lag)]), response)

    q = lag
    df_den = n_eff - 2 * q - 1
    tss = float(((response - response.mean()) ** 2).sum())
    scale = tss if tss > 0.0 else float(response @ response)
    zero_tol = PERFECT_FIT_REL_TOL * scale
    if unrestricted.rss <= zero_tol:
        if restricted.rss <= zero_tol:
            # y's own lags already fit exactly; the cross terms add nothing.
            f_stat, p_value, perfect = 0.0, 1.0, True
        else:
            f_stat, p_value, perfect = math.inf, 0.0, True
    else:
        numerator = max(0.0, restricted.rss - unrestricted.rss) / q
        f_stat = numerator / (unrestricted.rss / df_den)
        p_value = f_distribution_sf(f_stat, q, df_den)
        perfect = False
    return GrangerResult(
        f_stat=f_stat,
        p_value=p_value,
        df_num=q,
        df_den=df_den,
        lag=lag,
        causal=p_value < alpha,
        alpha=alpha,
        perfect_fit=perfect,
    )


def f_distribution_sf(f: float, d1: int, d2: int) -> float:
    """P(F > f) for an F(d1, d2) variate, by ``scipy.special.fdtrc``."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not f >= 0.0:
        raise ValueError(f"f must be >= 0, got {f}")
    from scipy.special import fdtrc

    return float(fdtrc(d1, d2, f))
