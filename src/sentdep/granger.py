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

The restricted regression depends on y alone, so the test is split in
three steps that a caller testing many x against one y, or one x against
many y, can share: :func:`restricted_fit` fits y on its own lags once,
:func:`f_statistic` fits the unrestricted regression of one x on a design
it fills in place (see :func:`lagged_design`) and forms F, and
:func:`upper_tail` turns any number of F values into p-values at once.
:func:`granger_causes` is those three steps for one pair of series.

The F upper tail is ``fdtrc``, taken on first use from SciPy's compiled
ufunc module ``scipy.special._ufuncs`` (see
:func:`sentdep.pipeline._import_scipy_special`); linear algebra goes
through an SVD-based least-squares solve for rank safety.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import DEFAULT_ALPHA
from .errors import InsufficientData, RankDeficient

#: Designs with a condition number above this are treated as rank deficient.
CONDITION_LIMIT = 1e10

#: An RSS at or below this multiple of the response's centered sum of
#: squares is considered an exact fit (pure rounding residue).
PERFECT_FIT_REL_TOL = 1e-12


class OlsFit(NamedTuple):
    """Least-squares fit: coefficients (intercept first), RSS, sample size."""

    coefficients: np.ndarray
    rss: float
    n_obs: int


class RestrictedFit(NamedTuple):
    """What the F ratio needs of a test's response y and its own-lag regression."""

    series: np.ndarray  # y, before the first ``lag`` values are trimmed
    rss: float
    zero_tol: float  # an RSS at or below this is an exact fit


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


def ols(design: np.ndarray, response: np.ndarray) -> OlsFit:
    """Least-squares fit of ``response`` on the columns of ``design``.

    ``design`` is an (n, p) float64 matrix whose first column holds the
    intercept's ones (see :func:`lagged_design`). Solved via SVD-based
    least squares rather than normal equations so near-collinearity is
    detected instead of silently amplified: a condition number above
    ``CONDITION_LIMIT`` raises RankDeficient. Requires at least one more
    row than columns (one residual degree of freedom).
    """
    n, p = design.shape
    if n < p + 1:
        raise InsufficientData(f"need at least {p + 1} observations for {p} parameters, got {n}")
    beta, _, _, singular = np.linalg.lstsq(design, response, rcond=None)
    # Compared without dividing: with huge or subnormal data the ratio
    # overflows, while a Python float product just reaches inf.
    smallest, largest = float(singular[-1]), float(singular[0])
    if smallest == 0.0 or smallest * CONDITION_LIMIT < largest:
        raise RankDeficient(
            f"design condition number exceeds {CONDITION_LIMIT:.0e}"
        )
    resid = response - design @ beta
    return OlsFit(coefficients=beta, rss=float(resid @ resid), n_obs=n)


def lagged_design(n_eff: int, lag: int, cross: bool = True) -> np.ndarray:
    """An intercept column of ones beside ``lag`` own-lag columns and, with
    ``cross``, ``lag`` cross-lag columns, over ``n_eff`` rows.

    Only the intercept is set; :func:`f_statistic` fills the lag columns.
    """
    design = np.empty((n_eff, 1 + (2 if cross else 1) * lag))
    design[:, 0] = 1.0
    return design


def _fill_lags(design: np.ndarray, first: int, values: np.ndarray, lag: int) -> None:
    """Write v_{t−1}, …, v_{t−lag} for t = lag..n−1 into the columns from ``first``."""
    n = values.shape[0]
    for i in range(1, lag + 1):
        design[:, first + i - 1] = values[lag - i : n - i]


def check_effective_sample(n: int, lag: int) -> None:
    """Raise InsufficientData unless n observations leave n − lag ≥ 2·lag + 10."""
    n_eff = n - lag
    if n_eff < 2 * lag + 10:
        raise InsufficientData(
            f"{n_eff} effective observations after trimming, need {2 * lag + 10}"
        )


def restricted_fit(y: Sequence[float], lag: int = 1) -> RestrictedFit:
    """The restricted regression of a test at lag order ``lag``.

    Fits y_t on an intercept and y_{t−1}, …, y_{t−lag} over the test's
    effective sample, which must hold n − lag ≥ 2·lag + 10 observations,
    and keeps the tolerance under which a fit of the same response counts
    as exact: ``PERFECT_FIT_REL_TOL`` times the response's centered sum of
    squares, or its plain sum of squares when that is zero.
    """
    ys = np.asarray(y, dtype=float)
    check_effective_sample(ys.shape[0], lag)
    response = ys[lag:]
    design = lagged_design(response.shape[0], lag, cross=False)
    _fill_lags(design, 1, ys, lag)
    rss = ols(design, response).rss
    tss = float(((response - response.mean()) ** 2).sum())
    scale = tss if tss > 0.0 else float(response @ response)
    return RestrictedFit(ys, rss, PERFECT_FIT_REL_TOL * scale)


def f_statistic(restricted: RestrictedFit, x: np.ndarray,
                design: np.ndarray) -> tuple[float, bool, int]:
    """(F, exact fit, denominator degrees of freedom) of whether x's lags
    improve ``restricted``'s regression.

    ``x`` has the length of the restricted fit's series, and ``design`` is
    an unrestricted :func:`lagged_design` over its effective sample; the
    lag columns are overwritten here, so one design serves any number of
    tests of that shape. The degrees of freedom are n_eff − 2·lag − 1, the
    unrestricted fit's residual ones, which :func:`upper_tail` takes. An
    unrestricted RSS of zero cannot feed the F ratio; such an exact fit
    returns F = inf when the cross terms produced it and F = 0 when y's
    own history already fit exactly.
    """
    lag = (design.shape[1] - 1) // 2
    df_den = design.shape[0] - 2 * lag - 1
    _fill_lags(design, 1, restricted.series, lag)
    _fill_lags(design, 1 + lag, x, lag)
    rss = ols(design, restricted.series[lag:]).rss
    if rss <= restricted.zero_tol:
        return (0.0 if restricted.rss <= restricted.zero_tol else math.inf), True, df_den
    return max(0.0, restricted.rss - rss) / lag / (rss / df_den), False, df_den


def upper_tail(lag: int, df_den, f_stat):
    """P(F(lag, df_den) > f_stat), elementwise over arrays of ``df_den`` and
    ``f_stat``: 0 at F = inf and 1 at F = 0."""
    from scipy.special._ufuncs import fdtrc

    return fdtrc(lag, df_den, f_stat)


def granger_causes(
    x: Sequence[float],
    y: Sequence[float],
    lag: int = 1,
    alpha: float = DEFAULT_ALPHA,
) -> GrangerResult:
    """Test whether lagged x helps predict y, at lag order ``lag``.

    ``x`` and ``y`` are equal-length, same-date chronological series; the
    lagging happens here (feed raw aligned series, not pre-shifted ones).
    Requires n − lag ≥ 2·lag + 10 effective observations.

    Exact fits are reported with ``perfect_fit=True``: causal with p = 0
    when the cross terms produced the exact fit, non-causal with p = 1
    when y's own history already fit exactly.
    """
    restricted = restricted_fit(y, lag)
    n_eff = restricted.series.shape[0] - lag
    f_stat, perfect, df_den = f_statistic(restricted, np.asarray(x, dtype=float),
                                          lagged_design(n_eff, lag))
    p_value = float(upper_tail(lag, df_den, f_stat))
    return GrangerResult(
        f_stat=f_stat,
        p_value=p_value,
        df_num=lag,
        df_den=df_den,
        lag=lag,
        causal=p_value < alpha,
        alpha=alpha,
        perfect_fit=perfect,
    )
