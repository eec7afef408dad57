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
many y, can share, each over a stack of series, one per row:
:func:`restricted_fits` fits each y on its own lags, :func:`f_statistics`
fits each unrestricted regression and forms F, and :func:`upper_tail`
turns any number of F values into p-values at once. Each fitting step
makes one stacked least-squares call (:func:`ols`), and a row's result
is the same float operations whatever else its stack holds, so
:func:`granger_causes`, the three steps on a stack of one, equals it bit
for bit. :func:`ols` gives only each fit's RSS, and NaN where the design
is rank deficient, so a failing row fails alone; :func:`granger_causes`
raises RankDeficient instead.

Every series is scaled by a power of two before it is fitted: each y by
the one that puts its largest magnitude in [0.5, 1), so that no sum of
squares overflows, and each design column alike inside :func:`ols`, so
that the condition number judges the columns' shapes and not their
units. The scaling is exact and leaves F unchanged, so closes near 1e306
give the same F, bit for bit, as the same closes near 30.

The F upper tail is ``fdtrc``, taken on first use from SciPy's compiled
ufunc module ``scipy.special._ufuncs`` (see
:func:`sentdep.pipeline._import_scipy_special`); each least-squares fit
goes through a Householder QR and the SVD of its triangular factor, for
rank safety.
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


class RestrictedFit(NamedTuple):
    """What the F ratio needs of each test's response y and its own-lag
    regression, one row per test."""

    series: np.ndarray  # each y, scaled, before the first ``lag`` values are trimmed
    rss: np.ndarray  # NaN where the design is rank deficient
    zero_tol: np.ndarray  # an RSS at or below this is an exact fit


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


def ols(designs: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """The RSS of the least-squares fit of each design of a stack, with one
    QR and one SVD call.

    ``designs`` is a (k, n, p) float64 stack whose first columns hold the
    intercept's ones, and ``responses`` is (k, n), or (1, n) for one
    response shared by every design. Each column is first scaled by the
    power of two that puts its largest magnitude in [0.5, 1). Each design
    with its response as a last column is reduced to its triangular
    factor R by Householder QR (``np.linalg.qr(..., mode="r")``). The
    design's singular values are those of R's leading p × p block, and the
    last diagonal entry of R is ± the residual's norm, so no orthogonal
    factor is ever formed. Near-collinearity is detected instead of
    silently amplified: a fit whose scaled design has a condition number
    above ``CONDITION_LIMIT`` reads NaN. Requires at least one more row
    than columns (one residual degree of freedom).
    """
    k, n, p = designs.shape
    if n < p + 1:
        raise InsufficientData(f"need at least {p + 1} observations for {p} parameters, got {n}")
    columns = designs.transpose(0, 2, 1)
    exponents = np.frexp(np.maximum(columns.max(axis=2), -columns.min(axis=2)))[1]
    augmented = np.empty((k, p + 1, n))
    np.ldexp(columns, -exponents[:, :, np.newaxis], out=augmented[:, :p])
    augmented[:, p] = responses
    r = np.linalg.qr(augmented.transpose(0, 2, 1), mode="r")
    s = np.linalg.svd(r[:, :p, :p], compute_uv=False)
    # The scaled columns have magnitudes below 1, so no product overflows.
    deficient = (s[:, -1] == 0.0) | (s[:, -1] * CONDITION_LIMIT < s[:, 0])
    rss = r[:, p, p] * r[:, p, p]
    rss[deficient] = np.nan
    return rss


def _designs(lag: int, *series: np.ndarray) -> np.ndarray:
    """The stacked designs over t = lag..m−1: the intercept's ones, then
    v_{t−1}, …, v_{t−lag} of each row v of each (k, m) or (1, m) array of
    ``series`` in turn; the transposed view of a (k, p, m − lag) array."""
    m = series[0].shape[1]
    columns = np.empty((max(s.shape[0] for s in series), 1 + lag * len(series), m - lag))
    columns[:, 0] = 1.0
    for j, values in enumerate(series):
        for i in range(1, lag + 1):
            columns[:, j * lag + i] = values[:, lag - i:m - i]
    return columns.transpose(0, 2, 1)


def check_effective_sample(n: int, lag: int) -> None:
    """Raise InsufficientData unless n observations leave n − lag ≥ 2·lag + 10."""
    n_eff = n - lag
    if n_eff < 2 * lag + 10:
        raise InsufficientData(
            f"{n_eff} effective observations after trimming, need {2 * lag + 10}"
        )


def restricted_fits(ys: np.ndarray, lag: int = 1) -> RestrictedFit:
    """The restricted regressions of tests at lag order ``lag``, one per row
    of the (k, m) matrix ``ys``.

    Each row is scaled by the power of two that puts its largest magnitude
    in [0.5, 1), then regressed on an intercept and its own lags over the
    test's effective sample, which must hold m − lag ≥ 2·lag + 10
    observations. Each keeps the tolerance under which a fit of the same
    response counts as exact: ``PERFECT_FIT_REL_TOL`` times the response's
    centered sum of squares, or its plain sum of squares when that is zero.
    """
    check_effective_sample(ys.shape[1], lag)
    ys = np.ldexp(ys, -np.frexp(np.maximum(ys.max(axis=1), -ys.min(axis=1)))[1][:, np.newaxis])
    response = ys[:, lag:]
    rss = ols(_designs(lag, ys), response)
    tss = ((response - response.mean(axis=1)[:, np.newaxis]) ** 2).sum(axis=1)
    scale = np.where(tss > 0.0, tss, (response * response).sum(axis=1))
    return RestrictedFit(ys, rss, PERFECT_FIT_REL_TOL * scale)


def f_statistics(restricted: RestrictedFit, xs: np.ndarray,
                 lag: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(F, exact fit, denominator degrees of freedom) of whether each row of
    ``xs``'s lags improves the matching row of ``restricted``'s regression.

    ``xs`` has the restricted series' length, and either of the two may
    hold one row for all the other's rows. The degrees of freedom are
    n_eff − 2·lag − 1, the unrestricted fit's residual ones, which
    :func:`upper_tail` takes. An unrestricted RSS of zero cannot feed the
    F ratio; such an exact fit reads F = inf when the cross terms produced
    it and F = 0 when y's own history already fit exactly. F reads NaN
    where the unrestricted design is rank deficient.
    """
    series = restricted.series
    df_den = (series.shape[1] - lag) - 2 * lag - 1
    rss = ols(_designs(lag, series, xs), series[:, lag:])
    exact = rss <= restricted.zero_tol
    # An exact fit's RSS may be zero; its F is set below.
    f_stats = np.maximum(0.0, restricted.rss - rss) / lag / (np.where(exact, 1.0, rss) / df_den)
    own_fit = restricted.rss <= restricted.zero_tol
    return np.where(exact, np.where(own_fit, 0.0, math.inf), f_stats), exact, df_den


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
    when y's own history already fit exactly. Raises RankDeficient where
    either design is.
    """
    restricted = restricted_fits(np.asarray(y, dtype=float)[np.newaxis], lag)
    (f_stat,), (perfect,), df_den = f_statistics(
        restricted, np.asarray(x, dtype=float)[np.newaxis], lag)
    if math.isnan(restricted.rss[0]) or math.isnan(f_stat):
        raise RankDeficient(f"design condition number exceeds {CONDITION_LIMIT:.0e}")
    p_value = float(upper_tail(lag, df_den, f_stat))
    return GrangerResult(
        f_stat=float(f_stat),
        p_value=p_value,
        df_num=lag,
        df_den=df_den,
        lag=lag,
        causal=p_value < alpha,
        alpha=alpha,
        perfect_fit=bool(perfect),
    )
