"""Nested-OLS causality test, the regression core, and the F upper tail."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import granger_f_exact, ols_exact
from sentdep.errors import ConfigError, InsufficientData, RankDeficient
from sentdep.granger import CONDITION_LIMIT, f_statistics, granger_causes, ols, restricted_fits
from sentdep.pipeline import check_values


def with_intercept(regressors):
    """The design of an intercept and ``regressors`` (a vector or columns)."""
    X = np.asarray(regressors, dtype=float)
    X = X[:, np.newaxis] if X.ndim == 1 else X
    return np.column_stack([np.ones(X.shape[0]), X])


def ols_one(design, response) -> float:
    """The RSS of one design's fit, as a stack of one."""
    (rss,) = ols(design[np.newaxis], np.asarray(response, dtype=float)[np.newaxis])
    return rss


class TestOls:
    def test_recovers_exact_line(self):
        t = np.arange(61, dtype=float)
        assert ols_one(with_intercept(t), 2.0 + 3.0 * t) <= 1e-9

    def test_constant_regressor_collides_with_intercept(self):
        t = np.arange(20, dtype=float)
        X = np.column_stack([t, np.full(20, 5.0)])
        assert np.isnan(ols_one(with_intercept(X), 2.0 * t))

    def test_duplicated_column_is_rank_deficient(self):
        t = np.arange(20, dtype=float)
        assert np.isnan(ols_one(with_intercept(np.column_stack([t, t])), 2.0 * t))

    def test_matches_rational_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(61, 3))
        y = 1.5 + X @ np.array([0.5, -2.0, 0.25]) + rng.normal(size=61)
        _, rss_exact = ols_exact([list(row) for row in X], list(y))
        assert ols_one(with_intercept(X), y) == pytest.approx(float(rss_exact), rel=1e-10)

    def test_requires_residual_degree_of_freedom(self):
        # 2 parameters (intercept + slope) need at least 3 rows
        with pytest.raises(InsufficientData):
            ols_one(with_intercept([1.0, 2.0]), [1.0, 2.0])
        assert np.isfinite(ols_one(with_intercept([1.0, 2.0, 3.0]), [1.0, 2.0, 3.1]))


class TestGrangerCauses:
    def test_planted_lagged_signal_is_detected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=61)
        y = np.empty(61)
        y[0] = rng.normal(0.0, 0.1)
        for t in range(1, 61):
            y[t] = 0.8 * x[t - 1] + rng.normal(0.0, 0.1)
        res = granger_causes(x, y, lag=1)
        assert res.causal and res.p_value < 1e-3
        assert res.df_num == 1 and res.df_den == 57
        assert res.f_stat == pytest.approx(granger_f_exact(list(x), list(y), lag=1),
                                           rel=1e-6)

    def test_reverse_direction_stays_quiet(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=61)
        y = np.empty(61)
        y[0] = rng.normal(0.0, 0.1)
        for t in range(1, 61):
            y[t] = 0.8 * x[t - 1] + rng.normal(0.0, 0.1)
        rev = granger_causes(y, x, lag=1)
        assert not rev.causal and rev.p_value > 0.05

    def test_independent_noise_not_causal(self):
        rng = np.random.default_rng(42)
        res = granger_causes(rng.normal(size=61), rng.normal(size=61), lag=1)
        assert not res.causal
        assert res.p_value == pytest.approx(0.2138877048, abs=1e-6)

    def test_self_explaining_series_takes_perfect_fit_path(self):
        # y follows its own past exactly, so both models fit with zero
        # residual: no evidence for x, reported via the perfect-fit flag.
        y = 0.9 ** np.arange(61, dtype=float)
        x = np.random.default_rng(5).normal(size=61)
        res = granger_causes(x, y, lag=1)
        assert res.f_stat == 0.0
        assert res.p_value == 1.0
        assert not res.causal
        assert res.perfect_fit

    def test_exact_cross_fit_is_causal_with_flag(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=61)
        y = np.empty(61)
        y[0] = 0.5
        y[1:] = x[:-1]
        res = granger_causes(x, y, lag=1)
        assert math.isinf(res.f_stat)
        assert res.p_value == 0.0
        assert res.causal and res.perfect_fit

    def test_constant_response_is_rank_deficient(self):
        x = np.random.default_rng(8).normal(size=61)
        with pytest.raises(RankDeficient):
            granger_causes(x, np.full(61, 3.0), lag=1)

    def test_effective_sample_floor(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InsufficientData):
            granger_causes(rng.normal(size=12), rng.normal(size=12), lag=1)
        res = granger_causes(rng.normal(size=13), rng.normal(size=13), lag=1)
        assert res.df_den == 12 - 2 - 1
        with pytest.raises(InsufficientData):
            granger_causes(rng.normal(size=15), rng.normal(size=15), lag=2)

    def test_parameter_validation(self):
        # the config rules are the one check of the lag order and alpha
        with pytest.raises(ConfigError, match="granger_lag must be >= 1, got 0"):
            check_values(granger_lag=0)
        for alpha in (0.0, 1.0):
            with pytest.raises(ConfigError, match=rf"granger_alpha must lie in \(0, 1\), "
                                                  rf"got {alpha}"):
                check_values(granger_alpha=alpha)

    def test_lag_two_degrees_of_freedom(self):
        rng = np.random.default_rng(11)
        res = granger_causes(rng.normal(size=61), rng.normal(size=61), lag=2)
        assert res.df_num == 2
        assert res.df_den == 54  # 59 effective − 2·2 − 1
        assert res.lag == 2

    def test_affine_maps_leave_f_unchanged(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=40)
            y = 0.3 * np.roll(x, 1) + rng.normal(size=40)
            base = granger_causes(x, y, lag=1)
            moved = granger_causes(2.5 * x - 7.0, -0.5 * y + 3.0, lag=1)
            assert moved.f_stat == pytest.approx(base.f_stat, rel=1e-8, abs=1e-8)
            assert moved.p_value == pytest.approx(base.p_value, rel=1e-8, abs=1e-12)

    def test_unrestricted_model_never_fits_worse(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            resp = y[1:]
            restricted = ols_one(with_intercept(y[:-1]), resp)
            unrestricted = ols_one(with_intercept(np.column_stack([y[:-1], x[:-1]])), resp)
            assert unrestricted <= restricted + 1e-9 * max(1.0, restricted)


class TestFUpperTail:
    def test_against_scipy_grid(self):
        # p is the upper tail of F(q, df_den) at the test's F statistic
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for lag in (1, 2, 3):
                x = rng.normal(size=40)
                y = 0.2 * np.roll(x, lag) + rng.normal(size=40)
                res = granger_causes(x, y, lag=lag)
                assert not res.perfect_fit
                assert res.p_value == scipy.stats.f(res.df_num, res.df_den).sf(res.f_stat)


# --- stacks -------------------------------------------------------------------


@st.composite
def stacked_tests(draw):
    """A lag, and k ≤ 10 (x, y) pairs of one length whose tests may fail:
    a constant y (a rank-deficient restricted design), a constant x (a
    rank-deficient unrestricted one), a y that x's lags set exactly, a y
    that follows its own lags exactly, and pairs that are power-of-two
    multiples of another pair."""
    lag = draw(st.integers(1, 3))
    n = draw(st.integers(3 * lag + 10, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["noise", "walk", "constant y", "constant x", "exact cross",
                                     "exact own", "scaled copy"]))
        x, y = rng.normal(size=n), 30.0 + np.cumsum(rng.normal(size=n))
        if kind == "noise":
            y = rng.normal(size=n) * 10.0 ** draw(st.integers(-150, 150))
        elif kind == "constant y":
            y = np.full(n, 7.5)
        elif kind == "constant x":
            x = np.full(n, -2.0)
        elif kind == "exact cross":
            y = np.concatenate([rng.normal(size=lag), 3.0 - 2.0 * x[:-lag]])
        elif kind == "exact own":
            y = 0.9 ** np.arange(n, dtype=float)
        elif kind == "scaled copy" and pairs:
            x, y = (np.ldexp(v, draw(st.integers(-500, 500)) - np.frexp(np.abs(v).max())[1])
                    for v in pairs[-1])
        pairs.append((x, y))
    return lag, pairs, draw(st.permutations(range(len(pairs))))


def one_row_test(x, y, lag):
    """granger_causes(x, y) as (F, exact fit), or the class of its error."""
    try:
        result = granger_causes(x, y, lag=lag)
    except RankDeficient:
        return RankDeficient
    return result.f_stat, result.perfect_fit


@settings(max_examples=60)
@given(stacked_tests())
def test_stacked_fits_equal_one_row_calls(case):
    """Each row of a stack of restricted fits, unrestricted fits and F, in
    any order and beside any other rows, equals the one-row call bit for
    bit; a row that fails fails alone."""
    lag, pairs, order = case
    expected = [one_row_test(x, y, lag) for x, y in pairs]
    for places in (range(len(pairs)), order):
        xs = np.array([pairs[j][0] for j in places])
        ys = np.array([pairs[j][1] for j in places])
        restricted = restricted_fits(ys, lag)
        f_stats, exact, _ = f_statistics(restricted, xs, lag)
        for j, place in enumerate(places):
            if np.isnan(restricted.rss[j]) or np.isnan(f_stats[j]):
                assert expected[place] is RankDeficient
            else:
                assert (f_stats[j], exact[j]) == expected[place]
        # the responses as the tests scale them
        ys = restricted.series
        designs = np.stack([np.column_stack([np.ones(len(x) - lag), x[:-lag], y[:-lag]])
                            for x, y in zip(xs, ys)])
        rss = ols(designs, ys[:, lag:])
        for j, (design, y) in enumerate(zip(designs, ys)):
            assert np.array_equal(rss[j], ols_one(design, y[lag:]), equal_nan=True)


def scaled_singular_values(design):
    """The singular values of ``design`` with each column scaled as ols scales it."""
    return np.linalg.svd(np.ldexp(design, -np.frexp(np.abs(design).max(axis=0))[1]),
                         compute_uv=False)


def test_condition_check_reads_each_rows_own_singular_values():
    """A design just inside CONDITION_LIMIT still fits when it shares its
    stack with a design whose largest singular value would put it outside."""
    rng = np.random.default_rng(7)
    n = 200
    x, noise, y = rng.normal(size=(3, n))

    def near(eps):
        return np.column_stack([np.ones(n), x, x + eps * noise])

    eps = 1e-8
    for _ in range(3):
        s = scaled_singular_values(near(eps))
        eps *= s[0] / s[-1] / (0.8 * CONDITION_LIMIT)
    wide = np.column_stack([np.ones(n), rng.uniform(0.5, 1.0, size=(n, 2))])
    s, s_wide = scaled_singular_values(near(eps)), scaled_singular_values(wide)
    assert s[0] / s[-1] < CONDITION_LIMIT < s_wide[0] / s[-1]
    rss = ols(np.stack([near(eps), wide]), np.stack([y, y]))
    # NaN equals nothing, so neither row may read rank deficient
    assert rss[0] == ols_one(near(eps), y)
    assert rss[1] == ols_one(wide, y)
