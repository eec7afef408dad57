"""Nested-OLS causality test, the regression core, and the F upper tail."""

import math

import numpy as np
import pytest
import scipy.stats

from oracles import granger_f_exact, ols_exact
from sentdep.errors import ConfigError, InsufficientData, RankDeficient
from sentdep.granger import granger_causes, ols
from sentdep.pipeline import check_values


def with_intercept(regressors):
    """The design of an intercept and ``regressors`` (a vector or columns)."""
    X = np.asarray(regressors, dtype=float)
    X = X[:, np.newaxis] if X.ndim == 1 else X
    return np.column_stack([np.ones(X.shape[0]), X])


class TestOls:
    def test_recovers_exact_line(self):
        t = np.arange(61, dtype=float)
        fit = ols(with_intercept(t), 2.0 + 3.0 * t)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-9)
        assert fit.rss <= 1e-9
        assert fit.n_obs == 61

    def test_constant_regressor_collides_with_intercept(self):
        t = np.arange(20, dtype=float)
        X = np.column_stack([t, np.full(20, 5.0)])
        with pytest.raises(RankDeficient):
            ols(with_intercept(X), 2.0 * t)

    def test_duplicated_column_is_rank_deficient(self):
        t = np.arange(20, dtype=float)
        with pytest.raises(RankDeficient):
            ols(with_intercept(np.column_stack([t, t])), 2.0 * t)

    def test_matches_rational_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(61, 3))
        y = 1.5 + X @ np.array([0.5, -2.0, 0.25]) + rng.normal(size=61)
        fit = ols(with_intercept(X), y)
        beta_exact, rss_exact = ols_exact([list(row) for row in X], list(y))
        for got, want in zip(fit.coefficients, beta_exact):
            assert got == pytest.approx(float(want), abs=1e-8)
        assert fit.rss == pytest.approx(float(rss_exact), rel=1e-10)

    def test_requires_residual_degree_of_freedom(self):
        # 2 parameters (intercept + slope) need at least 3 rows
        with pytest.raises(InsufficientData):
            ols(with_intercept([1.0, 2.0]), np.array([1.0, 2.0]))
        fit = ols(with_intercept([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.1]))
        assert fit.n_obs == 3


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
            restricted = ols(with_intercept(y[:-1]), resp)
            unrestricted = ols(with_intercept(np.column_stack([y[:-1], x[:-1]])), resp)
            assert unrestricted.rss <= restricted.rss + 1e-9 * max(1.0, restricted.rss)


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
