"""Nested-OLS causality test, the regression core, and the F upper tail."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from oracles import granger_f_exact, ols_exact
from sentdep.errors import InsufficientData, RankDeficient
from sentdep.granger import (
    GrangerResult,
    f_distribution_sf,
    granger_causes,
    ols,
)


class TestOls:
    def test_recovers_exact_line(self):
        t = np.arange(61, dtype=float)
        fit = ols(t, 2.0 + 3.0 * t)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-9)
        assert fit.rss <= 1e-9
        assert fit.n_obs == 61

    def test_constant_regressor_collides_with_intercept(self):
        t = np.arange(20, dtype=float)
        X = np.column_stack([t, np.full(20, 5.0)])
        with pytest.raises(RankDeficient):
            ols(X, 2.0 * t)

    def test_duplicated_column_is_rank_deficient(self):
        t = np.arange(20, dtype=float)
        with pytest.raises(RankDeficient):
            ols(np.column_stack([t, t]), 2.0 * t)

    def test_matches_rational_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(61, 3))
        y = 1.5 + X @ np.array([0.5, -2.0, 0.25]) + rng.normal(size=61)
        fit = ols(X, y)
        beta_exact, rss_exact = ols_exact([list(row) for row in X], list(y))
        for got, want in zip(fit.coefficients, beta_exact):
            assert got == pytest.approx(float(want), abs=1e-8)
        assert fit.rss == pytest.approx(float(rss_exact), rel=1e-10)

    def test_requires_residual_degree_of_freedom(self):
        # 2 parameters (intercept + slope) need at least 3 rows
        with pytest.raises(InsufficientData):
            ols([1.0, 2.0], [1.0, 2.0])
        fit = ols([1.0, 2.0, 3.0], [1.0, 2.0, 3.1])
        assert fit.n_obs == 3

    def test_rejects_nonfinite_inputs(self):
        t = np.arange(10, dtype=float)
        bad = t.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError):
            ols(bad, t)
        with pytest.raises(ValueError):
            ols(t, np.where(t == 4, np.inf, t))

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            ols(np.arange(5.0), np.arange(6.0))


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
        x = list(range(20))
        with pytest.raises(ValueError):
            granger_causes(x, x, lag=0)
        with pytest.raises(ValueError):
            granger_causes(x, x, lag=1, alpha=0.0)
        with pytest.raises(ValueError):
            granger_causes(x, x[:-1], lag=1)

    def test_lag_two_degrees_of_freedom(self):
        rng = np.random.default_rng(11)
        res = granger_causes(rng.normal(size=61), rng.normal(size=61), lag=2)
        assert res.df_num == 2
        assert res.df_den == 54  # 59 effective − 2·2 − 1
        assert res.lag == 2

    def test_result_consistency_enforced(self):
        with pytest.raises(ValueError):
            GrangerResult(f_stat=1.0, p_value=0.5, df_num=1, df_den=10,
                          lag=1, causal=True)
        with pytest.raises(ValueError):
            GrangerResult(f_stat=-1.0, p_value=0.5, df_num=1, df_den=10,
                          lag=1, causal=False)

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
            restricted = ols(y[:-1], resp)
            unrestricted = ols(np.column_stack([y[:-1], x[:-1]]), resp)
            assert unrestricted.rss <= restricted.rss + 1e-9 * max(1.0, restricted.rss)


class TestFUpperTail:
    def test_zero_statistic(self):
        assert f_distribution_sf(0.0, 1, 57) == 1.0

    def test_textbook_quantile(self):
        # 95th percentile of F(1, 10) is 4.9646
        assert f_distribution_sf(4.9646, 1, 10) == pytest.approx(0.05, abs=1e-3)

    def test_infinite_statistic(self):
        assert f_distribution_sf(math.inf, 3, 8) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_distribution_sf(-0.1, 1, 10)
        with pytest.raises(ValueError):
            f_distribution_sf(1.0, 0, 10)
        with pytest.raises(ValueError):
            f_distribution_sf(1.0, 1, 0)

    def test_against_scipy_grid(self):
        worst = 0.0
        for d1 in (1, 2, 3, 5, 10, 30):
            for d2 in (1, 2, 5, 12, 57, 120):
                for f in (1e-6, 0.1, 0.5, 1.0, 2.0, 4.9646, 10.0, 100.0, 1e4):
                    got = f_distribution_sf(f, d1, d2)
                    want = scipy.stats.f.sf(f, d1, d2)
                    worst = max(worst, abs(got - want))
        assert worst <= 1e-10

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_tail_probability_decreases_in_f(self, d1, d2, f1, f2):
        lo, hi = sorted((f1, f2))
        assert f_distribution_sf(lo, d1, d2) >= f_distribution_sf(hi, d1, d2)
        p = f_distribution_sf(f1, d1, d2)
        assert 0.0 <= p <= 1.0
