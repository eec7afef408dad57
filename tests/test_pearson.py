"""Lagged correlation: exact-arithmetic oracle checks plus edge handling."""

import math
import sys
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import align_lagged, pearson_exact
from sentdep.analysis import kind_cells
from sentdep.core import (
    DEFAULT_THRESHOLD,
    ScoreKind,
    TradingCalendar,
    on_calendar,
)
from sentdep.errors import ConfigError, DegenerateSeries, InsufficientData
from sentdep.pearson import MIN_PAIRS, centered_rows, correlations, pearson
from sentdep.pipeline import PipelineConfig, check_values


#: Positive counts and closes shaped like the fixture's planted cell
#: (close = 30 + 0.9 x the previous day's count, plus noise).
COUNTS = [3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 1.0, 7.0]
PRICES = [32.71, 33.94, 35.43, 31.87, 37.12, 33.68, 35.46, 30.83]


class TestPearson:
    def test_perfect_positive(self):
        r = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        assert r == 1.0

    def test_perfect_negative(self):
        r = pearson([1.0, 2.0, 3.0], [5.0, 3.0, 1.0])
        assert r == -1.0

    def test_known_small_case(self):
        xs = [1.0, 2.0, 4.0, 5.0]
        ys = [1.0, 3.0, 3.0, 6.0]
        assert pearson(xs, ys) == pytest.approx(pearson_exact(xs, ys), abs=1e-15)

    def test_matches_exact_oracle_on_random_series(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xs = rng.normal(size=31).tolist()
            ys = (0.4 * np.asarray(xs) + rng.normal(size=31)).tolist()
            assert pearson(xs, ys) == pytest.approx(pearson_exact(xs, ys), abs=1e-10)

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientData):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeries):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSeries):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_near_constant_is_not_constant(self):
        # tiny but real variation must not be mistaken for a flat series
        xs = [1.0, 1.0 + 1e-12, 1.0]
        r = pearson(xs, [1.0, 2.0, 1.0])
        assert r == pytest.approx(1.0)

    def test_tiny_values_keep_their_correlation(self):
        # Unscaled, the squared deviations of ys underflow to zero.
        xs, ys = [1.0, 0.0, 0.0], [0.0, 0.0, 5.44562600914303e-212]
        assert pearson(xs, ys) == pytest.approx(pearson_exact(xs, ys), abs=1e-15)


def lagged_cell(xs, ys, config):
    """The cell of (tax, fp, AAA), ys[i] being the close one day after
    sentiment xs[i]."""
    days = [date(2022, 10, 3) + timedelta(days=i) for i in range(len(xs) + 1)]
    cal = TradingCalendar(days)
    sent = np.array(on_calendar(dict(zip(days, xs)), cal))
    price = np.array([on_calendar(dict(zip(days[1:], ys)), cal)])
    [cell] = kind_cells("tax", {ScoreKind.ABS_POSITIVE: sent}, ["AAA"], price, config)
    return cell


class TestClassify:
    """The paper's significance rule, |r| strictly above the threshold, as
    a cell applies it."""

    def test_threshold_is_strict(self):
        r = lagged_cell(COUNTS, PRICES, PipelineConfig()).r
        assert 0.0 < abs(r) < 1.0
        at = lagged_cell(COUNTS, PRICES, PipelineConfig(pearson_threshold=abs(r)))
        assert at.r == r and at.r_significant is False
        below = PipelineConfig(pearson_threshold=math.nextafter(abs(r), 0.0))
        assert lagged_cell(COUNTS, PRICES, below).r_significant is True

    def test_default_threshold(self):
        assert DEFAULT_THRESHOLD == 0.4
        assert PipelineConfig().pearson_threshold == DEFAULT_THRESHOLD

    def test_bad_threshold(self):
        # the config rule is the one check of the threshold
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\), got -0.1"):
            check_values(pearson_threshold=-0.1)
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\), got 1.0"):
            check_values(pearson_threshold=1.0)


class TestCorrelate:
    """r of lag-aligned pairs."""

    def test_wraps_pearson_with_verdict(self):
        cell = lagged_cell(COUNTS, PRICES, PipelineConfig())
        assert cell.n == len(COUNTS)
        assert cell.r == pearson(COUNTS, PRICES)
        assert cell.r_significant == (abs(cell.r) > 0.4)

    def test_end_to_end_with_alignment(self):
        days = [date(2022, 10, 3) + timedelta(days=i) for i in range(5)]
        cal = TradingCalendar(days)
        sent = {d: float(i) for i, d in enumerate(days)}
        price = {d: 50.0 + 2.0 * i for i, d in enumerate(days)}
        aligned = align_lagged(on_calendar(sent, cal), on_calendar(price, cal))
        r = pearson(aligned.xs(), aligned.ys())
        assert r == 1.0 and abs(r) > DEFAULT_THRESHOLD


# --- properties -------------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@st.composite
def varied_pair(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    xs = draw(st.lists(finite_floats, min_size=n, max_size=n))
    ys = draw(st.lists(finite_floats, min_size=n, max_size=n))
    if max(xs) == min(xs):
        xs[0] += 1.0
    if max(ys) == min(ys):
        ys[0] -= 1.0
    return xs, ys


@given(varied_pair())
def test_r_is_bounded_and_symmetric(pair):
    xs, ys = pair
    r = pearson(xs, ys)
    assert -1.0 <= r <= 1.0
    assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)


def pearson_unless_degenerate(xs, ys):
    """pearson(xs, ys), or None where either side is constant.

    There the coefficient is undefined and pearson must raise
    DegenerateSeries.
    """
    if max(xs) == min(xs) or max(ys) == min(ys):
        with pytest.raises(DegenerateSeries):
            pearson(xs, ys)
        return None
    return pearson(xs, ys)


@given(varied_pair(),
       st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=-100.0, max_value=100.0))
# the squared deviations of ys underflow to zero
@example(([1.0, 0.0, 0.0], [0.0, 0.0, 5.4e-212]), 1.0, 0.0)
def test_positive_affine_map_preserves_r(pair, scale, shift):
    xs, ys = pair
    r = pearson_unless_degenerate(xs, ys)
    mapped = pearson_unless_degenerate([scale * x + shift for x in xs], ys)
    flipped = pearson_unless_degenerate([-scale * x + shift for x in xs], ys)
    if None in (r, mapped, flipped):
        return
    assert mapped == pytest.approx(r, abs=1e-9)
    assert flipped == pytest.approx(-r, abs=1e-9)


def scaled_stays_normal(values, exponent):
    """Every nonzero value times 2**exponent is a normal float."""
    low, high = sys.float_info.min_exp, sys.float_info.max_exp
    return all(v == 0.0 or low <= math.frexp(v)[1] + exponent <= high for v in values)


@settings(max_examples=60, derandomize=True)
@given(varied_pair(), st.integers(-1000, 1000), st.integers(-1000, 1000))
# Unscaled, the sums of squares overflow at both exponents.
@example((COUNTS, PRICES), 0, 1012)
@example((COUNTS, PRICES), 0, 1016)
def test_power_of_two_scaling_keeps_every_bit(pair, a, b):
    xs, ys = pair
    assume(scaled_stays_normal(xs, a) and scaled_stays_normal(ys, b))
    scaled = pearson([math.ldexp(x, a) for x in xs], [math.ldexp(y, b) for y in ys])
    assert scaled == pearson(xs, ys)


@given(varied_pair())
def test_agrees_with_rational_arithmetic(pair):
    xs, ys = pair
    try:
        expected = pearson_exact(xs, ys)
    except ZeroDivisionError:
        pytest.skip("constant after float rounding")
    assert pearson(xs, ys) == pytest.approx(expected, abs=1e-10)
    assert math.isfinite(pearson(xs, ys))


#: The largest |r − exact r| of a series pair of n ≤ 1,260 values, each with
#: its largest magnitude at most 1e6 root-mean-square deviations
#: (:data:`MAX_SPREAD_RATIO`); derived in
#: :func:`test_r_is_within_the_summation_bound_of_rational_arithmetic`.
SUMMATION_BOUND = 1e-14

MAX_SPREAD_RATIO = 1e6


def spread_ratio(values: np.ndarray) -> float:
    """The largest magnitude of ``values`` over their root-mean-square deviation."""
    v = values / np.abs(values).max()
    return float(1.0 / np.sqrt(((v - v.mean()) ** 2).mean()))


@st.composite
def long_series(draw, n):
    """n values shaped like a sentiment or a close: noise, tie-heavy counts,
    a random walk, or noise on an offset up to 1e5 times its spread."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["noise", "counts", "walk", "offset"]))
    if shape == "noise":
        return rng.normal(size=n) * 10.0 ** draw(st.integers(-300, 300))
    if shape == "counts":
        return rng.poisson(draw(st.floats(0.5, 20.0)), size=n).astype(float)
    if shape == "walk":
        return 30.0 + np.cumsum(rng.normal(size=n))
    return 10.0 ** draw(st.integers(0, 5)) + rng.normal(size=n)


@st.composite
def long_pair(draw):
    n = draw(st.integers(MIN_PAIRS, 1260))
    return draw(long_series(n)), draw(long_series(n))


@settings(max_examples=60)
@given(long_pair())
@example((np.arange(1260.0) % 7, 1e5 + np.cos(np.arange(1260.0))))
def test_r_is_within_the_summation_bound_of_rational_arithmetic(pair):
    """r lies within SUMMATION_BOUND = 1e-14 of the exact r.

    With u = 2^-53, numpy's pairwise sum of n ≤ 1,260 terms passes each
    term through at most m = 30 roundings: at most 4 halvings down to
    blocks of at most 128 terms, 15 additions in one of 8 accumulators, 3
    to join them, 7 for the leftover terms and 1 for the reduction's first
    term. So a computed sum errs by at most γ_m·Σ|terms|, with
    γ_m = m·u/(1 − m·u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, §4.2). Each deviation fl(v − mean) adds one rounding
    and each product one more, so a sum of products errs by at most
    γ_{m+3} times the sum of the products' magnitudes: by Cauchy–Schwarz,
    at most γ_{m+3}·sqrt(Sxx·Syy) for the cross-sum, and γ_{m+3}·S for a
    sum of squares S. The product, square root and division of the last
    step add 3 roundings. To first order, r then errs by at most
    (2(m + 3) + 3)·u = 69·u < 7.7e-15 from the exact r of the deviations
    from the computed means. A computed mean errs by δ ≤ γ_{m+1}·max|v|,
    and the exact r of deviations from means that are off by δ_x and δ_y
    differs from r by at most a² + b², with a = δ_x·sqrt(n/Sxx) ≤
    γ_{m+1}·κ_x, b likewise, and κ the largest magnitude over the
    root-mean-square deviation. For κ ≤ 1e6 that is below 2.4e-17.
    """
    xs, ys = pair
    assume(max(xs) != min(xs) and max(ys) != min(ys))
    assume(spread_ratio(xs) <= MAX_SPREAD_RATIO and spread_ratio(ys) <= MAX_SPREAD_RATIO)
    assert abs(pearson(xs, ys) - pearson_exact(xs, ys)) <= SUMMATION_BOUND


@st.composite
def stacked_rows(draw):
    """A matrix of k ≤ 12 series of one length, among them constant rows
    and rows that differ only by a power of two or by their order."""
    n = draw(st.integers(MIN_PAIRS, 1300))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["series", "constant", "scaled copy"]))
        if kind == "constant":
            rows.append(np.full(n, draw(finite_floats)))
        elif kind == "scaled copy" and rows:
            top = np.frexp(np.abs(rows[-1]).max())[1]
            rows.append(np.ldexp(rows[-1], draw(st.integers(-500, 500)) - top))
        else:
            rows.append(draw(long_series(n)))
    return np.array(rows), draw(st.permutations(range(len(rows))))


@settings(max_examples=60)
@given(stacked_rows())
def test_stacked_sides_and_cross_sums_equal_one_row_calls(stack):
    """Each row's side and r, computed with any other rows in any order,
    equal the one-row calls bit for bit; a constant row fails alone."""
    rows, order = stack
    x = np.sin(np.arange(rows.shape[1]))
    (dx,), (sxx,) = centered_rows(x[np.newaxis])
    for matrix, places in ((rows, range(len(rows))), (rows[order], order)):
        dys, syys = centered_rows(matrix)
        rs = correlations(dys, syys, dx, sxx)
        for j, place in enumerate(places):
            row = rows[place]
            (dy,), (syy,) = centered_rows(row[np.newaxis])
            if row.max() == row.min():
                assert np.isnan(syys[j]) and np.isnan(syy) and np.isnan(rs[j])
                with pytest.raises(DegenerateSeries):
                    pearson(x, row)
                continue
            assert np.array_equal(dys[j], dy) and syys[j] == syy
            assert rs[j] == pearson(x, row)
