"""Lagged correlation: exact-arithmetic oracle checks plus edge handling."""

import math
import sys
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import align_lagged, pearson_exact, pearson_float_lists
from sentdep.analysis import kind_cells
from sentdep.core import (
    DEFAULT_THRESHOLD,
    ScoreKind,
    TradingCalendar,
    on_calendar,
)
from sentdep.errors import ConfigError, DegenerateSeries, InsufficientData
from sentdep.pearson import pearson
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
    [cell] = kind_cells("tax", ScoreKind.ABS_POSITIVE, sent, ["AAA"], price, config)
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
    """pearson(xs, ys), or None where the float oracle's variance is zero.

    There the coefficient is undefined and pearson must raise
    DegenerateSeries.
    """
    try:
        pearson_float_lists(xs, ys)
    except ZeroDivisionError:
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
# Unscaled, the sums overflow: r reads 0 at 2^1012 and fsum raises at 2^1016.
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


@given(varied_pair())
def test_numpy_deviations_equal_python_floats_bit_for_bit(pair):
    xs, ys = pair
    try:
        expected = pearson_float_lists(xs, ys)
    except ZeroDivisionError:
        with pytest.raises(DegenerateSeries):
            pearson(xs, ys)
        return
    assert pearson(xs, ys) == expected
    assert pearson(np.array(xs), np.array(ys)) == expected
