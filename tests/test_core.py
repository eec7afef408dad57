"""Trading calendar, domain types, and lag alignment."""

from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentdep.core import (
    AlignedPairs,
    PolarityLabel,
    PriceSeries,
    ScoreKind,
    SentimentSeries,
    TradingCalendar,
    align_lagged,
    paired_on_common_days,
)
from sentdep.errors import (
    EmptyAlignment,
    InsufficientHistory,
    NotTradingDay,
)

# A small October-2022 trading week fixture: Mon 3rd .. Fri 7th, then
# Mon 10th (weekend 8th/9th absent).
WEEK = [date(2022, 10, d) for d in (3, 4, 5, 6, 7, 10)]


def make_sentiment(values, aspect="inflation", kind=ScoreKind.ABS_POSITIVE):
    return SentimentSeries(aspect=aspect, kind=kind, values=values)


class TestTradingCalendar:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            TradingCalendar([date(2022, 1, 3), date(2022, 1, 3)])
        with pytest.raises(ValueError):
            TradingCalendar([date(2022, 1, 4), date(2022, 1, 3)])
        with pytest.raises(ValueError):
            TradingCalendar([])

    def test_from_dates_sorts_and_dedupes(self):
        cal = TradingCalendar.from_dates([WEEK[2], WEEK[0], WEEK[2], WEEK[1]])
        assert cal.days == tuple(WEEK[:3])

    def test_previous_skips_weekend(self):
        cal = TradingCalendar(WEEK)
        assert cal.previous(date(2022, 10, 10)) == date(2022, 10, 7)
        assert cal.previous(date(2022, 10, 10), k=2) == date(2022, 10, 6)
        assert cal.previous(date(2022, 10, 4)) == date(2022, 10, 3)

    def test_previous_errors(self):
        cal = TradingCalendar(WEEK)
        with pytest.raises(NotTradingDay):
            cal.previous(date(2022, 10, 8))  # a Saturday
        with pytest.raises(InsufficientHistory):
            cal.previous(WEEK[0])
        with pytest.raises(InsufficientHistory):
            cal.previous(WEEK[2], k=3)
        with pytest.raises(ValueError):
            cal.previous(WEEK[1], k=0)

    def test_membership_and_len(self):
        cal = TradingCalendar(WEEK)
        assert len(cal) == 6
        assert WEEK[0] in cal
        assert date(2022, 10, 8) not in cal


class TestDomainTypes:
    def test_polarity_round_trip(self):
        for label in PolarityLabel:
            assert PolarityLabel.from_string(label.value) is label
        with pytest.raises(ValueError):
            PolarityLabel.from_string("mixed")

    def test_score_kind_codes(self):
        assert [k.code for k in ScoreKind] == ["fp", "fn", "nfp", "nfn"]
        assert ScoreKind.from_code("nfn") is ScoreKind.NORM_NEGATIVE
        assert ScoreKind.ABS_POSITIVE.is_absolute
        assert not ScoreKind.NORM_POSITIVE.is_absolute
        with pytest.raises(ValueError):
            ScoreKind.from_code("fs")

    def test_absolute_series_rejects_fractions_and_negatives(self):
        with pytest.raises(ValueError):
            make_sentiment({WEEK[0]: 1.5})
        with pytest.raises(ValueError):
            make_sentiment({WEEK[0]: -1.0})
        make_sentiment({WEEK[0]: 4.0})  # fine

    def test_normalised_series_bounded(self):
        make_sentiment({WEEK[0]: 0.0, WEEK[1]: 1.0}, kind=ScoreKind.NORM_POSITIVE)
        with pytest.raises(ValueError):
            make_sentiment({WEEK[0]: 1.2}, kind=ScoreKind.NORM_NEGATIVE)

    def test_price_series_requires_positive_close(self):
        with pytest.raises(ValueError):
            PriceSeries(ticker="NEE", values={WEEK[0]: 0.0})
        with pytest.raises(ValueError):
            PriceSeries(ticker="", values={WEEK[0]: 10.0})


class TestAlignLagged:
    def test_basic_one_day_lag(self):
        cal = TradingCalendar(WEEK)
        x = make_sentiment({WEEK[0]: 3, WEEK[1]: 1, WEEK[2]: 4})
        y = PriceSeries(ticker="NEE", values={d: 30.0 + i for i, d in enumerate(WEEK)})
        aligned = align_lagged(x, y, cal, lag=1)
        # prices on days 1..3 pair with sentiment on days 0..2
        assert aligned.pairs == ((3.0, 31.0), (1.0, 32.0), (4.0, 33.0))
        assert aligned.lag_days == 1
        assert aligned.n == 3
        assert aligned.xs() == [3.0, 1.0, 4.0]
        assert aligned.ys() == [31.0, 32.0, 33.0]

    def test_weekend_sentiment_never_consulted(self):
        # Sentiment exists on Saturday the 8th; Monday's price must pair
        # with Friday's sentiment instead.
        cal = TradingCalendar(WEEK)
        x = make_sentiment({date(2022, 10, 7): 2, date(2022, 10, 8): 99})
        y = PriceSeries(ticker="BP", values={date(2022, 10, 10): 32.0})
        aligned = align_lagged(x, y, cal)
        assert aligned.pairs == ((2.0, 32.0),)

    def test_pairwise_deletion_on_missing_sentiment(self):
        cal = TradingCalendar(WEEK)
        x = make_sentiment({WEEK[0]: 1, WEEK[3]: 5})  # gap on days 1, 2
        y = PriceSeries(ticker="BP", values={d: 30.0 for d in WEEK})
        aligned = align_lagged(x, y, cal)
        assert [p[0] for p in aligned.pairs] == [1.0, 5.0]

    def test_price_on_unknown_day_skipped(self):
        cal = TradingCalendar(WEEK[:3])
        x = make_sentiment({WEEK[0]: 1, WEEK[1]: 2})
        y = PriceSeries(
            ticker="BP", values={WEEK[1]: 31.0, WEEK[2]: 32.0, date(2022, 12, 1): 40.0}
        )
        aligned = align_lagged(x, y, cal)
        assert aligned.n == 2

    def test_lag_two(self):
        cal = TradingCalendar(WEEK)
        x = make_sentiment({WEEK[0]: 7})
        y = PriceSeries(ticker="BP", values={WEEK[2]: 31.0})
        aligned = align_lagged(x, y, cal, lag=2)
        assert aligned.pairs == ((7.0, 31.0),)

    def test_empty_alignment_raises(self):
        cal = TradingCalendar(WEEK)
        x = make_sentiment({WEEK[5]: 1})  # only on the last day
        y = PriceSeries(ticker="BP", values={WEEK[0]: 30.0})
        with pytest.raises(EmptyAlignment):
            align_lagged(x, y, cal)

    def test_lag_must_be_positive(self):
        cal = TradingCalendar(WEEK)
        x = make_sentiment({WEEK[0]: 1})
        y = PriceSeries(ticker="BP", values={WEEK[1]: 30.0})
        with pytest.raises(ValueError):
            align_lagged(x, y, cal, lag=0)


def test_paired_on_common_days_keeps_same_dates():
    cal = TradingCalendar(WEEK)
    x = make_sentiment({WEEK[0]: 1, WEEK[1]: 2, WEEK[4]: 3, date(2022, 10, 9): 9})
    y = PriceSeries(ticker="BP", values={WEEK[0]: 30.0, WEEK[1]: 31.0, WEEK[2]: 32.0})
    xs, ys = paired_on_common_days(x, y, cal)
    assert xs == [1.0, 2.0]
    assert ys == [30.0, 31.0]


@given(
    st.lists(st.integers(min_value=0, max_value=120), min_size=3, max_size=40, unique=True),
    st.integers(min_value=1, max_value=3),
)
def test_alignment_pairs_are_chronological_and_lag_consistent(day_offsets, lag):
    """Every pair must be (x on the lag-th prior calendar day, y on day t)."""
    base = date(2022, 10, 3)
    days = sorted(base + timedelta(days=o) for o in day_offsets)
    cal = TradingCalendar(days)
    x_values = {d: float(i) for i, d in enumerate(days)}
    y_values = {d: 100.0 + i for i, d in enumerate(days)}
    x = make_sentiment(x_values)
    y = PriceSeries(ticker="T", values=y_values)
    if len(days) <= lag:
        return
    aligned = align_lagged(x, y, cal, lag=lag)
    assert aligned.n == len(days) - lag
    for x_val, y_val in aligned.pairs:
        # y on days[i] pairs with x on days[i - lag]: indices differ by lag
        assert (y_val - 100.0) - x_val == lag
    assert aligned.ys() == sorted(aligned.ys())
