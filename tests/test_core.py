"""Trading calendar, domain types, calendar rows, and the lag alignment
of the oracle cells."""

from array import array
from datetime import date, timedelta

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import numpy as np

from oracles import NoPairs, align_lagged, label_cells, on_calendar_numpy, paired_on_common_days
from sentdep.core import (
    PolarityLabel,
    ScoreKind,
    TradingCalendar,
    on_calendar,
)
from sentdep.errors import ConfigError, FormatError
from sentdep.ingest import parse_labeled, write_labeled
from sentdep.pipeline import check_values
from sentdep.scores import read_scores

# A small October-2022 trading week fixture: Mon 3rd .. Fri 7th, then
# Mon 10th (weekend 8th/9th absent).
WEEK = [date(2022, 10, d) for d in (3, 4, 5, 6, 7, 10)]


def read_score_row(tmp_path, kind, value):
    """The series read_scores makes of one (tax, WEEK[0], kind, value) row."""
    p = tmp_path / "scores.csv"
    p.write_text(f"aspect,date,kind,value\ntax,{WEEK[0]},{kind.code},{value}\n",
                 encoding="utf-8")
    return read_scores(p)[0][("tax", kind)]


class TestTradingCalendar:
    def test_sorts_and_dedupes(self):
        cal = TradingCalendar(iter([WEEK[2], WEEK[0], WEEK[2], WEEK[1]]))
        assert cal.days == tuple(WEEK[:3])

    def test_membership_and_len(self):
        cal = TradingCalendar(WEEK)
        assert len(cal) == 6
        assert WEEK[0] in cal.days
        assert date(2022, 10, 8) not in cal.days


class TestDomainTypes:
    def test_polarity_round_trip(self, tmp_path):
        p = tmp_path / "labels.csv"
        # One aspect per polarity, so each count must land in its own column.
        labels = [("t1", WEEK[0], label.value, label) for label in PolarityLabel]
        write_labeled(labels, p)
        cells = parse_labeled(p)
        assert cells == label_cells(labels)
        assert {aspect: tuple(cell) for (aspect, _), cell in cells.items()} == {
            "positive": (1, 0, 0), "negative": (0, 1, 0), "neutral": (0, 0, 1)}
        p.write_text("tweet_id,date,aspect,polarity\nt1,2022-10-03,tax,mixed\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match="labels.csv:2: unknown polarity 'mixed'"):
            parse_labeled(p)

    def test_score_kind_codes(self):
        assert [k.code for k in ScoreKind] == ["fp", "fn", "nfp", "nfn"]
        assert ScoreKind("nfn") is ScoreKind.NORM_NEGATIVE
        assert ScoreKind.ABS_POSITIVE.is_absolute
        assert not ScoreKind.NORM_POSITIVE.is_absolute

    def test_absolute_series_rejects_fractions_and_negatives(self, tmp_path):
        with pytest.raises(FormatError):
            read_score_row(tmp_path, ScoreKind.ABS_POSITIVE, 1.5)
        with pytest.raises(FormatError):
            read_score_row(tmp_path, ScoreKind.ABS_POSITIVE, -1.0)
        assert read_score_row(tmp_path, ScoreKind.ABS_POSITIVE, 4.0) == {WEEK[0]: 4.0}

    def test_normalised_series_bounded(self, tmp_path):
        assert read_score_row(tmp_path, ScoreKind.NORM_POSITIVE, 0.0) == {WEEK[0]: 0.0}
        assert read_score_row(tmp_path, ScoreKind.NORM_POSITIVE, 1.0) == {WEEK[0]: 1.0}
        with pytest.raises(FormatError):
            read_score_row(tmp_path, ScoreKind.NORM_NEGATIVE, 1.2)


def on_cal(cal, x, y):
    """The calendar rows of a sentiment and a price series."""
    return on_calendar(x, cal), on_calendar(y, cal)


class TestOnCalendar:
    def test_indexes_by_trading_day_with_nan_for_missing(self):
        cal = TradingCalendar(WEEK)
        row = on_calendar({WEEK[1]: 2.0, WEEK[5]: 7.0, date(2022, 10, 8): 9.0}, cal)
        assert isinstance(row, array) and row.typecode == "d" and len(row) == 6
        assert row[1] == 2.0 and row[5] == 7.0
        # the Saturday is off the calendar and dropped; other days are missing
        assert np.isnan(np.array(row)[[0, 2, 3, 4]]).all()


#: Values of a daily series: both zeros, and every other float a score or
#: a close can hold (no NaN, which no reader returns).
series_values = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(allow_nan=False, allow_infinity=True))


@given(
    st.sets(st.integers(min_value=0, max_value=60), min_size=1),
    st.dictionaries(st.integers(min_value=-5, max_value=65), series_values),
)
@example(calendar_days={0, 1, 2, 4}, values={1: -0.0, 2: 0.0, 3: 9.0, -1: 1.0, 70: 2.0})
def test_calendar_row_equals_the_numpy_array_bit_for_bit(calendar_days, values):
    """The numpy-free row holds the bytes of a float64 array filled by numpy,
    with days off the calendar dropped and days without a value NaN."""
    base = date(2022, 10, 3)
    cal = TradingCalendar(base + timedelta(days=o) for o in calendar_days)
    series = {base + timedelta(days=o): v for o, v in values.items()}
    row = on_calendar(series, cal)
    expected = on_calendar_numpy(series, cal)
    assert row.tobytes() == expected.tobytes()
    assert np.array(row).tobytes() == expected.tobytes()


class TestAlignLagged:
    def test_basic_one_day_lag(self):
        cal = TradingCalendar(WEEK)
        x = {WEEK[0]: 3, WEEK[1]: 1, WEEK[2]: 4}
        y = {d: 30.0 + i for i, d in enumerate(WEEK)}
        aligned = align_lagged(*on_cal(cal, x, y), lag=1)
        # prices on days 1..3 pair with sentiment on days 0..2
        assert aligned.pairs.tolist() == [[3.0, 31.0], [1.0, 32.0], [4.0, 33.0]]
        assert aligned.lag_days == 1
        assert aligned.n == 3
        assert aligned.xs().tolist() == [3.0, 1.0, 4.0]
        assert aligned.ys().tolist() == [31.0, 32.0, 33.0]

    def test_weekend_sentiment_never_consulted(self):
        # Sentiment exists on Saturday the 8th; Monday's price must pair
        # with Friday's sentiment instead.
        cal = TradingCalendar(WEEK)
        x = {date(2022, 10, 7): 2, date(2022, 10, 8): 99}
        y = {date(2022, 10, 10): 32.0}
        aligned = align_lagged(*on_cal(cal, x, y))
        assert aligned.pairs.tolist() == [[2.0, 32.0]]

    def test_pairwise_deletion_on_missing_sentiment(self):
        cal = TradingCalendar(WEEK)
        x = {WEEK[0]: 1, WEEK[3]: 5}  # gap on days 1, 2
        y = {d: 30.0 for d in WEEK}
        aligned = align_lagged(*on_cal(cal, x, y))
        assert [p[0] for p in aligned.pairs.tolist()] == [1.0, 5.0]

    def test_price_on_unknown_day_skipped(self):
        cal = TradingCalendar(WEEK[:3])
        x = {WEEK[0]: 1, WEEK[1]: 2}
        y = {WEEK[1]: 31.0, WEEK[2]: 32.0, date(2022, 12, 1): 40.0}
        aligned = align_lagged(*on_cal(cal, x, y))
        assert aligned.n == 2

    def test_lag_two(self):
        cal = TradingCalendar(WEEK)
        x = {WEEK[0]: 7}
        y = {WEEK[2]: 31.0}
        aligned = align_lagged(*on_cal(cal, x, y), lag=2)
        assert aligned.pairs.tolist() == [[7.0, 31.0]]
        # the mask runs over the price days WEEK[2:]
        assert aligned.kept.tolist() == [True, False, False, False]

    def test_empty_alignment_raises(self):
        cal = TradingCalendar(WEEK)
        x = {WEEK[5]: 1}  # only on the last day
        y = {WEEK[0]: 30.0}
        with pytest.raises(NoPairs):
            align_lagged(*on_cal(cal, x, y))

    def test_lag_must_be_positive(self):
        # the config rule is the one check of the lag
        with pytest.raises(ConfigError, match="lag must be >= 1, got 0"):
            check_values(lag=0)


def test_paired_on_common_days_keeps_same_dates():
    cal = TradingCalendar(WEEK)
    x = {WEEK[0]: 1, WEEK[1]: 2, WEEK[4]: 3, date(2022, 10, 9): 9}
    y = {WEEK[0]: 30.0, WEEK[1]: 31.0, WEEK[2]: 32.0}
    xs, ys, kept = paired_on_common_days(*on_cal(cal, x, y))
    assert xs.tolist() == [1.0, 2.0]
    assert ys.tolist() == [30.0, 31.0]
    assert kept.tolist() == [True, True, False, False, False, False]


@given(
    st.lists(st.integers(min_value=0, max_value=120), min_size=3, max_size=40, unique=True),
    st.integers(min_value=1, max_value=3),
)
def test_alignment_pairs_are_chronological_and_lag_consistent(day_offsets, lag):
    """Every pair must be (x on the lag-th prior calendar day, y on day t)."""
    base = date(2022, 10, 3)
    days = sorted(base + timedelta(days=o) for o in day_offsets)
    cal = TradingCalendar(days)
    x = {d: float(i) for i, d in enumerate(days)}
    y = {d: 100.0 + i for i, d in enumerate(days)}
    if len(days) <= lag:
        return
    aligned = align_lagged(*on_cal(cal, x, y), lag=lag)
    assert aligned.n == len(days) - lag
    for x_val, y_val in aligned.pairs.tolist():
        # y on days[i] pairs with x on days[i - lag]: indices differ by lag
        assert (y_val - 100.0) - x_val == lag
    assert aligned.ys().tolist() == sorted(aligned.ys().tolist())


def brute_force_alignment(x_values, y_values, days, lag):
    """Lagged and same-day pairs found by walking the calendar's dates."""
    lagged, x_same, y_same = [], [], []
    for i, t in enumerate(days):
        if t in y_values and t in x_values:
            x_same.append(x_values[t])
            y_same.append(y_values[t])
        if i >= lag and t in y_values and days[i - lag] in x_values:
            lagged.append([x_values[days[i - lag]], y_values[t]])
    return lagged, x_same, y_same


@given(
    st.sets(st.integers(min_value=0, max_value=41), min_size=1),
    st.sets(st.integers(min_value=0, max_value=41)),
    st.sets(st.integers(min_value=0, max_value=41)),
    st.integers(min_value=1, max_value=3),
)
# Friday the 7th is a holiday carrying a price; sentiment on the weekend.
@example(holidays={4}, x_days={3, 5, 6, 11}, y_days={4, 7, 8, 14}, lag=1)
def test_array_alignment_matches_brute_force_over_dates(holidays, x_days, y_days, lag):
    """Weekday calendar with holidays; sentiment and prices on any day.

    Sentiment falls on weekends and holidays too, and prices fall on
    holidays (off the calendar); neither may ever be paired.
    """
    base = date(2022, 10, 3)  # a Monday
    span = [base + timedelta(days=o) for o in range(42)]
    days = [d for o, d in enumerate(span) if d.weekday() < 5 and o not in holidays]
    if not days:
        return
    cal = TradingCalendar(days)
    x_values = {span[o]: float(o % 7) for o in x_days}
    y_values = {span[o]: 50.0 + o for o in y_days}
    x, y = on_calendar(x_values, cal), on_calendar(y_values, cal)

    lagged, x_same, y_same = brute_force_alignment(x_values, y_values, days, lag)
    if lagged:
        assert align_lagged(x, y, lag=lag).pairs.tolist() == lagged
    else:
        with pytest.raises(NoPairs):
            align_lagged(x, y, lag=lag)
    xs, ys, _ = paired_on_common_days(x, y)
    assert (xs.tolist(), ys.tolist()) == (x_same, y_same)
