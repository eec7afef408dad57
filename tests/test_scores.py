"""Daily score aggregation and its invariants."""

from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentdep.core import PolarityLabel, ScoreKind, SentimentSeries, TradingCalendar
from sentdep.scores import (
    AspectDayCount,
    aggregate_daily,
    fill_absent_zero,
    read_scores,
    write_scores,
)

D0 = date(2022, 10, 3)


def lab(tweet, day_offset, aspect, polarity):
    return (tweet, D0 + timedelta(days=day_offset), aspect, polarity)


POS, NEG, NEU = PolarityLabel.POSITIVE, PolarityLabel.NEGATIVE, PolarityLabel.NEUTRAL


class TestAggregateDaily:
    def test_counts_by_aspect_and_day(self):
        labels = [
            lab("t1", 0, "tax", POS),
            lab("t2", 0, "tax", POS),
            lab("t3", 0, "tax", NEG),
            lab("t4", 0, "tax", NEU),
            lab("t5", 1, "tax", NEG),
            lab("t6",  0, "inflation", NEU),
        ]
        counts = aggregate_daily(labels)
        assert counts == [
            AspectDayCount("inflation", D0, 0, 0, 1),
            AspectDayCount("tax", D0, 2, 1, 1),
            AspectDayCount("tax", D0 + timedelta(days=1), 0, 1, 0),
        ]
        assert counts[1].total == 4

    def test_empty_input(self):
        assert aggregate_daily([]) == []

    def test_count_cell_never_all_zero(self):
        with pytest.raises(ValueError):
            AspectDayCount("tax", D0, 0, 0, 0)
        with pytest.raises(ValueError):
            AspectDayCount("tax", D0, -1, 2, 0)


class TestScoreSeries:
    """The four score formulas, as written by write_scores and read back."""

    COUNTS = [
        AspectDayCount("tax", D0, 2, 1, 1),
        AspectDayCount("tax", D0 + timedelta(days=1), 0, 3, 0),
        AspectDayCount("inflation", D0, 5, 0, 0),
    ]

    def series(self, tmp_path, aspect, kind):
        p = tmp_path / "scores.csv"
        write_scores(self.COUNTS, p)
        return read_scores(p)[0][(aspect, kind)]

    def test_absolute_kinds_are_counts(self, tmp_path):
        fp = self.series(tmp_path, "tax", ScoreKind.ABS_POSITIVE)
        fn = self.series(tmp_path, "tax", ScoreKind.ABS_NEGATIVE)
        assert fp.values == {D0: 2.0, D0 + timedelta(days=1): 0.0}
        assert fn.values == {D0: 1.0, D0 + timedelta(days=1): 3.0}

    def test_normalised_kinds_divide_by_total(self, tmp_path):
        nfp = self.series(tmp_path, "tax", ScoreKind.NORM_POSITIVE)
        nfn = self.series(tmp_path, "tax", ScoreKind.NORM_NEGATIVE)
        assert nfp.values[D0] == 0.5
        assert nfn.values[D0] == 0.25
        assert nfn.values[D0 + timedelta(days=1)] == 1.0

    def test_days_without_labels_stay_missing(self, tmp_path):
        fp = self.series(tmp_path, "inflation", ScoreKind.ABS_POSITIVE)
        assert list(fp.values) == [D0]

    def test_unknown_aspect_gives_empty_series(self, tmp_path):
        p = tmp_path / "scores.csv"
        write_scores(self.COUNTS, p)
        series, totals = read_scores(p)
        assert not any(aspect == "bank" for aspect, _ in series)
        assert "bank" not in totals

    def test_bundle_covers_all_kinds(self, tmp_path):
        p = tmp_path / "scores.csv"
        write_scores(self.COUNTS, p)
        series, _ = read_scores(p)
        assert set(series) == {(a, k) for a in ("tax", "inflation") for k in ScoreKind}


class TestFillAbsentZero:
    def test_fills_only_absolute(self):
        cal = TradingCalendar([D0, D0 + timedelta(days=1), D0 + timedelta(days=2)])
        fp = SentimentSeries("tax", ScoreKind.ABS_POSITIVE, {D0: 2.0})
        filled = fill_absent_zero(fp, cal)
        assert filled.values == {D0: 2.0, D0 + timedelta(days=1): 0.0,
                                 D0 + timedelta(days=2): 0.0}
        nfp = SentimentSeries("tax", ScoreKind.NORM_POSITIVE, {D0: 0.5})
        with pytest.raises(ValueError):
            fill_absent_zero(nfp, cal)


def test_aspect_frequencies_counts_occurrences(tmp_path):
    labels = [lab("t1", 0, "tax", POS), lab("t1", 0, "tax", NEG), lab("t2", 1, "bank", NEU)]
    p = tmp_path / "scores.csv"
    write_scores(aggregate_daily(labels), p)
    assert read_scores(p)[1] == {"tax": 2, "bank": 1}


class TestScoresFile:
    def test_round_trip_exact(self, tmp_path):
        counts = [
            AspectDayCount("tax", D0, 2, 1, 4),  # nfp = 2/7, not a nice decimal
            AspectDayCount("inflation", D0, 1, 0, 0),
        ]
        p = tmp_path / "scores.csv"
        write_scores(counts, p)
        series, totals = read_scores(p)
        assert totals == {"tax": 7, "inflation": 1}
        assert series[("tax", ScoreKind.NORM_POSITIVE)].values[D0] == 2 / 7
        assert series[("tax", ScoreKind.ABS_NEGATIVE)].values[D0] == 1.0
        assert set(series) == {(a, k) for a in ("tax", "inflation") for k in ScoreKind}

    def test_read_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("aspect,date,kind,value\ntax,2022-10-03,zz,1.0\n", encoding="utf-8")
        with pytest.raises(Exception):
            read_scores(p)


# --- randomized invariant suite -------------------------------------------

label_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=99),           # tweet number
        st.integers(min_value=0, max_value=6),            # day offset
        st.sampled_from(["tax", "inflation", "bank"]),    # aspect
        st.sampled_from([POS, NEG, NEU]),                 # polarity
    ),
    min_size=1,
    max_size=60,
)


@given(label_lists)
def test_score_invariants_hold_for_any_aggregation(raw):
    labels = [(f"t{i}", D0 + timedelta(days=o), a, p) for i, o, a, p in raw]
    counts = aggregate_daily(labels)
    assert sum(c.total for c in counts) == len(labels)
    for c in counts:
        assert c.positive >= 0 and c.negative >= 0 and c.neutral >= 0
        # absolute scores never exceed the day's total mentions
        assert c.positive + c.negative <= c.total
        nfp = c.positive / c.total
        nfn = c.negative / c.total
        assert 0.0 <= nfp <= 1.0 and 0.0 <= nfn <= 1.0
        assert nfp + nfn <= 1.0 + 1e-12
