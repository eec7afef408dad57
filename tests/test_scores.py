"""Daily score aggregation and its invariants."""

from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import label_cells, scores_row_by_row
from sentdep.core import PolarityLabel, ScoreKind
from sentdep.errors import FormatError
from sentdep.scores import AspectDayCount, aggregate_daily, read_scores, write_scores

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

    @given(st.lists(st.tuples(st.sampled_from(["tax", "bank"]), st.integers(0, 3),
                              st.sampled_from(list(PolarityLabel)))))
    def test_count_cell_never_all_zero(self, rows):
        # each cell is made by its first label, so counts start at one
        counts = aggregate_daily(lab("t", offset, aspect, polarity)
                                 for aspect, offset, polarity in rows)
        assert len(counts) == len({(aspect, offset) for aspect, offset, _ in rows})
        assert all(min(c.positive, c.negative, c.neutral) >= 0 and c.total >= 1
                   for c in counts)


class TestScoreSeries:
    """The four score formulas, as written by write_scores and read back."""

    COUNTS = {
        ("tax", D0): [2, 1, 1],
        ("tax", D0 + timedelta(days=1)): [0, 3, 0],
        ("inflation", D0): [5, 0, 0],
    }

    def series(self, tmp_path, aspect, kind):
        p = tmp_path / "scores.csv"
        write_scores(self.COUNTS, p)
        return read_scores(p)[0][(aspect, kind)]

    def test_absolute_kinds_are_counts(self, tmp_path):
        fp = self.series(tmp_path, "tax", ScoreKind.ABS_POSITIVE)
        fn = self.series(tmp_path, "tax", ScoreKind.ABS_NEGATIVE)
        assert fp == {D0: 2.0, D0 + timedelta(days=1): 0.0}
        assert fn == {D0: 1.0, D0 + timedelta(days=1): 3.0}

    def test_normalised_kinds_divide_by_total(self, tmp_path):
        nfp = self.series(tmp_path, "tax", ScoreKind.NORM_POSITIVE)
        nfn = self.series(tmp_path, "tax", ScoreKind.NORM_NEGATIVE)
        assert nfp[D0] == 0.5
        assert nfn[D0] == 0.25
        assert nfn[D0 + timedelta(days=1)] == 1.0

    def test_days_without_labels_stay_missing(self, tmp_path):
        fp = self.series(tmp_path, "inflation", ScoreKind.ABS_POSITIVE)
        assert list(fp) == [D0]

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


def test_aspect_frequencies_counts_occurrences(tmp_path):
    labels = [lab("t1", 0, "tax", POS), lab("t1", 0, "tax", NEG), lab("t2", 1, "bank", NEU)]
    p = tmp_path / "scores.csv"
    write_scores(label_cells(labels), p)
    assert read_scores(p)[1] == {"tax": 2, "bank": 1}


class TestScoresFile:
    def test_round_trip_exact(self, tmp_path):
        counts = {
            ("tax", D0): [2, 1, 4],  # nfp = 2/7, not a nice decimal
            ("inflation", D0): [1, 0, 0],
        }
        p = tmp_path / "scores.csv"
        write_scores(counts, p)
        series, totals = read_scores(p)
        assert totals == {"tax": 7, "inflation": 1}
        assert series[("tax", ScoreKind.NORM_POSITIVE)][D0] == 2 / 7
        assert series[("tax", ScoreKind.ABS_NEGATIVE)][D0] == 1.0
        assert set(series) == {(a, k) for a in ("tax", "inflation") for k in ScoreKind}

    def test_read_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("aspect,date,kind,value\ntax,2022-10-03,zz,1.0\n", encoding="utf-8")
        with pytest.raises(Exception):
            read_scores(p)

    @pytest.mark.parametrize("kind, value", [
        ("fp", "-1.0"), ("fp", "1.5"), ("fp", "nan"), ("fp", "inf"),
        ("fs", "nan"), ("fs", "inf"), ("nfp", "nan"), ("nfp", "2"),
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, kind, value):
        p = tmp_path / "scores.csv"
        write_scores({("tax", D0): [2, 1, 1]}, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        (lineno,) = [i for i, line in enumerate(lines, start=1) if f",{kind}," in line]
        lines[lineno - 1] = f"tax,{D0.isoformat()},{kind},{value}"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as excinfo:
            read_scores(p)
        assert excinfo.value.line_number == lineno
        assert f"scores.csv:{lineno}: {kind} must" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_read_rejects_empty_aspect(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("aspect,date,kind,value\ntax,2022-10-03,fp,1.0\n  ,2022-10-03,fp,1.0\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match="scores.csv:3: empty aspect"):
            read_scores(p)

    @pytest.mark.parametrize("kind, first, second", [
        ("fp", "3.0", "1.0"), ("fs", "4.0", "4.0"), ("nfn", "0.5", "0.5"),
    ])
    def test_read_rejects_a_repeated_row_in_either_date_spelling(self, tmp_path, kind,
                                                                 first, second):
        p = tmp_path / "scores.csv"
        p.write_text("aspect,date,kind,value\n"
                     f"tax,2022-10-03,{kind},{first}\n"
                     f"tax,2022-10-04,{kind},{first}\n"
                     f"bank,20221003,{kind},{first}\n"
                     f" tax ,20221003,{kind},{second}\n", encoding="utf-8")
        message = f"scores.csv:5: repeated {kind} row for aspect 'tax' on 2022-10-03"
        with pytest.raises(FormatError, match=message):
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


day_counts = st.lists(
    st.tuples(
        st.sampled_from(["tax", "inflation", "bank"]),    # aspect
        st.integers(min_value=0, max_value=6),            # day offset
        st.integers(min_value=0, max_value=9),            # positive
        st.integers(min_value=0, max_value=9),            # negative
        st.integers(min_value=0, max_value=9),            # neutral
    ).filter(lambda t: sum(t[2:]) > 0),
    max_size=25,
    unique_by=lambda t: t[:2],
)


@settings(max_examples=60)
@given(day_counts)
@example([("tax", 0, 1, 1, 1), ("bank", 2, 2, 4, 1)])  # shares 1/3 and 2/7
def test_written_scores_equal_what_is_read_back(tmp_path_factory, raw):
    counts = {(a, D0 + timedelta(days=o)): [p, n, u] for a, o, p, n, u in raw}
    p = tmp_path_factory.mktemp("scores") / "scores.csv"
    series, totals = write_scores(counts, p)
    assert (series, totals) == read_scores(p)
    for (aspect, kind), days in series.items():
        assert all(type(v) is float for v in days.values()), (aspect, kind)
    assert all(type(v) is int for v in totals.values())


#: Aspects as external label files can spell them: with the characters a
#: CSV writer quotes (comma, quote, line breaks), spaces and any letters.
csv_aspects = st.one_of(
    st.sampled_from(["tax", "stock market", "a,b", 'say "hi"', "two\nlines", "cr\rx", "ß"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
)


@settings(max_examples=80)
@given(st.lists(
    st.tuples(csv_aspects, st.integers(min_value=0, max_value=6),
              st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=9)).filter(lambda t: sum(t[2:]) > 0),
    max_size=20, unique_by=lambda t: t[:2]))
@example([("a,b", 0, 1, 2, 0), ('say "hi"', 1, 0, 0, 3), ("two\nlines", 0, 5, 0, 0)])
def test_written_scores_are_the_csv_writers_bytes(tmp_path_factory, raw):
    counts = {(a, D0 + timedelta(days=o)): [p, n, u] for a, o, p, n, u in raw}
    root = tmp_path_factory.mktemp("scores")
    write_scores(counts, root / "scores.csv")
    scores_row_by_row(counts, root / "oracle.csv")
    assert (root / "scores.csv").read_bytes() == (root / "oracle.csv").read_bytes()
