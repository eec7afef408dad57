"""Config loading, aspect selection, cell computation, and stage wiring."""

import gc
import json
import logging
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import astuple
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sentdep.analysis
import sentdep.blocks
import sentdep.entropy
import sentdep.granger
import sentdep.ingest
import sentdep.labeler
import sentdep.pipeline
from sentdep.core import ScoreKind, TradingCalendar, on_calendar
from sentdep.errors import ConfigError, FormatError
from sentdep.ingest import AspectLexicon
from oracles import unshared_cell, unshared_cells
from sentdep.analysis import analyze_cells, kind_cells, price_matrix
from sentdep.cli import main
from sentdep.pipeline import (
    PipelineConfig,
    load_config,
    run_pipeline,
    stage_analyze,
    stage_score,
)
from sentdep.prepare import build_calendar, load_calendar, prepare_analysis, select_top_aspects
from sentdep.scores import read_scores

FP, FN = ScoreKind.ABS_POSITIVE, ScoreKind.ABS_NEGATIVE
NFP, NFN = ScoreKind.NORM_POSITIVE, ScoreKind.NORM_NEGATIVE


def weekdays(start: date, n: int) -> list[date]:
    out: list[date] = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out

DAYS = weekdays(date(2022, 10, 3), 30)


# --- configuration -----------------------------------------------------------


def write_min_inputs(root: Path) -> dict[str, Path]:
    """A syntactically valid input tree (one ticker, labels provided)."""
    paths = {
        "aspects": root / "aspects.txt",
        "labels": root / "labels.csv",
        "price": root / "AAA.csv",
    }
    paths["aspects"].write_text("tax\nbank\n", encoding="utf-8")
    paths["labels"].write_text(
        "tweet_id,date,aspect,polarity\nt1,2022-10-03,tax,positive\n",
        encoding="utf-8",
    )
    lines = ["Date,Close"] + [f"{d.isoformat()},{10 + i}" for i, d in enumerate(DAYS)]
    paths["price"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


class TestLoadConfig:
    def test_reads_all_sections_and_resolves_paths(self, tmp_path):
        write_min_inputs(tmp_path)
        ini = tmp_path / "config.ini"
        ini.write_text(
            "[inputs]\n"
            "aspects = aspects.txt\n"
            "labels = labels.csv\n"
            "[prices]\n"
            "NEE = AAA.csv\n"
            "bp = AAA.csv\n"
            "[analysis]\n"
            "lag = 2\n"
            "pearson_threshold = 0.3\n"
            "granger_reverse = yes\n"
            "absent_as_zero = true\n"
            "[output]\n"
            "dir = results\n"
            "seed = 9\n",
            encoding="utf-8",
        )
        cfg = load_config(ini)
        assert cfg.aspects == tmp_path / "aspects.txt"
        assert list(cfg.prices) == ["NEE", "bp"]  # case and order preserved
        assert cfg.prices["NEE"] == tmp_path / "AAA.csv"
        assert cfg.lag == 2 and cfg.pearson_threshold == 0.3
        assert cfg.granger_reverse is True and cfg.absent_as_zero is True
        assert cfg.granger_difference is False  # untouched default
        assert cfg.output_dir == tmp_path / "results"
        assert cfg.seed == 9

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "config.ini"
        ini.write_text("[surprise]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="surprise"):
            load_config(ini)

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "config.ini"
        ini.write_text("[analysis]\nlagg = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="lagg"):
            load_config(ini)

    def test_bad_value_names_section_and_key(self, tmp_path):
        ini = tmp_path / "config.ini"
        ini.write_text("[analysis]\nentropy_k = three\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[analysis\] entropy_k"):
            load_config(ini)

    def test_bad_boolean(self, tmp_path):
        ini = tmp_path / "config.ini"
        ini.write_text("[analysis]\ngranger_reverse = maybe\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(ini)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "absent.ini")


class TestValidate:
    def base_config(self, tmp_path) -> PipelineConfig:
        paths = write_min_inputs(tmp_path)
        return PipelineConfig(
            aspects=paths["aspects"],
            labels=paths["labels"],
            prices={"AAA": paths["price"]},
            output_dir=tmp_path / "out",
        )

    def test_valid_config_passes(self, tmp_path):
        self.base_config(tmp_path).validate()

    def test_requires_label_source(self, tmp_path):
        cfg = self.base_config(tmp_path)
        cfg.labels = None
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_tweets_need_polarity_terms(self, tmp_path):
        cfg = self.base_config(tmp_path)
        cfg.labels = None
        cfg.tweets = tmp_path / "labels.csv"  # any existing file
        with pytest.raises(ConfigError, match="term"):
            cfg.validate()

    def test_requires_prices(self, tmp_path):
        cfg = self.base_config(tmp_path)
        cfg.prices = {}
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_missing_price_file_is_named(self, tmp_path):
        cfg = self.base_config(tmp_path)
        ghost = tmp_path / "GHOST.csv"
        cfg.prices["GHOST"] = ghost
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(ghost) in str(exc.value)

    def test_numeric_ranges(self, tmp_path):
        for attr, bad in [
            ("lag", 0), ("pearson_threshold", 1.0), ("granger_alpha", 0.0),
            ("granger_lag", 0), ("entropy_k", 21), ("top_n_aspects", 0),
            ("min_keyword_count", 0), ("max_malformed_fraction", 1.5),
            ("window", -1), ("seed", -1),
        ]:
            cfg = self.base_config(tmp_path)
            setattr(cfg, attr, bad)
            with pytest.raises(ConfigError):
                cfg.validate()


class TestCalendar:
    def test_explicit_calendar_file(self, tmp_path):
        cal_file = tmp_path / "days.txt"
        cal_file.write_text(
            "# holidays removed\n2022-10-03\n2022-10-04\n\n2022-10-06\n",
            encoding="utf-8",
        )
        cal = load_calendar(cal_file)
        assert cal.days == (date(2022, 10, 3), date(2022, 10, 4), date(2022, 10, 6))

    def test_calendar_without_days_is_a_format_error(self, tmp_path):
        cal_file = tmp_path / "days.txt"
        cal_file.write_text("# nothing yet\n\n", encoding="utf-8")
        with pytest.raises(FormatError, match="no trading day"):
            load_calendar(cal_file)

    def test_union_of_price_dates(self):
        a = {DAYS[0]: 1.0, DAYS[2]: 2.0}
        b = {DAYS[1]: 3.0, DAYS[2]: 4.0}
        cal = build_calendar(PipelineConfig(), {"A": a, "B": b})
        assert cal.days == (DAYS[0], DAYS[1], DAYS[2])

    def test_explicit_file_wins(self, tmp_path):
        cal_file = tmp_path / "days.txt"
        cal_file.write_text("2022-10-03\n", encoding="utf-8")
        cfg = PipelineConfig(calendar=cal_file)
        cal = build_calendar(cfg, {"A": {DAYS[5]: 1.0}})
        assert cal.days == (date(2022, 10, 3),)


class TestSelectTopAspects:
    LEX = AspectLexicon(["tax", "bank", "rate"])

    def test_ranked_by_count_then_name(self):
        chosen = select_top_aspects(self.LEX, {"bank": 5, "zinc": 7, "tax": 5}, 3)
        # ranked: zinc(7), bank(5), tax(5); presentation: lexicon order first
        assert chosen == ["tax", "bank", "zinc"]

    def test_zero_frequency_falls_back_to_name_order(self):
        assert select_top_aspects(self.LEX, {}, 2) == ["bank", "rate"]

    def test_top_n_larger_than_pool(self):
        assert select_top_aspects(self.LEX, {"tax": 1}, 99) == ["tax", "bank", "rate"]


# --- cell computation --------------------------------------------------------


def planted_inputs():
    """Sentiment counts whose previous-day value sets the price exactly."""
    cal = TradingCalendar(DAYS)
    counts = {d: float(i % 5 + 1) for i, d in enumerate(DAYS)}
    closes = {DAYS[0]: 10.0 + counts[DAYS[0]]}
    for prev, d in zip(DAYS, DAYS[1:]):
        closes[d] = 10.0 + counts[prev]
    return counts, closes, cal


def cell_of(sent, price, cal, config):
    """The cell of (tax, fp, AAA) on the calendar arrays of two series."""
    [cell] = kind_cells("tax", {FP: np.array(on_calendar(sent, cal))}, ["AAA"],
                        price_matrix([on_calendar(price, cal)]), config)
    return cell


class TestComputeCell:
    def test_planted_relation_fills_r_and_granger(self):
        sent, price, cal = planted_inputs()
        cell = cell_of(sent, price, cal, PipelineConfig())
        assert cell.n == len(DAYS) - 1
        assert cell.r == pytest.approx(1.0)
        assert cell.r_significant and cell.r_reason is None
        assert cell.granger_causal and cell.granger_p == 0.0
        assert cell.granger_perfect_fit  # price is an exact function of lagged counts
        # integer counts repeat heavily: the entropy estimate must refuse,
        # without disturbing the other two statistics
        assert cell.u is None and cell.u_reason == "DegenerateSample"

    def test_no_overlap_yields_all_null(self):
        sent = {DAYS[0] + timedelta(days=300): 1.0}
        price = {d: 10.0 for d in DAYS}
        cell = cell_of(sent, price, TradingCalendar(DAYS), PipelineConfig())
        assert cell.n == 0
        assert (cell.r, cell.granger_f, cell.u) == (None, None, None)
        assert cell.r_reason == "InsufficientData"
        assert cell.granger_reason == "InsufficientData"
        assert cell.u_reason == "InsufficientData"

    def test_constant_sentiment_fails_statistics_independently(self):
        cal = TradingCalendar(DAYS)
        sent = {d: 2.0 for d in DAYS}
        price = {d: 10.0 + (i % 7) * 0.5 for i, d in enumerate(DAYS)}
        cell = cell_of(sent, price, cal, PipelineConfig())
        assert cell.n == len(DAYS) - 1
        assert cell.r_reason == "DegenerateSeries"
        assert cell.granger_reason == "RankDeficient"
        assert cell.u_reason == "DegenerateSample"

    def test_reverse_flag_swaps_direction(self):
        sent, price, cal = planted_inputs()
        forward = cell_of(sent, price, cal, PipelineConfig())
        reverse = cell_of(sent, price, cal, PipelineConfig(granger_reverse=True))
        assert forward.granger_causal
        assert reverse.granger_f != forward.granger_f

    def test_difference_flag_changes_the_series_under_test(self):
        # distinct interfering cycles keep both fits inexact, so the level
        # and differenced F statistics are finite and genuinely different
        cal = TradingCalendar(DAYS)
        sent = {d: float(i % 5 + 1) for i, d in enumerate(DAYS)}
        price = {
            d: 10.0 + 0.9 * sent[DAYS[max(i - 1, 0)]]
            + 0.07 * (i % 3) + 0.013 * (i % 7)
            for i, d in enumerate(DAYS)
        }
        level = cell_of(sent, price, cal, PipelineConfig())
        diffed = cell_of(sent, price, cal, PipelineConfig(granger_difference=True))
        assert level.granger_reason is None and diffed.granger_reason is None
        assert diffed.granger_f != level.granger_f
        assert not (level.granger_perfect_fit or diffed.granger_perfect_fit)

    def test_difference_needs_two_common_days(self, monkeypatch):
        # The group checks the differenced length of its common days before
        # it fits anything; a longer series shows what the fits then get.
        seen, tested = [], []
        check = sentdep.analysis.check_effective_sample
        restricted_fits = sentdep.analysis.restricted_fits
        f_statistics = sentdep.analysis.f_statistics

        def check_spy(n, lag):
            seen.append(n)
            return check(n, lag)

        def fit_spy(responses, lag):
            tested.extend(("response", row) for row in responses.tolist())
            return restricted_fits(responses, lag)

        def f_spy(restricted, xs, lag):
            tested.extend(("cross", row) for row in xs.tolist())
            return f_statistics(restricted, xs, lag)

        monkeypatch.setattr(sentdep.analysis, "check_effective_sample", check_spy)
        monkeypatch.setattr(sentdep.analysis, "restricted_fits", fit_spy)
        monkeypatch.setattr(sentdep.analysis, "f_statistics", f_spy)
        cal = TradingCalendar(DAYS)
        config = PipelineConfig(granger_difference=True)
        sent = dict(zip(DAYS, (1.0, 3.0, 6.0, 10.0)))
        price = dict(zip(DAYS, (10.0, 12.0, 15.0, 19.0)))
        cell = cell_of(sent, price, cal, config)
        assert seen == [3] and tested == []
        assert cell.granger_reason == "InsufficientData"
        # a single common day differences to nothing; the lagged pairs of
        # the other statistics are untouched
        seen.clear()
        cell = cell_of({DAYS[0]: 1.0, DAYS[1]: 2.0}, {DAYS[1]: 10.0, DAYS[2]: 11.0}, cal, config)
        assert seen == [0] and tested == []
        assert cell.granger_f is None and cell.granger_reason == "InsufficientData"
        assert cell.n == 2
        # Both series are differenced before either fit, in each direction.
        seen.clear()
        sent = {d: float(i * i % 7) for i, d in enumerate(DAYS) if i != 5}
        price = {d: 10.0 + i % 4 + 0.1 * i for i, d in enumerate(DAYS)}
        days = [d for d in DAYS if d in sent]
        sent_diff = np.diff([sent[d] for d in days]).tolist()
        price_diff = np.diff([price[d] for d in days]).tolist()
        cell = cell_of(sent, price, cal, config)
        assert cell.granger_f is not None
        assert seen == [len(DAYS) - 2]
        assert tested == [("response", price_diff), ("cross", sent_diff)]
        tested.clear()
        cell = cell_of(sent, price, cal, PipelineConfig(granger_difference=True,
                                                        granger_reverse=True))
        assert cell.granger_f is not None
        assert tested == [("response", sent_diff), ("cross", price_diff)]


# --- file-level stages -------------------------------------------------------


def build_analysis_tree(root: Path, label_days: int = 30) -> PipelineConfig:
    """aspects + labels + one price file with an exact lag-1 dependence."""
    aspects = root / "aspects.txt"
    aspects.write_text("tax\nbank\n", encoding="utf-8")

    rows = ["tweet_id,date,aspect,polarity"]
    counts: dict[date, int] = {}
    for i, d in enumerate(DAYS[:label_days]):
        counts[d] = i % 5 + 1
        rows.extend(
            f"t{i}_{j},{d.isoformat()},tax,positive" for j in range(counts[d])
        )
        rows.append(f"t{i}_n,{d.isoformat()},tax,negative")
    rows.append(f"b0,{DAYS[0].isoformat()},bank,positive")
    rows.append(f"b1,{DAYS[1].isoformat()},bank,neutral")
    labels = root / "labels.csv"
    labels.write_text("\n".join(rows) + "\n", encoding="utf-8")

    price_lines = ["Date,Open,Close"]
    price_lines.append(f"{DAYS[0].isoformat()},0,{10 + counts[DAYS[0]]}")
    for prev, d in zip(DAYS, DAYS[1:]):
        price_lines.append(f"{d.isoformat()},0,{10 + counts.get(prev, 1)}")
    price = root / "AAA.csv"
    price.write_text("\n".join(price_lines) + "\n", encoding="utf-8")

    return PipelineConfig(
        aspects=aspects, labels=labels, prices={"AAA": price},
        top_n_aspects=2, output_dir=root / "out",
    )


class TestStageAnalyze:
    def test_total_coverage_one_cell_per_triple(self, tmp_path):
        cfg = build_analysis_tree(tmp_path)
        scores = tmp_path / "scores.csv"
        stage_score(cfg.labels, scores)
        cells = stage_analyze(cfg, scores, tmp_path / "cells.csv")
        triples = [(c.aspect, c.kind, c.ticker) for c in cells]
        assert len(triples) == len(set(triples)) == 2 * 4 * 1
        assert [c.aspect for c in cells[:4]] == ["tax"] * 4  # lexicon order
        by = {(c.aspect, c.kind): c for c in cells}
        assert by[("tax", FP)].r == pytest.approx(1.0)
        # bank has two labeled days: nothing is computable there
        assert by[("bank", FP)].r is None
        assert by[("bank", FP)].r_reason == "InsufficientData"

    def test_absent_as_zero_extends_absolute_series_only(self, tmp_path):
        cfg = build_analysis_tree(tmp_path)
        scores = tmp_path / "scores.csv"
        stage_score(cfg.labels, scores)
        sparse = {(c.aspect, c.kind): c
                  for c in stage_analyze(cfg, scores, tmp_path / "c1.csv")}
        cfg.absent_as_zero = True
        filled = {(c.aspect, c.kind): c
                  for c in stage_analyze(cfg, scores, tmp_path / "c2.csv")}
        # bank sentiment exists on the first two days only: both feed a
        # following price day, nothing more
        assert sparse[("bank", FP)].n == 2
        assert filled[("bank", FP)].n == len(DAYS) - 1
        assert filled[("bank", NFP)].n == sparse[("bank", NFP)].n

    def test_absent_as_zero_fills_only_absolute(self, tmp_path, monkeypatch):
        cfg = build_analysis_tree(tmp_path)
        cfg.absent_as_zero = True
        scores = tmp_path / "scores.csv"
        stage_score(cfg.labels, scores)
        seen = {}
        compute = sentdep.analysis.kind_cells

        def spy(aspect, series, *args, **kwargs):
            seen.update(((aspect, kind), x.copy()) for kind, x in series.items())
            return compute(aspect, series, *args, **kwargs)

        monkeypatch.setattr(sentdep.analysis, "kind_cells", spy)
        # The spy sees only this process's cells, so no worker may take bank.
        monkeypatch.delattr(os, "fork")
        stage_analyze(cfg, scores, tmp_path / "cells.csv")
        # bank is labeled on the first two trading days only (one positive,
        # then one neutral label); the calendar holds every day of DAYS
        assert seen[("bank", FP)].tolist() == [1.0, 0.0] + [0.0] * (len(DAYS) - 2)
        assert seen[("bank", FN)].tolist() == [0.0] * len(DAYS)
        for kind in (NFP, NFN):
            assert not np.isnan(seen[("bank", kind)][:2]).any()
            assert np.isnan(seen[("bank", kind)][2:]).all()

    def test_labels_outside_calendar_leave_all_null(self, tmp_path, caplog):
        cfg = build_analysis_tree(tmp_path)
        saturday = date(2022, 10, 1)
        cfg.labels.write_text(
            "tweet_id,date,aspect,polarity\n"
            f"t0,{saturday.isoformat()},tax,positive\n",
            encoding="utf-8",
        )
        scores = tmp_path / "scores.csv"
        stage_score(cfg.labels, scores)
        with caplog.at_level(logging.WARNING, logger="sentdep.pipeline"):
            cells = stage_analyze(cfg, scores, tmp_path / "cells.csv")
        assert cells
        assert all(c.r is None and c.granger_f is None and c.u is None for c in cells)
        assert all(c.r_reason == "InsufficientData" for c in cells)
        assert any("no cell produced any statistic" in r.message for r in caplog.records)


def build_grid_tree(root: Path) -> PipelineConfig:
    """Labels and prices whose cells meet every reason code.

    Over 60 weekdays: ``tax`` has random counts on most days, ``bank`` is
    labeled on six days only, ``rate`` has the same counts on each of its
    days (so its absolute series are constant), and ``gold`` has no label.
    ``BBB`` and ``CCC`` have null closes on different days.
    """
    rng = np.random.default_rng(11)
    days = weekdays(date(2022, 1, 3), 60)
    (root / "aspects.txt").write_text("tax\nbank\nrate\ngold\n", encoding="utf-8")
    rows = ["tweet_id,date,aspect,polarity"]

    def label(aspect, d, polarity, count):
        rows.extend(f"{aspect}{len(rows)}_{j},{d.isoformat()},{aspect},{polarity}"
                    for j in range(count))

    for i, d in enumerate(days):
        if i % 9 != 4:
            for polarity in ("positive", "negative", "neutral"):
                label("tax", d, polarity, int(rng.poisson(4)))
        if i % 10 == 0:
            label("bank", d, "positive", 1 + i // 10)
            label("bank", d, "neutral", 1)
        if i % 6 != 5:
            label("rate", d, "positive", 2)
            label("rate", d, "negative", 1)
    (root / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    prices = {}
    for ticker, nulls in (("AAA", ()), ("BBB", (3, 17)), ("CCC", (8, 40, 41))):
        closes = 50.0 + np.cumsum(rng.normal(0.0, 1.0, len(days)))
        lines = ["Date,Close"] + [
            f"{d.isoformat()},{'null' if i in nulls else repr(float(c))}"
            for i, (d, c) in enumerate(zip(days, closes))
        ]
        prices[ticker] = root / f"{ticker}.csv"
        prices[ticker].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return PipelineConfig(aspects=root / "aspects.txt", labels=root / "labels.csv",
                          prices=prices, top_n_aspects=4, output_dir=root / "out")


GRID_SETTINGS = [
    {},
    {"absent_as_zero": True},
    {"granger_reverse": True},
    {"granger_difference": True},
    {"lag": 2},
    {"granger_lag": 2},
    {"entropy_k": 5},
    {"absent_as_zero": True, "granger_reverse": True, "granger_difference": True,
     "lag": 2, "granger_lag": 2, "entropy_k": 2},
]


class TestSharedSeriesParts:
    @pytest.mark.parametrize("settings", GRID_SETTINGS, ids=lambda s: ",".join(s) or "default")
    def test_cells_equal_the_unshared_computation_bit_for_bit(self, tmp_path, settings):
        cfg = build_grid_tree(tmp_path)
        for name, value in settings.items():
            setattr(cfg, name, value)
        scores = tmp_path / "scores.csv"
        stage_score(cfg.labels, scores)
        cells = stage_analyze(cfg, scores, tmp_path / "cells.csv")
        expected = unshared_cells(cfg, *read_scores(scores))
        assert len(cells) == 4 * 4 * 3
        assert [repr(astuple(c)) for c in cells] == [repr(astuple(c)) for c in expected]
        if not settings:
            reasons = {c.r_reason for c in cells} | {c.u_reason for c in cells} | {
                c.granger_reason for c in cells}
            assert reasons == {None, "InsufficientData", "DegenerateSeries",
                               "DegenerateSample", "RankDeficient"}
            assert any(c.u is not None for c in cells)
            assert any(c.granger_f is not None for c in cells)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_fits_and_entropies_are_counted_once_per_part(self, monkeypatch, reverse):
        """One restricted fit per (response series, common mask) and one
        unrestricted fit per cell; one marginal entropy per (series, kept
        mask), none for a close whose sentiment side failed, and one joint
        entropy per cell that reaches it."""
        widths, stacks, samples = [], [], []
        ols, kl_entropy = sentdep.granger.ols, sentdep.entropy.kl_entropy

        def fit(designs, responses):
            stacks.append(len(designs))
            widths.extend([designs.shape[2]] * len(designs))
            return ols(designs, responses)

        def estimate(points, k):
            samples.append(np.array(points))
            return kl_entropy(points, k)

        monkeypatch.setattr(sentdep.granger, "ols", fit)
        monkeypatch.setattr(sentdep.entropy, "kl_entropy", estimate)
        rng = np.random.default_rng(5)
        n = 40
        nan_at = lambda *i: np.isin(np.arange(n), i)  # noqa: E731
        sentiment = {kind: rng.normal(size=n) for kind in ScoreKind}
        # Two values only: its entropy is degenerate, on days no other kind keeps.
        sentiment[NFN] = rng.integers(0, 2, size=n).astype(float)
        for kind, gaps in zip(ScoreKind, (nan_at(2), nan_at(2), nan_at(2, 30), nan_at(12))):
            sentiment[kind][gaps] = np.nan
        tickers = ["AAA", "BBB", "CCC"]
        closes = 10 + rng.normal(size=(len(tickers), n))
        closes[1, 7] = np.nan
        config = PipelineConfig(granger_reverse=reverse)
        tally = Counter()
        cells = kind_cells("tax", sentiment, tickers, closes, config, tally=tally)
        assert all(c.r is not None and c.granger_f is not None for c in cells)
        assert all((c.u is None) == (c.kind is NFN) for c in cells)
        assert {c.u_reason for c in cells if c.kind is NFN} == {"DegenerateSample"}

        responses, marginals, failed = set(), set(), []
        for kind, x in sentiment.items():
            for ticker, y in zip(tickers, closes):
                kept = np.isfinite(x[:-1]) & np.isfinite(y[1:])
                marginals.add((kind, kept.tobytes()))
                if kind is NFN:
                    failed.append(y[1:][kept])
                else:
                    marginals.add((ticker, kept.tobytes()))
                common = (np.isfinite(x) & np.isfinite(y)).tobytes()
                responses.add((kind if reverse else ticker, common))
        assert len(responses) < len(cells) and len(marginals) < 2 * len(cells)
        assert widths.count(2) == len(responses)
        assert widths.count(3) == len(cells)
        one_dim = [s for s in samples if s.ndim == 1]
        assert len(one_dim) == len(marginals)
        assert not any(np.array_equal(s, y) for s in one_dim for y in failed)
        assert len(samples) - len(one_dim) == sum(c.u is not None for c in cells)
        assert len(stacks) < len(widths)
        assert tally == {"fits": len(widths), "fit_stacks": len(stacks),
                         "entropies": len(samples)}
        expected = [unshared_cell("tax", kind, ticker, x, y, config)
                    for kind, x in sentiment.items() for ticker, y in zip(tickers, closes)]
        assert [repr(astuple(c)) for c in cells] == [repr(astuple(c)) for c in expected]


#: One calendar day per index of a drawn series.
PROPERTY_DAYS = weekdays(date(2023, 1, 2), 40)


@st.composite
def analysis_cases(draw):
    """A config, sentiment arrays by kind and closes by ticker, drawn so that
    mask groups split and every reason code and exact fit can occur."""
    n = draw(st.integers(8, len(PROPERTY_DAYS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = st.sets(st.integers(0, n - 1), max_size=4)

    def series(shape):
        if shape == "noise":
            values = rng.normal(size=n)
        elif shape == "ties":
            values = rng.integers(0, 3, size=n).astype(float)
        elif shape == "sparse":
            values = np.full(n, np.nan)
            values[rng.choice(n, size=3, replace=False)] = rng.normal(size=3)
        else:
            values = np.full(n, 2.0)
        values[sorted(draw(gaps))] = np.nan
        return values

    sentiment = {kind: series(draw(st.sampled_from(["noise", "ties", "sparse", "constant"])))
                 for kind in ScoreKind}
    closes = {}
    for i in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["walk", "constant", "exact", "exact, no gaps"]))
        if shape == "walk":
            values = 20.0 + np.cumsum(rng.normal(size=n))
        elif shape == "constant":
            values = np.full(n, 30.0)
        else:
            # The lagged fp values plus 10: where neither side has a gap,
            # the unrestricted Granger fit is exact.
            values = 10.0 + np.concatenate([[1.0], np.nan_to_num(sentiment[FP][:-1])])
        if shape != "exact, no gaps":
            values[sorted(draw(gaps))] = np.nan
        closes[f"T{i}"] = values
    config = PipelineConfig(
        lag=draw(st.integers(1, 2)), granger_lag=draw(st.integers(1, 2)),
        granger_reverse=draw(st.booleans()), granger_difference=draw(st.booleans()),
        absent_as_zero=draw(st.booleans()), entropy_k=draw(st.integers(1, 5)),
        top_n_aspects=1)
    return config, sentiment, closes


def planted_case():
    """Counts that set one close exactly, beside a constant close and a
    walk with a gap: a perfect fit, RankDeficient and a split mask group."""
    n = len(PROPERTY_DAYS)
    rng = np.random.default_rng(3)
    counts = np.arange(n) % 5 + 1.0
    sentiment = {kind: rng.normal(size=n) for kind in ScoreKind}
    sentiment[FP] = counts
    walk = 20.0 + np.cumsum(rng.normal(size=n))
    walk[[4, 9]] = np.nan
    closes = {"T0": 10.0 + np.concatenate([[1.0], counts[:-1]]), "T1": walk,
              "T2": np.full(n, 30.0), "T3": 20.0 + np.cumsum(rng.normal(size=n))}
    return PipelineConfig(top_n_aspects=1), sentiment, closes


@settings(max_examples=60, deadline=None)
@given(analysis_cases())
@example(planted_case())
def test_grouped_cells_equal_the_unshared_oracle(case):
    config, sentiment, closes = case
    days = PROPERTY_DAYS
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "aspects.txt").write_text("tax\n", encoding="utf-8")
        config.aspects = root / "aspects.txt"
        config.prices = {}
        for ticker, values in closes.items():
            config.prices[ticker] = root / f"{ticker}.csv"
            config.prices[ticker].write_text("Date,Close\n" + "".join(
                f"{d.isoformat()},{'null' if np.isnan(v) else repr(float(v))}\n"
                for d, v in zip(days, values)), encoding="utf-8")
        series = {("tax", kind): {d: float(v) for d, v in zip(days, x) if not np.isnan(v)}
                  for kind, x in sentiment.items()}
        expected = unshared_cells(config, series, {"tax": 1})
        inputs = prepare_analysis(config, None, (series, {"tax": 1}))
    assert inputs.aspects == ["tax"]
    cells = analyze_cells(config, inputs.aspects, inputs.series, inputs.tickers,
                          price_matrix(inputs.closes))
    assert [repr(astuple(c)) for c in cells] == [repr(astuple(c)) for c in expected]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_huge_closes_leave_r_and_granger_unchanged(tmp_path, reverse):
    """The fixture's NEE closes times 2^1012 (near 1e306) give every cell the
    r and Granger results of the unscaled run, bit for bit: both statistics
    scale each series, and Granger each design column, by a power of two.
    Forward, the closes are the scaled response; in reverse, the cross
    columns. Without the scaling, all 80 NEE cells read RankDeficient, and
    22 (forward) or 26 (reverse) cells were causal instead of 29 or 31."""
    assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    config = load_config(tmp_path / "config.ini")
    config.granger_reverse = reverse
    plain = run_pipeline(config)
    nee = config.prices["NEE"]
    rows = [line.split(",") for line in nee.read_text(encoding="utf-8").splitlines()[1:]]
    nee.write_text("Date,Close\n" + "".join(f"{row[0]},{math.ldexp(float(row[4]), 1012)!r}\n"
                                            for row in rows), encoding="utf-8")
    config.output_dir = tmp_path / "huge"
    huge = run_pipeline(config)
    same = ("r", "r_significant", "r_reason", "granger_f", "granger_p", "granger_causal",
            "granger_perfect_fit", "granger_reason")
    assert [[getattr(c, name) for name in same] for c in huge] == [
        [getattr(c, name) for name in same] for c in plain]
    assert sum(c.granger_causal is True for c in huge) == (31 if reverse else 29)
    assert not any(c.granger_reason for c in huge if c.ticker == "NEE")


# --- full pipeline -----------------------------------------------------------


def build_tweet_tree(root: Path) -> Path:
    """Tweet-driven config: enough posts to label 'tax' on ten weekdays."""
    (root / "aspects.txt").write_text("tax\nbank\n", encoding="utf-8")
    (root / "pos.txt").write_text("good\nstrong\n", encoding="utf-8")
    (root / "neg.txt").write_text("bad\nweak\n", encoding="utf-8")

    tweets = []
    k = 0
    for i, d in enumerate(DAYS[:10]):
        for j in range(i % 3 + 1):
            word = "good" if (i + j) % 4 else "bad"
            tweets.append(json.dumps({
                "id": f"t{k}",
                "created_at": f"{d.isoformat()}T12:0{j}:00Z",
                "text": f"the tax outlook is {word} today",
                "lang": "en",
            }))
            k += 1
    (root / "tweets.jsonl").write_text("\n".join(tweets) + "\n", encoding="utf-8")

    lines = ["Date,Close"] + [
        f"{d.isoformat()},{(10 + i * 0.25):.2f}" for i, d in enumerate(DAYS[:10])
    ]
    (root / "AAA.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    ini = root / "config.ini"
    ini.write_text(
        "[inputs]\n"
        "aspects = aspects.txt\n"
        "tweets = tweets.jsonl\n"
        "positive_terms = pos.txt\n"
        "negative_terms = neg.txt\n"
        "[prices]\n"
        "AAA = AAA.csv\n"
        "[ingest]\n"
        "min_keyword_count = 2\n"
        "[analysis]\n"
        "top_n_aspects = 2\n"
        "[output]\n"
        "dir = out\n",
        encoding="utf-8",
    )
    return ini


EXPECTED_ARTIFACTS = {
    "keywords.csv", "labels.csv", "scores.csv", "cells.csv", "granger.csv",
    "run_manifest.json",
} | {f"heatmap_{s}_{k}.csv" for s in ("r", "u") for k in ("fp", "fn", "nfp", "nfn")}


class TestImportAnalysis:
    def test_a_second_call_freezes_nothing(self):
        sentdep.pipeline._import_analysis()
        frozen = gc.get_freeze_count()
        assert sentdep.pipeline._import_analysis()[0] == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("load", ["done before", "first", "failing"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_collector_state_is_kept(self, monkeypatch, load, enabled):
        if load != "done before":
            monkeypatch.setattr(sentdep, "analysis", sentdep.analysis)
            monkeypatch.delitem(sys.modules, "sentdep.analysis")
        if load == "failing":
            monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
        (gc.enable if enabled else gc.disable)()
        try:
            if load == "failing":
                with pytest.raises(ImportError):
                    sentdep.pipeline._import_analysis()
            else:
                frozen, _ = sentdep.pipeline._import_analysis()
                assert (frozen > 0) == (load == "first")
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestRunPipeline:
    def test_writes_every_artifact(self, tmp_path):
        cfg = load_config(build_tweet_tree(tmp_path))
        cells = run_pipeline(cfg)
        assert {p.name for p in cfg.output_dir.iterdir()} == EXPECTED_ARTIFACTS
        assert len(cells) == 2 * 4 * 1

    def test_reruns_are_byte_identical(self, tmp_path):
        ini = build_tweet_tree(tmp_path)
        cfg1 = load_config(ini)
        run_pipeline(cfg1)
        cfg2 = load_config(ini)
        cfg2.output_dir = tmp_path / "out2"
        run_pipeline(cfg2)
        for name in sorted(EXPECTED_ARTIFACTS):
            a = (tmp_path / "out" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_reads_and_tokenizes_each_tweet_once(self, tmp_path, monkeypatch):
        ini = build_tweet_tree(tmp_path)
        with open(tmp_path / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "es", "created_at": "2022-10-03T09:00:00Z",
                                 "text": "el tax", "lang": "es"}) + "\n")
        lines = (tmp_path / "tweets.jsonl").read_text(encoding="utf-8").splitlines()
        english = sum(json.loads(line)["lang"] == "en" for line in lines)
        # The blocks are read in two processes, so the spies count in a file.
        log = tmp_path / "calls.txt"
        log.touch()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(name + "\n")
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sentdep.blocks, "parse_tweets",
                            counted("parse_tweets", sentdep.blocks.parse_tweets))
        tokenize = counted("tokenize", sentdep.ingest.tokenize)
        for module in (sentdep.ingest, sentdep.labeler):
            monkeypatch.setattr(module, "tokenize", tokenize, raising=False)
        run_pipeline(load_config(ini))
        names = log.read_text(encoding="utf-8").split()
        calls = {name: names.count(name) for name in ("parse_tweets", "tokenize")}
        assert calls == {"parse_tweets": 1, "tokenize": english}

    def test_no_aspect_mentions_still_completes(self, tmp_path, caplog):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / "tweets.jsonl").write_text(
            json.dumps({
                "id": "t0",
                "created_at": "2022-10-03T09:00:00Z",
                "text": "nothing relevant here",
                "lang": "en",
            }) + "\n",
            encoding="utf-8",
        )
        cfg = load_config(ini)
        with caplog.at_level(logging.WARNING, logger="sentdep.pipeline"):
            cells = run_pipeline(cfg)
        assert cells and all(c.n == 0 for c in cells)
        assert all(c.r_reason == "InsufficientData" for c in cells)
        assert any("no cell produced any statistic" in r.message for r in caplog.records)
