"""Seeded synthetic demo corpus with one planted dependence.

Generates a self-contained input tree (tweets, six ticker price files,
lexicons, config) spanning the fourth quarter of 2022: 62 trading days
plus surrounding weekends, so the calendar-alignment path that discards
weekend sentiment is exercised.

Every aspect's daily polarity counts are independent Poisson draws, and
five tickers follow independent geometric random walks — except that one
ticker's close is a linear function of one aspect's positive count on the
previous trading day:

    close(t_i) = 30 + 0.9 · pos("inflation", t_{i−1}) + N(0, 0.1²)

so the (inflation, fp, NEE) cell must come out strongly correlated and
causal while everything else stays at the test's false-positive floor.
Tweets are built token-by-token around the aspect word so the window
labeler reproduces the drawn counts exactly; the corpus also sprinkles in
non-English decoys, URL-bearing posts, and aspect-free chatter, and one
price row carries Yahoo's literal "null" close.

The lexicons are the package's own data files, copied into the tree and
read back by the readers a run uses (:func:`sentdep.ingest.load_aspects`
and :meth:`sentdep.labeler.PolarityLexicon.from_files`), so the tweets
are built from the vocabulary that labels them.
"""

from __future__ import annotations

import json
import shutil
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .ingest import load_aspects, make_output_dir, open_output, output_errors, packaged_data
from .labeler import PolarityLexicon

PLANTED_ASPECT = "inflation"
PLANTED_TICKER = "NEE"
PLANT_BASE = 30.0
PLANT_COEF = 0.9
PLANT_NOISE_SD = 0.1

#: Mean daily polarity count per (aspect, polarity); the planted aspect's
#: positive count uses the larger mean so the planted signal has variance.
BACKGROUND_MEAN = 2.0
PLANTED_POSITIVE_MEAN = 6.0

#: Random-walk start levels for the non-planted tickers.
TICKER_BASES = {"SHEL": 55.0, "BP": 32.0, "XOM": 95.0, "BEPC": 28.0, "CWEN": 32.0}
WALK_SD = 0.012

N_TRADING_DAYS = 62

#: Trading day (index into the calendar) whose close is written as "null"
#: in the XOM file, mimicking Yahoo's missing-data rows.
NULL_CLOSE_INDEX = 30

_TEMPLATE_POSITIVE = ("gains", "rally", "surge", "optimism", "strong")
_TEMPLATE_NEGATIVE = ("losses", "selloff", "fears", "weak", "slump")
_FILLER = (
    "the", "a", "this", "that", "today", "week", "view", "note", "chart",
    "update", "data", "traders", "session", "outlook", "morning", "desk",
    "watchers", "numbers", "levels", "moves",
)


def fixture_trading_days() -> list[date]:
    """The 62-day synthetic trading calendar (Q4 2022 weekdays, two holidays)."""
    holidays = {date(2022, 11, 24), date(2022, 12, 26)}
    days: list[date] = []
    d = date(2022, 10, 3)
    while d <= date(2022, 12, 30):
        if d.weekday() < 5 and d not in holidays:
            days.append(d)
        d += timedelta(days=1)
    return days[:N_TRADING_DAYS]


def _calendar_days() -> list[date]:
    days = []
    d = date(2022, 10, 1)
    while d <= date(2022, 12, 30):
        days.append(d)
        d += timedelta(days=1)
    return days


def _check_vocabulary(aspects: list[str], positive: frozenset[str],
                      negative: frozenset[str]) -> None:
    """The templates only work if the word classes never collide."""
    aspect_tokens = {tok for a in aspects for tok in a.split()}
    for word in _TEMPLATE_POSITIVE:
        if word not in positive:
            raise AssertionError(f"template word {word!r} missing from positive terms")
    for word in _TEMPLATE_NEGATIVE:
        if word not in negative:
            raise AssertionError(f"template word {word!r} missing from negative terms")
    clashes = set(_FILLER) & (aspect_tokens | positive | negative)
    if clashes:
        raise AssertionError(f"filler words collide with lexicons: {sorted(clashes)}")
    if aspect_tokens & (positive | negative):
        raise AssertionError("aspect tokens collide with polarity terms")


def _pick(rng: np.random.Generator, words, count: int) -> list[str]:
    return [str(words[int(i)]) for i in rng.integers(0, len(words), size=count)]


class _TweetWriter:
    def __init__(self, fh, rng: np.random.Generator):
        self._fh = fh
        self._rng = rng
        self._counter = 0

    def write(self, day: date, tokens: list[str], lang: str = "en") -> None:
        self._counter += 1
        hour = int(self._rng.integers(0, 24))
        minute = int(self._rng.integers(0, 60))
        ts = datetime(day.year, day.month, day.day, hour, minute, tzinfo=timezone.utc)
        record = {
            "id": f"t{self._counter:07d}",
            "created_at": ts.isoformat(),
            "text": " ".join(tokens),
            "lang": lang,
        }
        self._fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _aspect_tweet_tokens(
    rng: np.random.Generator, aspect: str, polarity: str
) -> list[str]:
    lead = _pick(rng, _FILLER, int(rng.integers(1, 4)))
    tail = _pick(rng, _FILLER, int(rng.integers(1, 4)))
    if polarity == "positive":
        opinion = _pick(rng, _TEMPLATE_POSITIVE, 1)
    elif polarity == "negative":
        opinion = _pick(rng, _TEMPLATE_NEGATIVE, 1)
    else:
        opinion = []
    return lead + aspect.split() + opinion + tail


def _write_price_file(
    path: Path,
    days: list[date],
    closes: list[float],
    rng: np.random.Generator,
    null_index: int | None = None,
) -> None:
    with open_output(path, newline="\n") as fh:
        fh.write("Date,Open,High,Low,Close,Adj Close,Volume\n")
        for i, (d, close) in enumerate(zip(days, closes)):
            if i == null_index:
                fh.write(f"{d.isoformat()},null,null,null,null,null,null\n")
                continue
            open_ = close * (1.0 + rng.normal(0.0, 0.005))
            high = max(open_, close) * (1.0 + abs(rng.normal(0.0, 0.004)))
            low = min(open_, close) * (1.0 - abs(rng.normal(0.0, 0.004)))
            volume = int(rng.integers(1_000_000, 5_000_000))
            fh.write(
                f"{d.isoformat()},{open_:.6f},{high:.6f},{low:.6f},"
                f"{close:.6f},{close:.6f},{volume}\n"
            )


def generate_fixture(out_dir, seed: int = 0) -> Path:
    """Write the synthetic corpus into ``out_dir``; returns the config path."""
    out = make_output_dir(out_dir)
    rng = np.random.default_rng(seed)

    for source, name in (("aspects_default.txt", "aspects.txt"),
                         ("positive_terms.txt",) * 2, ("negative_terms.txt",) * 2):
        with output_errors(out / name):
            shutil.copyfile(packaged_data(source), out / name)
    aspects = list(load_aspects(out / "aspects.txt").aspects)
    lexicon = PolarityLexicon.from_files(out / "positive_terms.txt", out / "negative_terms.txt")
    _check_vocabulary(aspects, lexicon.positive, lexicon.negative)

    trading_days = fixture_trading_days()
    planted_positive: dict[date, int] = {}

    with open_output(out / "tweets.jsonl", newline="\n") as fh:
        writer = _TweetWriter(fh, rng)
        for day in _calendar_days():
            for aspect in aspects:
                pos_mean = (
                    PLANTED_POSITIVE_MEAN if aspect == PLANTED_ASPECT else BACKGROUND_MEAN
                )
                n_pos = int(rng.poisson(pos_mean))
                n_neg = int(rng.poisson(BACKGROUND_MEAN))
                n_neu = int(rng.poisson(BACKGROUND_MEAN))
                if aspect == PLANTED_ASPECT:
                    planted_positive[day] = n_pos
                for polarity, count in (
                    ("positive", n_pos), ("negative", n_neg), ("neutral", n_neu)
                ):
                    for _ in range(count):
                        writer.write(day, _aspect_tweet_tokens(rng, aspect, polarity))
            # aspect-free chatter, some with URLs
            for _ in range(int(rng.poisson(3.0))):
                tokens = _pick(rng, _FILLER, int(rng.integers(2, 6)))
                if rng.random() < 0.3:
                    tokens.append(f"https://example.com/{int(rng.integers(0, 10**6))}")
                writer.write(day, tokens)
            # non-English decoys that would distort counts if not filtered out
            if rng.random() < 0.3:
                writer.write(day, [PLANTED_ASPECT, "gains", "hoy", "datos"], lang="es")

    closes: dict[str, list[float]] = {}
    for ticker, base in TICKER_BASES.items():
        level = base
        walk: list[float] = []
        for _ in trading_days:
            level *= float(np.exp(rng.normal(0.0, WALK_SD)))
            walk.append(level)
        closes[ticker] = walk
    planted: list[float] = []
    for i, day in enumerate(trading_days):
        if i == 0:
            x = PLANTED_POSITIVE_MEAN
        else:
            x = float(planted_positive[trading_days[i - 1]])
        planted.append(PLANT_BASE + PLANT_COEF * x + float(rng.normal(0.0, PLANT_NOISE_SD)))
    closes[PLANTED_TICKER] = planted

    for ticker in (*TICKER_BASES, PLANTED_TICKER):
        _write_price_file(
            out / f"prices_{ticker}.csv",
            trading_days,
            closes[ticker],
            rng,
            null_index=NULL_CLOSE_INDEX if ticker == "XOM" else None,
        )

    config_path = out / "config.ini"
    price_lines = "\n".join(
        f"{ticker} = prices_{ticker}.csv" for ticker in (*TICKER_BASES, PLANTED_TICKER)
    )
    with open_output(config_path) as fh:
        fh.write(
            "[inputs]\n"
            "aspects = aspects.txt\n"
            "tweets = tweets.jsonl\n"
            "positive_terms = positive_terms.txt\n"
            "negative_terms = negative_terms.txt\n"
            "\n"
            "[prices]\n"
            f"{price_lines}\n"
            "\n"
            "[analysis]\n"
            "top_n_aspects = 20\n"
            "\n"
            "[output]\n"
            "dir = out\n"
            f"seed = {seed}\n"
        )
    return config_path
