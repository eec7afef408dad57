"""Seeded input trees for the benchmark workloads.

Each generator writes only input files (tweets or labels, Yahoo-layout
price files, lexicons and a ``config.ini``) into an empty directory and
returns a :class:`WorkloadSpec` describing what the outputs must satisfy.
The same seed always writes the same bytes.

* ``fixture``  — the package's own ``sentdep fixture`` corpus.
* ``corpus``   — tweet-heavy: one calendar year of long, varied tweets,
  multi-word aspects, malformed and non-English lines, URLs, hashtags and
  cashtags. Ingest and labeling dominate; analysis is light.
* ``universe`` — analysis-heavy: two trading years, many tickers and an
  external ``labels.csv`` with skewed aspect mention rates, so the
  keyword and label stages never run and dense and sparse series occur.

Inputs are cached under ``<work>/inputs/`` keyed by workload, seed and a
digest of the code that generates them; a half-written entry is never
reused because entries are renamed into place only when complete.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

#: Columns of ``cells.csv`` per ticker: one per score kind.
N_KINDS = 4


@dataclass
class WorkloadSpec:
    """What a correct run over one generated input tree must produce."""

    workload: str
    seed: int
    config: str  # file name inside the input directory
    n_tickers: int
    top_n: int
    tweet_lines: int  # non-blank lines in tweets.jsonl (0 without tweets)
    label_rows: int  # rows in an external labels.csv (0 when labeled internally)
    #: (aspect, kind code, ticker) cells that must be r-significant and causal.
    planted: list = field(default_factory=list)
    #: Ticker whose first granger.csv row must be the planted cell, if any.
    planted_first_for: str | None = None
    #: Minimum planted |r| (the fixture's contract asks for r > 0.9).
    planted_min_r: float = 0.4

    @property
    def expected_cells(self) -> int:
        return self.top_n * N_KINDS * self.n_tickers

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "WorkloadSpec":
        return cls(**json.loads(path.read_text(encoding="utf-8")))


# --- shared pieces --------------------------------------------------------

def _lexicon_entries(path: Path) -> list[str]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _trading_days(start: date, count: int) -> list[date]:
    """``count`` weekdays from ``start``, skipping a few fixed holidays."""
    holidays = {(1, 1), (7, 4), (12, 25), (11, 24), (5, 30), (9, 5)}
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5 and (d.month, d.day) not in holidays:
            days.append(d)
        d += timedelta(days=1)
    return days


def _calendar_span(first: date, last: date) -> list[date]:
    return [first + timedelta(days=i) for i in range((last - first).days + 1)]


def _write_prices(path: Path, days: list[date], closes: np.ndarray,
                  rng: np.random.Generator, null_index: int | None = None) -> None:
    """Yahoo daily-history layout; ``null_index`` writes Yahoo's "null" row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("Date,Open,High,Low,Close,Adj Close,Volume\n")
        noise = rng.normal(0.0, 0.004, size=(len(days), 3))
        volumes = rng.integers(1_000_000, 5_000_000, size=len(days))
        for i, (d, close) in enumerate(zip(days, closes)):
            if i == null_index:
                fh.write(f"{d.isoformat()},null,null,null,null,null,null\n")
                continue
            open_ = close * (1.0 + noise[i, 0])
            high = max(open_, close) * (1.0 + abs(noise[i, 1]))
            low = min(open_, close) * (1.0 - abs(noise[i, 2]))
            fh.write(f"{d.isoformat()},{open_:.6f},{high:.6f},{low:.6f},"
                     f"{close:.6f},{close:.6f},{int(volumes[i])}\n")


def _random_walk(rng: np.random.Generator, base: float, n: int) -> np.ndarray:
    return base * np.exp(np.cumsum(rng.normal(0.0, 0.012, size=n)))


def _planted_closes(rng: np.random.Generator, signal: list[float]) -> np.ndarray:
    """close(t_i) = 30 + 0.9 * signal(t_{i-1}) + N(0, 0.1^2)."""
    lagged = np.array([signal[0], *signal[:-1]], dtype=float)
    return 30.0 + 0.9 * lagged + rng.normal(0.0, 0.1, size=len(signal))


def _write_config(path: Path, inputs: dict[str, str], tickers: list[str],
                  top_n: int, seed: int) -> None:
    lines = ["[inputs]"]
    lines += [f"{k} = {v}" for k, v in inputs.items()]
    lines += ["", "[prices]"]
    lines += [f"{t} = prices_{t}.csv" for t in tickers]
    lines += ["", "[analysis]", f"top_n_aspects = {top_n}",
              "", "[output]", "dir = out", f"seed = {seed}", ""]
    path.write_text("\n".join(lines), encoding="utf-8")


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


# --- fixture ---------------------------------------------------------------

def generate_fixture(out: Path, seed: int, src: Path) -> WorkloadSpec:
    """The bundled demo corpus, written by the program's own CLI.

    Its ticker count and top-N are read back from the written config with
    the program's ``load_config``, which must be importable.
    """
    from sentdep.pipeline import load_config

    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-m", "sentdep.cli", "fixture", "--out-dir", str(out),
         "--seed", str(seed)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    config = load_config(out / "config.ini")
    return WorkloadSpec(
        workload="fixture", seed=seed, config="config.ini", n_tickers=len(config.prices),
        top_n=config.top_n_aspects,
        tweet_lines=_count_lines(out / "tweets.jsonl"), label_rows=0,
        planted=[["inflation", "fp", "NEE"]], planted_first_for="NEE",
        planted_min_r=0.9,
    )


# --- corpus ----------------------------------------------------------------

ASPECTS = (
    "inflation", "economy", "recession", "china", "investors", "market",
    "stock market", "trading", "price", "interest rate", "federal reserve",
    "bitcoin", "finance", "bank", "earnings", "sales", "cost", "tax",
    "oil price", "supply chain", "housing market", "jobs report", "dollar",
    "bonds", "energy", "crypto", "consumer spending", "gdp", "tech stocks",
    "mortgage",
)
CORPUS_PLANTED_ASPECT = "interest rate"
CORPUS_TICKERS = ("SHEL", "BP", "XOM", "BEPC", "CWEN")
CORPUS_PLANTED_TICKER = "NEE"
CORPUS_TWEETS = 6_000
#: Mean daily mentions per polarity of the planted aspect, whatever the size.
CORPUS_PLANTED_MEAN = 3.0
CORPUS_DAYS = 365

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "shu",
              "dra", "qui", "ben", "tor", "gal", "fen", "mox", "lur", "sab", "wen")
_LANGS = ("es", "de", "fr", "pt")


def _filler_vocabulary(excluded: set[str], size: int = 600) -> list[str]:
    """Deterministic pseudo-words that collide with no lexicon token."""
    rng = np.random.default_rng(12345)
    words: list[str] = []
    seen = set(excluded)
    while len(words) < size:
        n = int(rng.integers(2, 4))
        w = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), n))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _token_count(rng: np.random.Generator) -> int:
    """Tweet length in tokens: log-normal, median 20, clipped to 5..40."""
    return int(np.clip(round(rng.lognormal(np.log(20.0), 0.4)), 5, 40))


def generate_corpus(out: Path, seed: int, src: Path,
                    n_tweets: int = CORPUS_TWEETS, n_days: int = CORPUS_DAYS) -> WorkloadSpec:
    """About ``n_tweets`` tweets over ``n_days`` calendar days."""
    data = src / "sentdep" / "data"
    positive = _lexicon_entries(data / "positive_terms.txt")
    negative = _lexicon_entries(data / "negative_terms.txt")
    shutil.copyfile(data / "positive_terms.txt", out / "positive_terms.txt")
    shutil.copyfile(data / "negative_terms.txt", out / "negative_terms.txt")
    (out / "aspects.txt").write_text("\n".join(ASPECTS) + "\n", encoding="utf-8")

    lexicon_tokens = {t for a in ASPECTS for t in a.split()}
    lexicon_tokens |= set(positive) | set(negative)
    lexicon_tokens |= {t.lower() for t in (*CORPUS_TICKERS, CORPUS_PLANTED_TICKER)}
    filler = np.array(_filler_vocabulary(lexicon_tokens))
    # Zipf-like filler draw so keyword counts have a realistic long tail.
    filler_cdf = np.cumsum(1.0 / np.arange(1, len(filler) + 1))
    filler_cdf /= filler_cdf[-1]
    cashtags = [f"${t}" for t in (*CORPUS_TICKERS, CORPUS_PLANTED_TICKER)]

    rng = np.random.default_rng(seed)
    first = date(2022, 1, 1)
    days = _calendar_span(first, first + timedelta(days=n_days - 1))
    # Skewed per-aspect daily mean mentions per polarity, scaled to the target size.
    weights = 0.85 ** np.arange(len(ASPECTS))
    aspect_share = 0.8 * n_tweets / n_days  # the rest is chatter and decoys
    means = aspect_share * weights / weights.sum() / 3.0
    planted_idx = ASPECTS.index(CORPUS_PLANTED_ASPECT)
    means[planted_idx] = max(means[planted_idx], CORPUS_PLANTED_MEAN)
    chatter_mean = 0.17 * n_tweets / n_days
    planted_pos: dict[date, int] = {}

    counter = 0

    def tweet(day: date, tokens: list[str], lang: str = "en") -> str:
        nonlocal counter
        counter += 1
        ts = datetime(day.year, day.month, day.day, int(rng.integers(0, 24)),
                      int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                      tzinfo=timezone.utc).isoformat()
        if counter % 3 == 0:
            ts = ts.replace("+00:00", "Z")
        return json.dumps({"id": f"c{counter:08d}", "created_at": ts,
                           "text": " ".join(tokens), "lang": lang},
                          ensure_ascii=False)

    def filler_words(n: int) -> list[str]:
        words = [str(w) for w in filler[np.searchsorted(filler_cdf, rng.random(n))]]
        if n and rng.random() < 0.15:
            words[int(rng.integers(0, n))] = cashtags[int(rng.integers(0, len(cashtags)))]
        if n and rng.random() < 0.1:
            i = int(rng.integers(0, n))
            words[i] = "#" + words[i]
        return words

    with open(out / "tweets.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for day in days:
            for a_idx, aspect in enumerate(ASPECTS):
                counts = rng.poisson(means[a_idx], size=3)
                if a_idx == planted_idx:
                    planted_pos[day] = int(counts[0])
                for polarity, count in zip(("positive", "negative", "neutral"), counts):
                    for _ in range(int(count)):
                        aspect_tokens = aspect.split()
                        if polarity == "positive":
                            opinion = [positive[int(rng.integers(0, len(positive)))]]
                        elif polarity == "negative":
                            opinion = [negative[int(rng.integers(0, len(negative)))]]
                        else:
                            opinion = []
                        rest = max(0, _token_count(rng) - len(aspect_tokens) - len(opinion))
                        # Opinion directly after the aspect, so the window
                        # labeler reproduces the drawn polarity exactly.
                        lead = int(rng.integers(0, rest + 1))
                        words = filler_words(rest)
                        tokens = words[:lead] + aspect_tokens + opinion + words[lead:]
                        if rng.random() < 0.2:
                            tokens.append(f"https://example.com/{int(rng.integers(0, 10**6))}")
                        fh.write(tweet(day, tokens) + "\n")
            for _ in range(int(rng.poisson(chatter_mean))):
                fh.write(tweet(day, filler_words(_token_count(rng))) + "\n")
            # Non-English decoys that mention the planted aspect.
            for _ in range(int(rng.poisson(0.02 * n_tweets / n_days))):
                lang = _LANGS[int(rng.integers(0, len(_LANGS)))]
                fh.write(tweet(day, [*CORPUS_PLANTED_ASPECT.split(), "rally", "hoy",
                                     "datos"], lang=lang) + "\n")
            # Malformed lines, well under the 10% cap.
            for _ in range(int(rng.poisson(0.005 * n_tweets / n_days))):
                counter += 1
                broken = ('{"id": "c%08d", "created_at": "%s", "text": "cut off'
                          % (counter, day.isoformat()))
                fh.write((broken if counter % 2 else '{"id": 5, "lang": "en"}') + "\n")

    trading = [d for d in days if d.weekday() < 5]
    tickers = [*CORPUS_TICKERS, CORPUS_PLANTED_TICKER]
    for i, ticker in enumerate(CORPUS_TICKERS):
        closes = _random_walk(rng, 30.0 + 15.0 * i, len(trading))
        _write_prices(out / f"prices_{ticker}.csv", trading, closes, rng,
                      null_index=len(trading) // 2 if i == 0 else None)
    planted = _planted_closes(rng, [float(planted_pos[d]) for d in trading])
    _write_prices(out / f"prices_{CORPUS_PLANTED_TICKER}.csv", trading, planted, rng)

    _write_config(out / "config.ini", {
        "aspects": "aspects.txt", "tweets": "tweets.jsonl",
        "positive_terms": "positive_terms.txt", "negative_terms": "negative_terms.txt",
    }, tickers, top_n=20, seed=seed)
    return WorkloadSpec(
        workload="corpus", seed=seed, config="config.ini", n_tickers=len(tickers),
        top_n=20, tweet_lines=_count_lines(out / "tweets.jsonl"), label_rows=0,
        planted=[[CORPUS_PLANTED_ASPECT, "fp", CORPUS_PLANTED_TICKER]],
        planted_first_for=CORPUS_PLANTED_TICKER,
    )


# --- universe --------------------------------------------------------------

UNIVERSE_TRADING_DAYS = 504
UNIVERSE_TICKERS = 25
#: Planted tickers follow the positive count of these (dense) aspects.
UNIVERSE_PLANTED = ("inflation", "economy", "recession")
UNIVERSE_TOP_N = 8


def generate_universe(out: Path, seed: int, src: Path,
                      n_trading_days: int = UNIVERSE_TRADING_DAYS,
                      n_tickers: int = UNIVERSE_TICKERS) -> WorkloadSpec:
    """External labels for two trading years over a wide ticker universe."""
    (out / "aspects.txt").write_text("\n".join(ASPECTS) + "\n", encoding="utf-8")
    rng = np.random.default_rng(seed)
    trading = _trading_days(date(2021, 1, 4), n_trading_days)
    days = _calendar_span(trading[0], trading[-1])
    # Mention rates fall from 60/day to under one per day within the top
    # UNIVERSE_TOP_N, so the analysed series are both dense and sparse.
    rates = 60.0 * 0.55 ** np.arange(len(ASPECTS))
    pos_share = rng.uniform(0.2, 0.5, size=len(ASPECTS))
    neg_share = rng.uniform(0.1, 0.4, size=len(ASPECTS))
    planted_idx = [ASPECTS.index(a) for a in UNIVERSE_PLANTED]
    planted_pos = {a: {} for a in UNIVERSE_PLANTED}

    rows = 0
    with open(out / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tweet_id", "date", "aspect", "polarity"])
        for day in days:
            iso = day.isoformat()
            for a_idx, aspect in enumerate(ASPECTS):
                total = int(rng.poisson(rates[a_idx]))
                p = (pos_share[a_idx], neg_share[a_idx],
                     1.0 - pos_share[a_idx] - neg_share[a_idx])
                n_pos, n_neg, n_neu = (int(c) for c in rng.multinomial(total, p))
                if a_idx in planted_idx:
                    planted_pos[aspect][day] = n_pos
                for polarity, count in (("positive", n_pos), ("negative", n_neg),
                                        ("neutral", n_neu)):
                    for _ in range(count):
                        rows += 1
                        writer.writerow([f"u{rows:09d}", iso, aspect, polarity])

    tickers = [f"U{i:03d}" for i in range(n_tickers - len(UNIVERSE_PLANTED))]
    planted_tickers = [f"P{i:02d}" for i in range(len(UNIVERSE_PLANTED))]
    for i, ticker in enumerate(tickers):
        closes = _random_walk(rng, 20.0 + (i % 17) * 7.0, len(trading))
        _write_prices(out / f"prices_{ticker}.csv", trading, closes, rng,
                      null_index=(i * 37) % len(trading) if i % 10 == 0 else None)
    for aspect, ticker in zip(UNIVERSE_PLANTED, planted_tickers):
        closes = _planted_closes(rng, [float(planted_pos[aspect][d]) for d in trading])
        _write_prices(out / f"prices_{ticker}.csv", trading, closes, rng)
    # Planted tickers sit among the others, not at the end of the columns.
    all_tickers = tickers[:10] + planted_tickers + tickers[10:]

    _write_config(out / "config.ini", {"aspects": "aspects.txt", "labels": "labels.csv"},
                  all_tickers, top_n=UNIVERSE_TOP_N, seed=seed)
    return WorkloadSpec(
        workload="universe", seed=seed, config="config.ini", n_tickers=len(all_tickers),
        top_n=UNIVERSE_TOP_N, tweet_lines=0, label_rows=rows,
        planted=[[a, "fp", t] for a, t in zip(UNIVERSE_PLANTED, planted_tickers)],
    )


GENERATORS = {
    "fixture": generate_fixture,
    "corpus": generate_corpus,
    "universe": generate_universe,
}
WORKLOADS = tuple(GENERATORS)


def generator_digest(workload: str, src: Path) -> str:
    """Digest of everything that decides the generated bytes."""
    h = hashlib.sha256(workload.encode())
    sources = [Path(__file__)]
    sources += sorted((src / "sentdep" / "data").glob("*.txt"))
    if workload == "fixture":
        sources.append(src / "sentdep" / "fixture.py")
    for path in sources:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare_inputs(workload: str, seed: int, src: Path, work: Path) -> tuple[Path, WorkloadSpec]:
    """Input directory and spec for (workload, seed), generated once and cached."""
    key = f"{workload}-{seed}-{generator_digest(workload, src)}"
    final = work / "inputs" / key
    if not (final / "spec.json").is_file():
        tmp = work / "inputs" / f".{key}.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        spec = GENERATORS[workload](tmp, seed, src)
        spec.save(tmp / "spec.json")
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
    return final, WorkloadSpec.load(final / "spec.json")
