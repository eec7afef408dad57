"""File ingestion: tweets, prices, aspect lexicons, and external labels.

All parsers are pure per file and safe to run concurrently. Formats:

* Tweets: JSON Lines with fields ``id``, ``created_at`` (ISO-8601),
  ``text``, ``lang``.
* Prices: Yahoo Finance daily-history CSV
  (``Date,Open,High,Low,Close,Adj Close,Volume``); only Date and Close
  are consumed.
* Labels: CSV ``tweet_id,date,aspect,polarity``.
* Aspect lexicon: plain text, one aspect per line, ``#`` comments ignored.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .core import PolarityLabel
from .errors import EmptySeries, FormatError, HeaderMismatch

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)

#: Fraction of malformed tweet lines tolerated before the file is rejected.
DEFAULT_MALFORMED_CAP = 0.10


@dataclass(frozen=True)
class TweetRecord:
    """One ingested social-media post."""

    id: str
    timestamp: datetime
    text: str
    lang: str

    @property
    def utc_date(self) -> date:
        """Calendar day of the post in UTC (the aggregation key)."""
        return self.timestamp.astimezone(timezone.utc).date()


@dataclass(frozen=True)
class KeywordFrequency:
    """A token and the number of distinct tweets containing it."""

    keyword: str
    tweet_count: int


class AspectLexicon:
    """Ordered list of lowercase aspect token sequences.

    Entries may span several tokens ("stock market"); matching elsewhere is
    on whole contiguous tokens, so "stock" never matches inside
    "stockmarket". File order is preserved and doubles as the presentation
    order in reports.
    """

    def __init__(self, aspects: Iterable[str]):
        entries: list[str] = []
        seen: set[str] = set()
        for raw in aspects:
            a = " ".join(raw.lower().split())
            if not a:
                raise ValueError("aspect entries must be non-empty")
            if a in seen:
                raise ValueError(f"duplicate aspect {a!r}")
            seen.add(a)
            entries.append(a)
        if not entries:
            raise ValueError("aspect lexicon must not be empty")
        self._aspects = tuple(entries)
        self._token_seqs = tuple(tuple(a.split()) for a in entries)

    @property
    def aspects(self) -> tuple[str, ...]:
        return self._aspects

    @property
    def token_sequences(self) -> tuple[tuple[str, ...], ...]:
        return self._token_seqs

    def __len__(self) -> int:
        return len(self._aspects)

    def __contains__(self, aspect: str) -> bool:
        return aspect in set(self._aspects)

    def __iter__(self):
        return iter(self._aspects)


def tokenize(text: str) -> list[str]:
    """Split tweet text into normalized tokens.

    Rules: lowercase; URLs removed; whitespace split; leading/trailing
    non-alphanumeric characters stripped from each token (which removes
    '#' from hashtags and '$' from cashtags while keeping intra-word
    punctuation such as apostrophes and hyphens); empty tokens dropped.
    """
    text = _URL_RE.sub(" ", text.lower())
    tokens: list[str] = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


def _parse_timestamp(value: str) -> datetime:
    # Twitter exports use a trailing 'Z'; fromisoformat on 3.10 does not.
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    ts = datetime.fromisoformat(value)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _tweet_from_json(line: str) -> TweetRecord | None:
    """Parse one JSONL line; None signals a malformed line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    try:
        tweet_id = obj["id"]
        created_at = obj["created_at"]
        text = obj["text"]
        lang = obj["lang"]
    except KeyError:
        return None
    if not all(isinstance(v, str) for v in (tweet_id, created_at, text, lang)):
        return None
    if not tweet_id or not text:
        return None
    try:
        ts = _parse_timestamp(created_at)
    except ValueError:
        return None
    return TweetRecord(id=tweet_id, timestamp=ts, text=text, lang=lang)


def parse_tweets(path, malformed_cap: float = DEFAULT_MALFORMED_CAP) -> list[TweetRecord]:
    """Read a JSONL tweet file, keeping English posts in file order.

    Records with ``lang != "en"`` are excluded. Malformed lines, including
    lines that are not valid UTF-8, are counted and logged; the file is
    rejected with FormatError only when their fraction exceeds
    ``malformed_cap``. Blank lines are ignored entirely. Lines end at a
    line feed, as JSON Lines prescribes; a carriage return before it is
    whitespace.
    """
    path = Path(path)
    records: list[TweetRecord] = []
    total = 0
    bad_lines: list[int] = []
    # Decoded line by line, so one undecodable line is one malformed line.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                line = None
            if line is not None and not line.strip():
                continue
            total += 1
            rec = None if line is None else _tweet_from_json(line)
            if rec is None:
                bad_lines.append(lineno)
                continue
            if rec.lang == "en":
                records.append(rec)
    if total and len(bad_lines) / total > malformed_cap:
        raise FormatError(
            f"{len(bad_lines)} of {total} lines malformed "
            f"(cap {malformed_cap:.0%}); first bad line {bad_lines[0]}",
            path=path,
        )
    if bad_lines:
        logger.warning(
            "%s: skipped %d malformed line(s), first at line %d",
            path, len(bad_lines), bad_lines[0],
        )
    return records


def parse_prices(path, ticker: str):
    """Read one Yahoo-layout CSV into a PriceSeries for ``ticker``.

    Rows whose Close is non-numeric (Yahoo writes "null"), non-positive,
    non-finite, or whose Date is unparseable are skipped with a warning.
    """
    from .core import PriceSeries

    path = Path(path)
    values: dict[date, float] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMismatch("price file is empty", path=path) from None
        header = [h.strip() for h in header]
        for required in ("Date", "Close"):
            if required not in header:
                raise HeaderMismatch(
                    f"missing column {required!r} in header {header}", path=path
                )
        date_col = header.index("Date")
        close_col = header.index("Close")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(date_col, close_col):
                logger.warning("%s:%d: short row skipped", path, lineno)
                continue
            try:
                d = date.fromisoformat(row[date_col].strip())
            except ValueError:
                logger.warning("%s:%d: bad date %r skipped", path, lineno, row[date_col])
                continue
            try:
                close = float(row[close_col])
            except ValueError:
                logger.warning("%s:%d: non-numeric Close %r skipped",
                               path, lineno, row[close_col])
                continue
            if not 0 < close < math.inf:
                logger.warning("%s:%d: non-positive or non-finite Close %r skipped",
                               path, lineno, close)
                continue
            values[d] = close
    if not values:
        raise EmptySeries(f"{path}: no usable price rows for {ticker}")
    return PriceSeries(ticker=ticker, values=values)


def parse_labeled(path) -> list[tuple[str, date, str, PolarityLabel]]:
    """Read externally produced aspect labels.

    CSV header ``tweet_id,date,aspect,polarity`` with polarity in
    {positive, neutral, negative}. Duplicate (tweet_id, aspect) rows are
    kept: an aspect can occur several times in one tweet and downstream
    counts are occurrence-based.
    """
    path = Path(path)
    out: list[tuple[str, date, str, PolarityLabel]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("label file is empty", path=path) from None
        if [h.strip() for h in header] != ["tweet_id", "date", "aspect", "polarity"]:
            raise HeaderMismatch(
                f"expected header tweet_id,date,aspect,polarity, got {header}", path=path
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise FormatError(f"expected 4 fields, got {len(row)}",
                                  path=path, line_number=lineno)
            tweet_id, date_s, aspect, polarity_s = (c.strip() for c in row)
            if not tweet_id:
                raise FormatError("empty tweet_id", path=path, line_number=lineno)
            try:
                d = date.fromisoformat(date_s)
            except ValueError:
                raise FormatError(f"bad date {date_s!r}", path=path,
                                  line_number=lineno) from None
            try:
                pol = PolarityLabel.from_string(polarity_s)
            except ValueError:
                raise FormatError(f"unknown polarity {polarity_s!r}", path=path,
                                  line_number=lineno) from None
            out.append((tweet_id, d, aspect, pol))
    return out


def write_labeled(labels: Iterable[tuple[str, date, str, PolarityLabel]], path) -> None:
    """Serialize label tuples (inverse of :func:`parse_labeled`)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tweet_id", "date", "aspect", "polarity"])
        for tweet_id, d, aspect, pol in labels:
            writer.writerow([tweet_id, d.isoformat(), aspect, pol.value])


def load_aspects(path) -> AspectLexicon:
    """Load an aspect lexicon file: one aspect per line, '#' comments ignored."""
    entries: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(line)
    return AspectLexicon(entries)


def keyword_frequencies(
    tweets: Sequence[TweetRecord], min_count: int = 100
) -> list[KeywordFrequency]:
    """Count, for each token, the tweets containing it at least once.

    Each distinct token is counted at most once per tweet. Tokens with
    fewer than ``min_count`` tweets are dropped; output is sorted by count
    descending, then keyword ascending. This is the corpus-frequency side
    of keyword hopping: high-frequency terms are candidates for widening
    the collection query.
    """
    counts: dict[str, int] = {}
    for tweet in tweets:
        for token in set(tokenize(tweet.text)):
            counts[token] = counts.get(token, 0) + 1
    kept = [
        KeywordFrequency(keyword=k, tweet_count=c)
        for k, c in counts.items()
        if c >= min_count
    ]
    kept.sort(key=lambda kf: (-kf.tweet_count, kf.keyword))
    return kept


def write_keyword_frequencies(freqs: Sequence[KeywordFrequency], path) -> None:
    """Write keyword frequencies as CSV ``keyword,tweet_count``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["keyword", "tweet_count"])
        for kf in freqs:
            writer.writerow([kf.keyword, kf.tweet_count])
