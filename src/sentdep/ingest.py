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
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import PolarityLabel
from .errors import EmptySeries, FormatError, HeaderMismatch, OutputError

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

    @cached_property
    def tokens(self) -> list[str]:
        """The text's tokens, computed on first use and kept for the next."""
        return tokenize(self.text)


@dataclass(frozen=True)
class KeywordFrequency:
    """A token and the number of distinct tweets containing it."""

    keyword: str
    tweet_count: int


def _normalize_aspect(raw: str) -> str:
    """Lowercase an aspect entry and collapse its whitespace runs."""
    return " ".join(raw.lower().split())


class AspectLexicon:
    """Ordered list of lowercase aspect token sequences.

    Entries may span several tokens ("stock market"); matching elsewhere is
    on whole contiguous tokens, so "stock" never matches inside
    "stockmarket". File order is preserved and doubles as the presentation
    order in reports. ``by_first_token`` maps each entry's first token to
    its ``(aspect, token sequence)`` pairs, in lexicon order.
    """

    def __init__(self, aspects: Iterable[str]):
        entries: list[str] = []
        seen: set[str] = set()
        for raw in aspects:
            a = _normalize_aspect(raw)
            if not a:
                raise ValueError("aspect entries must be non-empty")
            if a in seen:
                raise ValueError(f"duplicate aspect {a!r}")
            seen.add(a)
            entries.append(a)
        if not entries:
            raise ValueError("aspect lexicon must not be empty")
        self._aspects = tuple(entries)
        index: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for aspect in self._aspects:
            seq = tuple(aspect.split())
            index.setdefault(seq[0], []).append((aspect, seq))
        self._by_first_token = {first: tuple(pairs) for first, pairs in index.items()}

    @property
    def aspects(self) -> tuple[str, ...]:
        return self._aspects

    @property
    def by_first_token(self) -> dict[str, tuple[tuple[str, tuple[str, ...]], ...]]:
        return self._by_first_token


def open_input(path, mode: str = "r", **kwargs):
    """:func:`open`, but a path that cannot be opened raises FormatError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise FormatError(f"cannot open file: {exc.strerror}", path=path) from None


def read_lines(path, newline: str | None = None) -> Iterator[str]:
    """Lazily yield the lines of a UTF-8 text file.

    ``newline`` is passed to :func:`open` (``""`` for CSV readers). A byte
    sequence that is not UTF-8 raises FormatError naming the file and the
    line it sits on.
    """
    path = Path(path)
    try:
        with open_input(path, encoding="utf-8", newline=newline) as fh:
            yield from fh
    except UnicodeDecodeError:
        # The decoder reports offsets within a chunk; decode the whole file
        # again to place the bad byte on a line.
        raw = path.read_bytes()
        line_number = None
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_number = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError("not valid UTF-8 text", path=path,
                          line_number=line_number) from None


def comment_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped text)`` for each line of a plain-text
    list that is neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def csv_rows(
    path, what: str, header: Sequence[str] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each non-blank CSV row.

    With ``header``, a different first row raises HeaderMismatch and a row
    without one field per column raises FormatError; without it, the first
    row is yielded too. An empty file, or a CSV syntax error such as an
    oversized field, raises FormatError. Lines are counted as read, so a
    quoted field spanning lines puts its row on the line where it ends.
    """
    reader = csv.reader(read_lines(path, newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise FormatError(f"{what} file is empty", path=path)
        first = [f.strip() for f in first]
        if header is None:
            yield reader.line_num, first
        elif first != list(header):
            raise HeaderMismatch(f"expected header {','.join(header)}, got {first}",
                                 path=path)
        for row in reader:
            fields = list(map(str.strip, row))
            if not any(fields):
                continue
            if header is not None and len(fields) != len(header):
                raise FormatError(f"expected {len(header)} fields, got {len(fields)}",
                                  path=path, line_number=reader.line_num)
            yield reader.line_num, fields
    except csv.Error as exc:
        raise FormatError(str(exc), path=path, line_number=reader.line_num) from None


def open_output(path, newline: str | None = None):
    """:func:`open` for writing UTF-8 text; a path that cannot be written
    raises OutputError naming it."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise OutputError(f"cannot write file: {exc.strerror}", path=path) from None


def make_output_dir(path) -> Path:
    """Create the directory ``path`` and its parents unless it exists; a
    path that cannot be a directory raises OutputError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory: {exc.strerror}", path=path) from None
    return path


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV artifact: UTF-8, ``\\n`` line endings, header then rows."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def parse_tweets(path, malformed_cap: float = DEFAULT_MALFORMED_CAP) -> Iterator[TweetRecord]:
    """Stream the English posts of a JSONL tweet file, in file order.

    Records with ``lang != "en"`` are excluded. Malformed lines, including
    lines that are not valid UTF-8, are counted and logged; the file is
    rejected with FormatError only when their fraction exceeds
    ``malformed_cap``. That check needs every line, so it runs when the
    file ends: a consumer sees the error after the last record, and should
    write nothing before it has read the stream to the end. Blank lines
    are ignored entirely. Lines end at a line feed, as JSON Lines
    prescribes; a carriage return before it is whitespace.
    """
    path = Path(path)
    total = 0
    bad_lines: list[int] = []
    # Decoded line by line, so one undecodable line is one malformed line.
    with open_input(path, "rb") as fh:
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
                yield rec
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


def parse_prices(path, ticker: str) -> dict[date, float]:
    """Read one Yahoo-layout CSV into the date -> close dict of ``ticker``.

    Rows whose Close is non-numeric (Yahoo writes "null"), non-positive,
    non-finite, or whose Date is unparseable are skipped with a warning,
    so every close returned is positive and finite.
    """
    values: dict[date, float] = {}
    rows = csv_rows(path, "price")
    _, header = next(rows)
    for required in ("Date", "Close"):
        if required not in header:
            raise HeaderMismatch(
                f"missing column {required!r} in header {header}", path=path
            )
    date_col = header.index("Date")
    close_col = header.index("Close")
    for lineno, row in rows:
        if len(row) <= max(date_col, close_col):
            logger.warning("%s:%d: short row skipped", path, lineno)
            continue
        try:
            d = date.fromisoformat(row[date_col])
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
    return values


_LABEL_HEADER = ("tweet_id", "date", "aspect", "polarity")


#: Polarity of each label-file spelling.
_POLARITIES = {p.value: p for p in PolarityLabel}


def parse_labeled(path) -> Iterator[tuple[str, date, str, PolarityLabel]]:
    """Stream externally produced aspect labels, in file order.

    CSV header ``tweet_id,date,aspect,polarity`` with polarity in
    {positive, neutral, negative}. Duplicate (tweet_id, aspect) rows are
    kept: an aspect can occur several times in one tweet and downstream
    counts are occurrence-based. Each distinct date string is parsed once.
    A bad row raises FormatError when the stream reaches it.
    """
    days: dict[str, date] = {}
    for lineno, (tweet_id, date_s, aspect, polarity_s) in csv_rows(
        path, "label", _LABEL_HEADER
    ):
        if not tweet_id:
            raise FormatError("empty tweet_id", path=path, line_number=lineno)
        d = days.get(date_s)
        if d is None:
            try:
                d = days[date_s] = date.fromisoformat(date_s)
            except ValueError:
                raise FormatError(f"bad date {date_s!r}", path=path,
                                  line_number=lineno) from None
        pol = _POLARITIES.get(polarity_s)
        if pol is None:
            raise FormatError(f"unknown polarity {polarity_s!r}", path=path,
                              line_number=lineno)
        yield tweet_id, d, aspect, pol


def write_labeled(labels: Iterable[tuple[str, date, str, PolarityLabel]], path) -> None:
    """Serialize label tuples (inverse of :func:`parse_labeled`)."""
    write_csv(path, _LABEL_HEADER,
              ((tweet_id, d.isoformat(), aspect, pol.value)
               for tweet_id, d, aspect, pol in labels))


def load_aspects(path) -> AspectLexicon:
    """Load an aspect lexicon file: one aspect per line, '#' comments ignored.

    A file without any aspect, or an aspect listed twice, raises
    FormatError naming the file (and the line of the second listing).
    """
    first_line: dict[str, int] = {}
    for lineno, line in comment_lines(path):
        aspect = _normalize_aspect(line)
        if aspect in first_line:
            raise FormatError(
                f"duplicate aspect {aspect!r} (first listed on line {first_line[aspect]})",
                path=path, line_number=lineno,
            )
        first_line[aspect] = lineno
    if not first_line:
        raise FormatError("aspect lexicon lists no aspect", path=path)
    return AspectLexicon(first_line)


class KeywordCounts:
    """Tweets per token, counted while the tweets stream past.

    Each distinct token is counted at most once per tweet. :meth:`tap`
    lets another consumer read the same stream, so a corpus is read and
    tokenized once for both the counts and the labels.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def tap(self, tweets: Iterable[TweetRecord]) -> Iterator[TweetRecord]:
        """Yield each tweet unchanged after counting its tokens."""
        counts = self._counts
        for tweet in tweets:
            for token in set(tweet.tokens):
                counts[token] = counts.get(token, 0) + 1
            yield tweet

    def frequencies(self, min_count: int = 100) -> list[KeywordFrequency]:
        """Tokens in at least ``min_count`` tweets, by count desc then keyword."""
        kept = [
            KeywordFrequency(keyword=k, tweet_count=c)
            for k, c in self._counts.items()
            if c >= min_count
        ]
        kept.sort(key=lambda kf: (-kf.tweet_count, kf.keyword))
        return kept


def keyword_frequencies(
    tweets: Iterable[TweetRecord], min_count: int = 100
) -> list[KeywordFrequency]:
    """Count, for each token, the tweets containing it at least once.

    Each distinct token is counted at most once per tweet. Tokens with
    fewer than ``min_count`` tweets are dropped; output is sorted by count
    descending, then keyword ascending. This is the corpus-frequency side
    of keyword hopping: high-frequency terms are candidates for widening
    the collection query.
    """
    counts = KeywordCounts()
    for _ in counts.tap(tweets):
        pass
    return counts.frequencies(min_count)


def write_keyword_frequencies(freqs: Sequence[KeywordFrequency], path) -> None:
    """Write keyword frequencies as CSV ``keyword,tweet_count``."""
    write_csv(path, ("keyword", "tweet_count"),
              ((kf.keyword, kf.tweet_count) for kf in freqs))
