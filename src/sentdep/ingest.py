"""File ingestion: tweets, prices, aspect lexicons, and external labels.

All parsers are pure per file and safe to run concurrently. Formats:

* Tweets: JSON Lines with fields ``id``, ``created_at`` (ISO-8601),
  ``text``, ``lang``.
* Prices: Yahoo Finance daily-history CSV
  (``Date,Open,High,Low,Close,Adj Close,Volume``); only Date and Close
  are consumed.
* Labels: CSV ``tweet_id,date,aspect,polarity``.
* Aspect lexicon: plain text, one aspect per line, ``#`` comments ignored.

Every CSV file is opened through :func:`csv_reader`, which decodes UTF-8,
checks for an empty file and the header, and turns a decoding or CSV
syntax error into a FormatError with its line; :func:`_row_fields` holds
the rule for blank rows and field counts. :func:`csv_rows` yields checked
rows of a file with a fixed header on top of them. :func:`parse_prices`
reads its file in one loop over the reader, stripping only the fields it
uses, and uses :func:`_row_fields` only for the rows that fail its quick
checks; :func:`parse_labeled` reads a label file so too, unless every
row of the file splits at its commas as the reader would split it: such
a file is counted in bulk, without the reader.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import COUNT_INDEX, DEFAULT_MALFORMED_CAP, DEFAULT_MIN_KEYWORD_COUNT, PolarityLabel
from .errors import EmptySeries, FormatError, HeaderMismatch, OutputError

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


class _FirstTokens:
    """``record.tokens``: the text's tokens, computed on first use and put
    in the record's dict, where the next lookup finds them first: what
    :func:`functools.cached_property` does, without the lock it takes
    before Python 3.12 (about 1 µs a tweet)."""

    def __get__(self, record: TweetRecord | None, owner=None):
        if record is None:
            return self
        tokens = record.__dict__["tokens"] = tokenize(record.text)
        return tokens


@dataclass(frozen=True, init=False)
class TweetRecord:
    """One ingested social-media post.

    ``utc_date``, the calendar day of the post in UTC (the aggregation
    key), is computed once, when the record is made; a timestamp whose UTC
    day falls outside the years 1–9999 raises OverflowError there.
    """

    id: str
    timestamp: datetime
    text: str
    lang: str
    utc_date: date = field(init=False, repr=False, compare=False)

    def __init__(self, id: str, timestamp: datetime, text: str, lang: str) -> None:
        # A frozen dataclass's own __init__ sets each field through
        # object.__setattr__; writing the instance dict is the same, faster.
        fields = self.__dict__
        fields["id"] = id
        fields["timestamp"] = timestamp
        fields["text"] = text
        fields["lang"] = lang
        fields["utc_date"] = timestamp.astimezone(timezone.utc).date()

    tokens = _FirstTokens()


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
    order in reports. ``by_first_token`` maps each entry's first token to
    its ``(aspect, token sequence)`` pairs, in lexicon order. Entries are
    stored as given; :func:`load_aspects` normalises them and rejects a
    repeated entry or a file without any.
    """

    def __init__(self, aspects: Iterable[str]):
        self._aspects = tuple(aspects)
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


def packaged_data(name: str) -> Path:
    """The path of a data file shipped in the package: the default aspect
    lexicon ``aspects_default.txt`` and the term files."""
    return Path(str(resources.files("sentdep").joinpath("data", name)))


def open_input(path, mode: str = "r", **kwargs):
    """:func:`open`, but a path that cannot be opened raises FormatError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise FormatError(f"cannot open file: {exc.strerror}", path=path) from None


def _not_utf8(path) -> FormatError:
    """The FormatError for a file that is not UTF-8, placed on the line of
    its first bad byte."""
    # The decoder reports offsets within a chunk; decode the whole file
    # again to place the bad byte on a line.
    path = Path(path)
    raw = path.read_bytes()
    line_number = None
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = raw.count(b"\n", 0, exc.start) + 1
    return FormatError("not valid UTF-8 text", path=path, line_number=line_number)


def read_lines(path) -> Iterator[str]:
    """Lazily yield the lines of a UTF-8 text file.

    A byte sequence that is not UTF-8 raises FormatError naming the file
    and the line it sits on.
    """
    try:
        with open_input(Path(path), encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def comment_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped text)`` for each line of a plain-text
    list that is neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


@contextmanager
def csv_reader(path, what: str, header: Sequence[str] | None = None):
    """Open a UTF-8 CSV file as a :func:`csv.reader` past its first row.

    Yields ``(reader, first row)``, the first row's fields stripped. An
    empty file raises FormatError; with ``header``, a different first row
    raises HeaderMismatch. Within the block, a byte that is not UTF-8 or
    a CSV syntax error such as an oversized field raises FormatError with
    its line. ``reader.line_num`` counts lines as read, so a quoted field
    spanning lines puts its row on the line where it ends.
    """
    try:
        with open_input(Path(path), encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise FormatError(f"{what} file is empty", path=path)
            first = [f.strip() for f in first]
            if header is not None and first != list(header):
                raise HeaderMismatch(f"expected header {','.join(header)}, got {first}",
                                     path=path)
            yield reader, first
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:
        raise FormatError(str(exc), path=path, line_number=reader.line_num) from None


def _row_fields(row: list[str], width: int | None, path, line_number: int) -> list[str] | None:
    """A CSV row's stripped fields, or None for a row that holds only
    whitespace; with ``width``, another number of fields raises FormatError."""
    fields = [f.strip() for f in row]
    if not any(fields):
        return None
    if width is not None and len(fields) != width:
        raise FormatError(f"expected {width} fields, got {len(fields)}",
                          path=path, line_number=line_number)
    return fields


def csv_rows(path, what: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each non-blank CSV row
    after the header.

    The file is read and its header checked by :func:`csv_reader`; a row
    without one field per column raises FormatError.
    """
    width = len(header)
    with csv_reader(path, what, header) as (reader, _):
        for row in reader:
            fields = _row_fields(row, width, path, reader.line_num)
            if fields is not None:
                yield reader.line_num, fields


@contextmanager
def output_errors(shown):
    """Raise an OSError of the block as OutputError naming ``shown``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write file: {exc.strerror}", path=shown) from None


class _OutputFile(io.FileIO):
    """A file opened for writing: an OSError of its open, a write or its
    close raises OutputError naming ``shown``."""

    def __init__(self, path, mode: str, shown) -> None:
        self.shown = shown
        with output_errors(shown):
            super().__init__(path, mode)

    def write(self, data) -> int:
        with output_errors(self.shown):
            return super().write(data)

    def close(self) -> None:
        with output_errors(self.shown):
            super().close()


def open_output(path, newline: str | None = None, shown=None):
    """:func:`open` for writing UTF-8 text. An OSError of its open, a
    write or its close raises OutputError naming ``shown`` (by default
    ``path``); one that reading an input raises while its rows stream
    into the file stays itself."""
    raw = _OutputFile(path, "w", shown or path)
    return io.TextIOWrapper(io.BufferedWriter(raw), "utf-8", newline=newline)


def make_output_dir(path) -> Path:
    """Create the directory ``path`` and its parents unless it exists; a
    path that cannot be a directory raises OutputError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory: {exc.strerror}", path=path) from None
    return path


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]],
              shown=None) -> None:
    """Write a CSV artifact: UTF-8, ``\\n`` line endings, header (unless
    empty) then rows; a failed write names ``shown`` (see :func:`open_output`)."""
    with open_output(path, newline="", shown=shown) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def csv_field(text: str) -> str:
    """``text`` as :func:`write_csv` writes it as one field of a row:
    quoted where it holds a comma, a quote or a line break."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])
    return out.getvalue()[:-2]


def tokenize(text: str) -> list[str]:
    """Split tweet text into normalized tokens.

    Rules: lowercase; URLs removed; whitespace split; leading/trailing
    non-alphanumeric characters stripped from each token (which removes
    '#' from hashtags and '$' from cashtags while keeping intra-word
    punctuation such as apostrophes and hyphens); empty tokens dropped.

    The URL pattern runs only on a lowered text that contains ``http`` or
    ``www.``: no other characters match those letters case-insensitively,
    so any other text has no URL. A text whose tokens are alphanumeric
    throughout is returned as split, and otherwise only the tokens that
    do not start and end with an alphanumeric character are stripped;
    each shortcut gives the tokens of the full rules.
    """
    text = text.lower()
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    raws = text.split()
    if "".join(raws).isalnum():
        return raws
    tokens: list[str] = []
    for raw in raws:
        if raw[0].isalnum() and raw[-1].isalnum():
            tokens.append(raw)
            continue
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


def _parse_timestamp(value: str) -> datetime:
    # Twitter exports end in 'Z' for UTC; fromisoformat rejects a lowercase 'z'.
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    ts = datetime.fromisoformat(value)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


#: The JSON decoder's scanner: the value at an index and the index after it.
_scan_json = json.JSONDecoder().scan_once
#: The whitespace JSON allows around a value.
_JSON_SPACE = " \t\n\r"


def _tweet_from_json(line: str) -> TweetRecord | None:
    """Parse one JSONL line; None signals a malformed line (see
    :func:`parse_tweets` for the rules).

    The line is decoded as :func:`json.loads` decodes it: its value is
    scanned once its JSON whitespace is stripped, and must end where the
    stripped line ends. Only a ``\\u`` escape can produce a lone
    surrogate, so only lines with one are checked for it.
    """
    body = line.strip(_JSON_SPACE)
    try:
        obj, end = _scan_json(body, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if end != len(body) or not isinstance(obj, dict):
        return None
    try:
        tweet_id = obj["id"]
        created_at = obj["created_at"]
        text = obj["text"]
        lang = obj["lang"]
    except KeyError:
        return None
    if not (isinstance(tweet_id, str) and isinstance(created_at, str)
            and isinstance(text, str) and isinstance(lang, str)):
        return None
    if not tweet_id or not text:
        return None
    if "\\u" in line:
        try:
            tweet_id.encode("utf-8")
            text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    try:
        return TweetRecord(id=tweet_id, timestamp=_parse_timestamp(created_at),
                           text=text, lang=lang)
    except (ValueError, OverflowError):
        return None


class LineTally:
    """Line counts of a tweet file, or of a block of one: its lines, those
    that count toward the malformed-line cap (every line but a blank one),
    the malformed ones, and the first malformed line's number, counted from
    1 at the block's start (0 for none)."""

    __slots__ = ("lines", "total", "bad", "first_bad")

    def __init__(self, lines: int = 0, total: int = 0, bad: int = 0,
                 first_bad: int = 0) -> None:
        self.lines, self.total, self.bad, self.first_bad = lines, total, bad, first_bad

    def extend(self, block: LineTally) -> None:
        """Add the counts of the block that follows these lines in the file."""
        if block.bad and not self.bad:
            self.first_bad = self.lines + block.first_bad
        self.lines += block.lines
        self.total += block.total
        self.bad += block.bad

    def check(self, path, malformed_cap: float) -> None:
        """Raise FormatError when the malformed lines of the file ``path``
        exceed ``malformed_cap``; otherwise log a warning if there are any."""
        if self.total and self.bad / self.total > malformed_cap:
            raise FormatError(
                f"{self.bad} of {self.total} lines malformed "
                f"(cap {malformed_cap:.0%}); first bad line {self.first_bad}",
                path=Path(path),
            )
        if self.bad:
            logger.warning("%s: skipped %d malformed line(s), first at line %d",
                           Path(path), self.bad, self.first_bad)


def parse_tweets(path, malformed_cap: float = DEFAULT_MALFORMED_CAP,
                 span: tuple[int, int] | None = None,
                 tally: LineTally | None = None) -> Iterator[TweetRecord]:
    """Stream the English posts of a JSONL tweet file, in file order.

    Records with ``lang != "en"`` are excluded. A line is malformed when
    it is not valid UTF-8; when it is not one JSON object, which includes
    JSON nested too deep to decode and an integer too long to convert;
    when any of the four fields is missing or not a string, or ``id`` or
    ``text`` is empty; when ``created_at`` is not ISO-8601 or its UTC day
    falls outside the years 1–9999; and when ``id`` or ``text`` holds a
    lone surrogate (from a ``\\u`` escape), which no UTF-8 output can
    hold. Malformed lines count whatever their ``lang``; they are counted
    and logged, and the file is rejected with FormatError only when their
    fraction exceeds ``malformed_cap``. That check needs every line, so it
    runs when the file ends: a consumer sees the error after the last
    record, and should write nothing before it has read the stream to the
    end. Blank lines are ignored entirely. Lines end at a line feed, as
    JSON Lines prescribes; a carriage return before it is whitespace.

    ``span``, a byte range that starts and ends at a line start (see
    :func:`sentdep.blocks.line_blocks`), reads only those bytes, by the
    same rules. With ``tally``, the lines' counts are added to it
    instead, numbered from the first line read, and the caller checks the
    cap (:meth:`LineTally.check`), so that blocks read apart are checked
    as one file.
    """
    path = Path(path)
    lineno = total = bad = first_bad = 0
    # Decoded line by line, so one undecodable line is one malformed line.
    with open_input(path, "rb") as fh:
        lines = fh
        if span is not None:
            fh.seek(span[0])
            lines = io.BytesIO(fh.read(span[1] - span[0]))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                rec = None
            else:
                if line.isspace():
                    continue
                rec = _tweet_from_json(line)
            total += 1
            if rec is None:
                bad += 1
                first_bad = first_bad or lineno
                continue
            if rec.lang == "en":
                yield rec
    counts = LineTally(lineno, total, bad, first_bad)
    if tally is None:
        counts.check(path, malformed_cap)
    else:
        tally.extend(counts)


def parse_prices(path, ticker: str) -> dict[date, float]:
    """Read one Yahoo-layout CSV into the date -> close dict of ``ticker``.

    Rows whose Close is non-numeric (Yahoo writes "null"), non-positive,
    non-finite, or whose Date is unparseable are skipped with a warning,
    so every close returned is positive and finite. A second usable row
    for a Date raises FormatError with its line; a row skipped before it
    does not count.

    The file is read in one loop over the reader, which strips only the
    Date and Close fields; a row is checked for being blank only when it
    is too short or its Date does not parse, so a blank row is skipped
    without a warning.
    """
    values: dict[date, float] = {}
    with csv_reader(path, "price") as (reader, header):
        for required in ("Date", "Close"):
            if required not in header:
                raise HeaderMismatch(
                    f"missing column {required!r} in header {header}", path=path
                )
        date_col = header.index("Date")
        close_col = header.index("Close")
        last_col = max(date_col, close_col)
        for row in reader:
            if len(row) <= last_col:
                if _row_fields(row, None, path, reader.line_num) is not None:
                    logger.warning("%s:%d: short row skipped", path, reader.line_num)
                continue
            date_s = row[date_col].strip()
            try:
                d = date.fromisoformat(date_s)
            except ValueError:
                if _row_fields(row, None, path, reader.line_num) is not None:
                    logger.warning("%s:%d: bad date %r skipped", path, reader.line_num, date_s)
                continue
            close_s = row[close_col].strip()
            try:
                close = float(close_s)
            except ValueError:
                logger.warning("%s:%d: non-numeric Close %r skipped",
                               path, reader.line_num, close_s)
                continue
            if not 0 < close < math.inf:
                logger.warning("%s:%d: non-positive or non-finite Close %r skipped",
                               path, reader.line_num, close)
                continue
            if d in values:
                raise FormatError(f"repeated Date {d}", path=path, line_number=reader.line_num)
            values[d] = close
    if not values:
        raise EmptySeries(f"{path}: no usable price rows for {ticker}")
    return values


_LABEL_HEADER = ("tweet_id", "date", "aspect", "polarity")


#: Position of each label-file polarity spelling in a count cell.
_POLARITY_INDEX = {p.value: COUNT_INDEX[p] for p in PolarityLabel}

#: The first line of a label file that the bulk counter reads.
_LABEL_HEADER_LINE = (",".join(_LABEL_HEADER) + "\n").encode()
#: Label-file bytes the bulk counter reads at a time, before the rest of
#: the line they end in.
_LABEL_BLOCK_BYTES = 1 << 20
#: A line after the first of a block that starts with whitespace or a
#: comma, or is empty.
_LABEL_BLANK_START = re.compile(r"\n[\s,]")
#: The text after the first comma of a line: its ``date,aspect,polarity``.
_LABEL_TAIL = re.compile(",(.*)")


def _label_tails(fh) -> Counter[str] | None:
    """The ``date,aspect,polarity`` tail of each row of an open label
    file, counted; None where :func:`csv.reader` could read a row
    otherwise than a split at commas.

    The file is read past its header in blocks of whole lines. A block is
    counted when it is UTF-8 without a ``"`` or a CR, and no line of it
    starts with whitespace or a comma, lacks a comma, or is longer than
    :func:`csv.field_size_limit`: then each line is one row whose fields
    are its text between commas, with a tweet_id that is not blank.
    Blocks are read at most half that limit at a time, so a block is
    normally no longer than the limit and its lines need no measuring.
    The first other header or block ends the count, and the rest of the
    file is not read.
    """
    if fh.readline() != _LABEL_HEADER_LINE:
        return None
    limit = csv.field_size_limit()
    size = max(1, min(_LABEL_BLOCK_BYTES, limit // 2))
    tails: Counter[str] = Counter()
    while block := fh.read(size):
        block += fh.readline()
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if ('"' in text or "\r" in text or text[0].isspace() or text[0] == ","
                or _LABEL_BLANK_START.search(text)
                or len(text) > limit and max(map(len, text.split("\n"))) > limit):
            return None
        found = _LABEL_TAIL.findall(text)
        if len(found) != text.count("\n") + (not text.endswith("\n")):
            return None  # a line without a comma has no tail
        tails.update(found)
    return tails


def _label_key(date_s: str, aspect: str, polarity_s: str) -> tuple[tuple[str, date], int]:
    """The ``(stripped aspect, day)`` cell and the count index of a label
    row's ``date``, ``aspect`` and ``polarity`` fields.

    A bad date, an unknown polarity or an empty aspect, checked in that
    order, raises ValueError with the message of the row's FormatError.
    """
    date_s = date_s.strip()
    try:
        day = date.fromisoformat(date_s)
    except ValueError:
        raise ValueError(f"bad date {date_s!r}") from None
    polarity_s = polarity_s.strip()
    index = _POLARITY_INDEX.get(polarity_s)
    if index is None:
        raise ValueError(f"unknown polarity {polarity_s!r}")
    aspect = aspect.strip()
    if not aspect:
        raise ValueError("empty aspect")
    return (aspect, day), index


def _tail_cells(tails: Counter[str]) -> dict[tuple[str, date], list[int]] | None:
    """The count cells of counted ``date,aspect,polarity`` tails, by
    stripped aspect and day; None when a tail is not a valid row's."""
    cells: dict[tuple[str, date], list[int]] = {}
    for tail, n in tails.items():
        fields = tail.split(",")
        if len(fields) != 3:
            return None
        try:
            key, index = _label_key(*fields)
        except ValueError:
            return None
        cells.setdefault(key, [0, 0, 0])[index] += n
    return cells


def parse_labeled(path) -> dict[tuple[str, date], list[int]]:
    """Count externally produced aspect labels per (aspect, day).

    CSV header ``tweet_id,date,aspect,polarity`` with polarity in
    {positive, neutral, negative}. Returns the ``(aspect, day) ->
    [positive, negative, neutral]`` counts of the file's rows, the
    stripped aspect as key, which :func:`sentdep.scores.write_scores`
    takes: duplicate (tweet_id, aspect) rows are kept, because an aspect
    can occur several times in one tweet and counts are occurrence-based.
    A bad row (a wrong field count, an empty tweet_id or aspect, a bad
    date or an unknown polarity) raises FormatError; the first one in
    file order is reported, with its line.

    A file whose header is written exactly so and whose rows hold no
    quote, CR, blank row, blank tweet_id or overlong field is counted in
    bulk: each row's ``date,aspect,polarity`` tail is counted in C, and
    each distinct tail is then checked and parsed once (see
    :func:`_label_tails` and :func:`_label_key`). Any other file, or a
    tail that fails a check, is counted row by row from the start by
    :func:`_label_cells`, which reports the bad row. Both give the same
    counts. One ``-v`` line tells how the file was counted, its rows and
    its distinct (day, aspect, polarity) keys.
    """
    path = Path(path)
    with open_input(path, "rb") as fh:
        tails = _label_tails(fh)
    cells = None if tails is None else _tail_cells(tails)
    how = "in bulk"
    if cells is None:
        cells, how = _label_cells(path), "row by row"
    tallies = list(chain.from_iterable(cells.values()))
    logger.info("labels: %d rows counted %s, %d distinct (day, aspect, polarity) keys",
                sum(tallies), how, len(tallies) - tallies.count(0))
    return cells


def _label_cells(path) -> dict[tuple[str, date], list[int]]:
    """The count cells of a label file read row by row, by stripped
    aspect and day; the first bad row raises FormatError with its line.

    The rows are counted in one pass with no row list. Each distinct raw
    ``(date, aspect, polarity)`` triple is checked and parsed once (see
    :func:`_label_key`) and mapped to its cell and count index.
    """
    counts: dict[tuple[str, str, str], tuple[list[int], int]] = {}
    cells: dict[tuple[str, date], list[int]] = {}
    width = len(_LABEL_HEADER)
    with csv_reader(path, "label", _LABEL_HEADER) as (reader, _):
        for row in reader:
            if len(row) != width or not row[0].strip():
                if _row_fields(row, width, path, reader.line_num) is None:
                    continue
                raise FormatError("empty tweet_id", path=path,
                                  line_number=reader.line_num)
            raw = row[1], row[2], row[3]
            count = counts.get(raw)
            if count is None:
                try:
                    key, index = _label_key(*raw)
                except ValueError as exc:
                    raise FormatError(str(exc), path=path,
                                      line_number=reader.line_num) from None
                count = counts[raw] = cells.setdefault(key, [0, 0, 0]), index
            cell, index = count
            cell[index] += 1
    return cells


class DayText(dict):
    """``date -> ISO-8601 text``, each day formatted on its first lookup.

    A writer with many rows per day formats each day once.
    """

    def __missing__(self, day: date) -> str:
        text = self[day] = day.isoformat()
        return text


def write_labeled(labels: Iterable[tuple[str, date, str, PolarityLabel]], path,
                  header: bool = True, shown=None) -> None:
    """Serialize label tuples, after the header unless ``header`` is false;
    :func:`parse_labeled` counts them back. A failed write names ``shown``
    (see :func:`open_output`)."""
    day_text = DayText()
    write_csv(path, _LABEL_HEADER if header else (),
              ((tweet_id, day_text[d], aspect, pol.value)
               for tweet_id, d, aspect, pol in labels), shown)


def load_aspects(path) -> AspectLexicon:
    """Load an aspect lexicon file: one aspect per line, '#' comments ignored.

    Each aspect is lowercased and its whitespace runs collapsed to one
    space. A file without any aspect, or an aspect listed twice, raises
    FormatError naming the file (and the line of the second listing).
    """
    first_line: dict[str, int] = {}
    for lineno, line in comment_lines(path):
        aspect = " ".join(line.lower().split())
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

    Each distinct token is counted at most once per tweet: a tweet's
    token set goes to :meth:`collections.Counter.update`, whose counting
    loop runs in C. :meth:`tap` lets another consumer read the same
    stream, so a corpus is read and tokenized once for both the counts
    and the labels.
    """

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()

    def tap(self, tweets: Iterable[TweetRecord]) -> Iterator[TweetRecord]:
        """Yield each tweet unchanged after counting its tokens."""
        count = self._counts.update
        for tweet in tweets:
            count(set(tweet.tokens))
            yield tweet

    def add(self, other: KeywordCounts) -> None:
        """Add the counts of ``other``, which counted other tweets."""
        self._counts.update(other._counts)

    def frequencies(self, min_count: int = DEFAULT_MIN_KEYWORD_COUNT) -> list[KeywordFrequency]:
        """Tokens in at least ``min_count`` tweets, by count desc then keyword."""
        kept = [
            KeywordFrequency(keyword=k, tweet_count=c)
            for k, c in self._counts.items()
            if c >= min_count
        ]
        kept.sort(key=lambda kf: (-kf.tweet_count, kf.keyword))
        return kept


def keyword_frequencies(
    tweets: Iterable[TweetRecord], min_count: int = DEFAULT_MIN_KEYWORD_COUNT
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
