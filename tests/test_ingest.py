"""Parsers, tokenizer, and keyword counting."""

import csv
import io
import json
import logging
import re
from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentdep import ingest
from sentdep.blocks import line_blocks
from sentdep.errors import EmptySeries, FormatError, HeaderMismatch
from sentdep.ingest import (
    AspectLexicon,
    KeywordCounts,
    KeywordFrequency,
    LineTally,
    TweetRecord,
    keyword_frequencies,
    load_aspects,
    parse_labeled,
    parse_prices,
    parse_tweets,
    tokenize,
    write_labeled,
)
from sentdep.core import PolarityLabel

from oracles import (
    keyword_counts_bruteforce,
    label_cells,
    labels_row_by_row,
    prices_row_by_row,
    tokens_char_by_char,
)


#: One well-formed English tweet line, without its line end.
GOOD_LINE = (b'{"id": "t1", "created_at": "2022-10-03T12:00:00Z", "text": "rates up", '
             b'"lang": "en"}')


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def tweet_obj(i, text, lang="en", created="2022-10-03T14:00:00+00:00"):
    return {"id": f"t{i}", "created_at": created, "text": text, "lang": lang}


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Inflation FEARS rising") == ["inflation", "fears", "rising"]

    def test_strips_urls(self):
        assert tokenize("markets up https://example.com/x?y=1 today") == [
            "markets", "up", "today",
        ]
        assert tokenize("see www.example.com now") == ["see", "now"]

    def test_strips_edge_punctuation_keeps_inner(self):
        assert tokenize("#inflation $NEE (really!) can't stock-market") == [
            "inflation", "nee", "really", "can't", "stock-market",
        ]

    def test_drops_symbol_only_tokens(self):
        assert tokenize("up!! ... $$ 5%") == ["up", "5"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("https://example.com") == []


#: Pieces of tweet text around the tokenizer's shortcuts: URL prefixes in
#: mixed case, the long s that the pattern's ``s`` matches, characters
#: that lower to ASCII (the Kelvin sign) or to two characters (``İ``),
#: fullwidth letters, non-ASCII digits and numerals, combining marks,
#: punctuation, and every character ``str.split`` splits on.
TOKENIZER_PIECES = [
    "HtTpS://", "hTTP://", "http:/", "https", "WWW.", "www", "wWw.", ".",
    "ſ", "httpſ://", "\u212a", "İ", "ｈｔｔｐ", "ｗｗｗ.", "½", "Ⅷ", "٣", "\u0301", "\u0308",
    "_", "#", "$", "'", "-", "!", "?", "/", ":", "a", "Z", "h", "t", "p", "s", "w", "7",
    "stock", "can't", "x.y/z",
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u202f", "\u3000",
]


@given(st.lists(st.sampled_from(TOKENIZER_PIECES) | st.characters(), max_size=40)
       .map("".join))
@example("see HTTPS://Example.com/a and www.x.org, #Tax $NEE!")
@example("httpſ://x ſtock \u212aelvin İstanbul ｈｔｔｐ://ｘ ½ Ⅷ ٣x")
@example("a\x1cb\x85c\xa0d\u2028e\u3000f _a_ -b- 'c'")
def test_tokenize_equals_the_char_by_char_oracle(text):
    assert tokenize(text) == tokens_char_by_char(text)


#: Words of tweets drawn for the keyword counts, each often repeated.
KEYWORD_WORDS = ["tax", "Tax", "#tax", "rates", "$NEE", "nee", "it's", "--", "http://x.co/tax"]


@given(st.lists(st.lists(st.sampled_from(KEYWORD_WORDS), max_size=12).map(" ".join),
                max_size=20))
def test_keyword_counts_equal_the_brute_force(texts):
    ts = datetime(2022, 10, 3, tzinfo=timezone.utc)
    counts = KeywordCounts()
    tweets = [TweetRecord(id=f"t{i}", timestamp=ts, text=t, lang="en")
              for i, t in enumerate(texts)]
    assert list(counts.tap(tweets)) == tweets
    freqs = counts.frequencies(min_count=1)
    assert {f.keyword: f.tweet_count for f in freqs} == keyword_counts_bruteforce(texts)
    assert freqs == sorted(freqs, key=lambda f: (-f.tweet_count, f.keyword))


class TestParseTweets:
    def test_reads_english_in_order(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [
            tweet_obj(1, "inflation fears"),
            tweet_obj(2, "los mercados", lang="es"),
            tweet_obj(3, "rates up"),
        ])
        records = list(parse_tweets(p))
        assert [r.id for r in records] == ["t1", "t3"]
        assert records[0].text == "inflation fears"
        assert records[0].lang == "en"

    def test_zulu_timestamp_and_utc_date(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [tweet_obj(1, "x", created="2022-10-03T23:59:00Z")])
        (rec,) = parse_tweets(p)
        assert rec.timestamp == datetime(2022, 10, 3, 23, 59, tzinfo=timezone.utc)
        assert rec.utc_date == date(2022, 10, 3)

    def test_offset_timestamp_converts_to_utc_day(self, tmp_path):
        p = tmp_path / "t.jsonl"
        # 23:30 at UTC-3 is already October 4th in UTC
        write_jsonl(p, [tweet_obj(1, "x", created="2022-10-03T23:30:00-03:00")])
        (rec,) = parse_tweets(p)
        assert rec.utc_date == date(2022, 10, 4)

    def test_malformed_lines_skipped_below_cap(self, tmp_path, caplog):
        p = tmp_path / "t.jsonl"
        lines = [json.dumps(tweet_obj(i, "ok")) for i in range(20)]
        lines.insert(5, "{not json")
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            records = list(parse_tweets(p))
        assert len(records) == 20
        assert any("malformed" in m for m in caplog.messages)

    def test_malformed_over_cap_rejects_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("{broken\n" * 3 + json.dumps(tweet_obj(1, "ok")) + "\n",
                     encoding="utf-8")
        with pytest.raises(FormatError):
            list(parse_tweets(p))
        # a generous cap accepts the same file
        assert len(list(parse_tweets(p, malformed_cap=0.9))) == 1

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("\n" + json.dumps(tweet_obj(1, "ok")) + "\n\n", encoding="utf-8")
        assert len(list(parse_tweets(p))) == 1

    def test_missing_fields_are_malformed(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "text": "no lang", "created_at": "2022-10-03T00:00:00Z"}])
        with pytest.raises(FormatError):
            list(parse_tweets(p))

    def test_undecodable_line_is_malformed_below_cap(self, tmp_path, caplog):
        p = tmp_path / "t.jsonl"
        lines = [json.dumps(tweet_obj(i, "ok")).encode() for i in range(20)]
        lines.insert(5, b"\xff\xfe")
        p.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level("WARNING"):
            records = list(parse_tweets(p))
        assert len(records) == 20
        assert any("malformed" in m and "line 6" in m for m in caplog.messages)

    def test_undecodable_lines_over_cap_reject_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(b"\xff\xfe\n" * 3 + json.dumps(tweet_obj(1, "ok")).encode() + b"\n")
        with pytest.raises(FormatError, match="3 of 4 lines malformed"):
            list(parse_tweets(p))

    def test_streams_records_and_checks_the_cap_at_the_end(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(tweet_obj(1, "ok")) + "\n" + "{broken\n" * 3,
                     encoding="utf-8")
        records = parse_tweets(p)
        assert next(records).id == "t1"
        with pytest.raises(FormatError, match="3 of 4 lines malformed"):
            next(records)

    def malformed_lines(self, tmp_path, caplog, bad_lines: list[str]) -> list[str]:
        """Ids parsed from 40 good lines with ``bad_lines`` after the fifth;
        the warning must count the bad lines and name the first."""
        p = tmp_path / "t.jsonl"
        lines = [json.dumps(tweet_obj(i, "ok")) for i in range(40)]
        lines[5:5] = bad_lines
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            ids = [r.id for r in parse_tweets(p)]
        assert f"skipped {len(bad_lines)} malformed line(s), first at line 6" in caplog.text
        return ids

    @pytest.mark.parametrize("created", [
        "0001-01-01T00:30:00+01:00",
        "9999-12-31T23:30:00-01:00",
    ])
    @pytest.mark.parametrize("lang", ["en", "fr"])
    def test_timestamp_without_a_utc_day_is_malformed(self, tmp_path, caplog, created, lang):
        bad = json.dumps(tweet_obj(99, "inflation", lang=lang, created=created))
        assert len(self.malformed_lines(tmp_path, caplog, [bad])) == 40

    def test_extreme_timestamps_with_a_utc_day_are_read(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [tweet_obj(1, "x", created="0001-01-01T00:30:00-01:00"),
                        tweet_obj(2, "x", created="9999-12-31T23:30:00+01:00")])
        assert [r.utc_date for r in parse_tweets(p)] == [date(1, 1, 1), date(9999, 12, 31)]

    def test_json_too_deep_or_too_long_to_decode_is_malformed(self, tmp_path, caplog):
        bad = ["[" * 200_000, '{"id": [' * 100_000, '{"id": %s}' % ("1" * 5000)]
        assert len(self.malformed_lines(tmp_path, caplog, bad)) == 40

    def test_lone_surrogate_in_id_or_text_is_malformed(self, tmp_path, caplog):
        bad = [json.dumps(tweet_obj(1, "ok")).replace('"t1"', '"t\\ud800x"'),
               json.dumps(tweet_obj(2, "inflation a\udc00b numbers")),
               json.dumps(tweet_obj(3, "\ude00 first")),
               json.dumps(tweet_obj(4, "last \ud83d"))]
        assert "\\ud800" in bad[0] and "\\udc00" in bad[1]
        assert len(self.malformed_lines(tmp_path, caplog, bad)) == 40

    def test_escaped_surrogate_pair_and_other_escapes_are_read(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [tweet_obj(1, "rally \U0001f600 \\ud800 caf\u00e9"),
                        tweet_obj(2, "x", lang="\ud800")])
        (rec,) = parse_tweets(p)
        assert rec.text == "rally \U0001f600 \\ud800 caf\u00e9"

    def test_json_whitespace_around_the_object(self, tmp_path, caplog):
        good = json.dumps(tweet_obj(1, "ok"))
        p = tmp_path / "t.jsonl"
        p.write_text(f" \t{good}\r\n{good} \n\ufeff{good}\n{good}\x0b\n{good} x\n",
                     encoding="utf-8")
        assert len(list(parse_tweets(p, malformed_cap=0.9))) == 2
        assert "skipped 3 malformed line(s), first at line 3" in caplog.text

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(b"".join(
            json.dumps(tweet_obj(i, "ok")).encode() + b"\r\n" for i in range(3)
        ) + b"\r\n")
        assert [r.id for r in parse_tweets(p)] == ["t0", "t1", "t2"]


#: Lines of a tweet file to be cut into blocks: English and French
#: records, blank and whitespace-only lines, a line that is not JSON, bytes
#: that are not UTF-8, a ``\\u`` escape of a lone surrogate, and a line
#: longer than most blocks.
BLOCK_LINES = [
    GOOD_LINE,
    GOOD_LINE.replace(b'"en"', b'"fr"'),
    GOOD_LINE.replace(b'"t1"', b'"t2"'),
    b"", b"   ", b"\t", b"\r",
    b"{broken",
    b"\xff\xfe",
    GOOD_LINE.replace(b'"t1"', b'"t\\ud800"'),
    GOOD_LINE.replace(b"rates up", b"rates up " * 40),
]


@st.composite
def tweet_file(draw) -> bytes:
    """Lines of :data:`BLOCK_LINES` and random bytes, each ended by LF or
    CRLF, the last one maybe by nothing."""
    lines = draw(st.lists(st.sampled_from(BLOCK_LINES) | st.binary(max_size=30), max_size=30))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    data = b"".join(line + end for line, end in zip(lines, ends))
    return data[:-1] if data and draw(st.booleans()) else data


def outcome(read):
    """The message of the FormatError ``read()`` raises, or None."""
    try:
        read()
    except FormatError as exc:
        return str(exc)
    return None


def test_blocks_read_as_the_whole_file(tmp_path_factory):
    """However a tweet file is cut, its blocks hold its lines in order, each
    block's first line number is a prefix sum of the blocks' line counts,
    and the blocks read apart give the whole file's records and counts."""
    path = tmp_path_factory.mktemp("blocks") / "tweets.jsonl"
    long_line = GOOD_LINE.replace(b"rates up", b"rates up " * 40)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tweet_file(), st.integers(1, 400), st.integers(1, 40))
    @example(b"", 1, 1)
    @example(GOOD_LINE + b"\n", 1, 40)
    @example(b"\n".join([GOOD_LINE, long_line, GOOD_LINE]), 8, 40)
    @example(GOOD_LINE + b"\n\xff\n{broken\n" + GOOD_LINE + b"\n" * 30, 1, 3)
    def check(data, block_bytes, most):
        path.write_bytes(data)
        spans = line_blocks(path, block_bytes, most)
        assert 1 <= len(spans) <= most
        assert spans[0][0] == 0 and spans[-1][1] == len(data)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start and data[end - 1:end] == b"\n"
        assert all(start < end for start, end in spans) or spans == [(0, 0)]
        if len(data) <= block_bytes:
            assert spans == [(0, len(data))]

        lines = [line for start, end in spans
                 for line in io.BytesIO(data[start:end]).readlines()]
        assert lines == io.BytesIO(data).readlines()

        whole = LineTally()
        records = list(parse_tweets(path, tally=whole))
        merged, block_records = LineTally(), []
        for start, end in spans:
            assert merged.lines + 1 == data.count(b"\n", 0, start) + 1
            tally = LineTally()
            block_records += parse_tweets(path, span=(start, end), tally=tally)
            assert tally.lines == data.count(b"\n", start, end) + (
                end > start and data[end - 1:end] != b"\n")
            merged.extend(tally)
        assert block_records == records
        counts = lambda t: (t.lines, t.total, t.bad, t.first_bad)  # noqa: E731
        assert counts(merged) == counts(whole)
        assert (outcome(lambda: merged.check(path, 0.1))
                == outcome(lambda: list(parse_tweets(path))))

    check()


class TestParsePrices:
    HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"

    def test_reads_close_by_name(self, tmp_path):
        p = tmp_path / "nee.csv"
        p.write_text(
            self.HEADER
            + "2022-10-03,1,2,0.5,84.4,84.0,100\n"
            + "2022-10-04,1,2,0.5,85.1,85.0,100\n",
            encoding="utf-8",
        )
        assert parse_prices(p, "NEE") == {date(2022, 10, 3): 84.4, date(2022, 10, 4): 85.1}

    def test_null_close_skipped(self, tmp_path, caplog):
        p = tmp_path / "x.csv"
        p.write_text(
            self.HEADER
            + "2022-10-03,null,null,null,null,null,null\n"
            + "2022-10-04,1,2,0.5,85.1,85.0,100\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            closes = parse_prices(p, "XOM")
        assert list(closes) == [date(2022, 10, 4)]

    def test_bad_date_and_nonpositive_skipped(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text(
            self.HEADER
            + "not-a-date,1,2,0.5,85.1,85.0,100\n"
            + "2022-10-04,1,2,0.5,-3.0,85.0,100\n"
            + "2022-10-05,1,2,0.5,85.2,85.0,100\n",
            encoding="utf-8",
        )
        assert list(parse_prices(p, "BP")) == [date(2022, 10, 5)]

    def test_non_finite_close_skipped(self, tmp_path, caplog):
        p = tmp_path / "x.csv"
        p.write_text(
            self.HEADER
            + "2022-10-03,1,2,0.5,inf,85.0,100\n"
            + "2022-10-04,1,2,0.5,1e400,85.0,100\n"
            + "2022-10-05,1,2,0.5,nan,85.0,100\n"
            + "2022-10-06,1,2,0.5,85.2,85.0,100\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            closes = parse_prices(p, "BP")
        assert list(closes) == [date(2022, 10, 6)]
        assert sum("non-finite Close" in m for m in caplog.messages) == 3

    def test_missing_close_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("Date,Open\n2022-10-03,1\n", encoding="utf-8")
        with pytest.raises(HeaderMismatch):
            parse_prices(p, "BP")

    def test_empty_after_skips(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text(self.HEADER + "2022-10-03,null,null,null,null,null,null\n",
                     encoding="utf-8")
        with pytest.raises(EmptySeries):
            parse_prices(p, "BP")

    def test_reordered_columns_ok(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("Close,Date\n12.5,2022-10-03\n", encoding="utf-8")
        assert parse_prices(p, "BP")[date(2022, 10, 3)] == 12.5

    def test_repeated_date_is_a_format_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("Date,Close\n2022-10-03,10.0\n2022-10-03,99.0\n2022-10-04,11.0\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match=r"x.csv:3: repeated Date 2022-10-03$"):
            parse_prices(p, "BP")
        # the same day in its other ISO 8601 spelling
        p.write_text("Date,Close\n2022-10-03,10.0\n20221003,99.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"x.csv:3: repeated Date 2022-10-03$"):
            parse_prices(p, "BP")

    def test_skipped_row_does_not_make_a_repeat(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("Date,Close\n2022-10-03,null\n2022-10-03,10.0\n"
                     "2022-10-04,11.0\n2022-10-04,0\n", encoding="utf-8")
        assert parse_prices(p, "BP") == {date(2022, 10, 3): 10.0, date(2022, 10, 4): 11.0}


    def test_closes_and_warnings_equal_the_row_by_row_reader(self, tmp_path_factory, caplog):
        p = tmp_path_factory.mktemp("prices") / "x.csv"

        def closes_and_warnings(read):
            caplog.clear()
            try:
                result = read(p, "BP")
            except (FormatError, EmptySeries) as exc:
                result = type(exc), str(exc)
            return result, caplog.messages

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(price_file_text())
        @example('Close , Date\n" 12.5\n",2022-10-03\n \t, \n7\n'
                 '1,"2022-10-04\n",x\n0,20221005\n')
        def check(text):
            p.write_text(text, encoding="utf-8", newline="")
            assert closes_and_warnings(parse_prices) == closes_and_warnings(prices_row_by_row)

        with caplog.at_level(logging.WARNING):
            check()


#: Values drawn for each column of a generated price file: valid, skipped
#: and bad ones, quoted fields that span lines, and blank ones.
PRICE_VALUES = {
    "Date": st.builds("2022-10-{:02d}".format, st.integers(1, 28))
    | st.builds("202210{:02d}".format, st.integers(1, 28))
    | st.sampled_from(["not-a-date", "2022-13-01", "", " ", '"\n2022-11-01"',
                       '"2022-11-02\n"', '"2022-\n11-03"']),
    "Close": st.sampled_from(["84.4", "85.1", "1e-320", "1e300", "null", "-3.0", "0",
                              "inf", "nan", "1e400", "", "\t", '"\n85.2"', '"8\n5"']),
    "extra": st.sampled_from(["1", "", " ", "null", '"a\nb"']),
}


@st.composite
def price_file_text(draw):
    """A price file with Date and Close in either order among extra
    columns (or one of them missing), stray spaces, blank rows,
    whitespace-only fields, short and long rows, and quoted fields that
    span lines."""
    def padded(field):
        if field.startswith('"'):  # a quoted field stays unpadded, so its quotes still quote
            return field
        before = draw(st.sampled_from(["", " ", "  "]))
        return before + field + draw(st.sampled_from(["", " ", "\t"]))

    columns = draw(st.permutations(["Date", "Close", "Open", "Volume"]))
    columns = columns[:draw(st.integers(1, 4))] if draw(st.integers(0, 9)) == 0 else columns
    lines = [",".join(padded(c) for c in columns)]
    for _ in range(draw(st.integers(0, 15))):
        shape = draw(st.sampled_from(["full"] * 4 + ["short", "long", "blank"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "   ", " , , ", ",,,", "\t,"])))
            continue
        fields = [padded(draw(PRICE_VALUES.get(c, PRICE_VALUES["extra"]))) for c in columns]
        if shape == "short":
            fields = fields[:draw(st.integers(0, len(fields) - 1))]
        elif shape == "long":
            fields += [padded(draw(PRICE_VALUES["extra"]))
                       for _ in range(draw(st.integers(1, 2)))]
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


#: Days of the generated label files, each in its two ISO 8601 spellings.
LABEL_DAYS = [("2021-01-04", "20210104"), ("2021-01-05", "20210105"),
              ("2022-12-30", "20221230")]

LABEL_HEADER = "tweet_id,date,aspect,polarity"

#: One bad label row of each kind the label reader rejects, and its message.
BAD_LABEL_ROWS = {
    "too few fields": ("t1,2021-01-04,tax", "expected 4 fields, got 3"),
    "too many fields": ("t1,2021-01-04,tax,positive,x", "expected 4 fields, got 5"),
    "empty tweet_id": ("  ,2021-01-04,tax,positive", "empty tweet_id"),
    "bad date": ("t1, 2021-13-04,tax,positive", "bad date '2021-13-04'"),
    "unknown polarity": ("t1,2021-01-04,tax, mixed", "unknown polarity 'mixed'"),
    "empty aspect": ("t1,20210104, ,negative", "empty aspect"),
}


@st.composite
def label_file_text(draw):
    """A label file with stray spaces, blank rows, repeated rows, a quoted
    tweet_id that holds a newline, each day in two spellings, and at most
    one bad row; or, about half the time, a plain file as a CSV writer
    writes one, which the bulk counter takes unless its bad row stops it."""
    plain = draw(st.booleans())

    def padded(field):
        if plain:
            return field
        before = draw(st.sampled_from(["", " ", "  "]))
        return before + field + draw(st.sampled_from(["", " ", "\t"]))

    row = st.tuples(
        st.sampled_from(["t1", "t2", "42"] + ([] if plain else ['"t\n3"'])),
        st.sampled_from(LABEL_DAYS).flatmap(st.sampled_from),
        st.sampled_from(["tax", "stock market", "inflation"]),
        st.sampled_from([p.value for p in PolarityLabel]),
    )
    pool = draw(st.lists(row, min_size=1, max_size=6))
    blank = st.sampled_from(["", "   ", " , , , ", ",,,", "\t,"])
    lines = []
    for item in draw(st.lists(st.sampled_from(pool) if plain else st.sampled_from(pool) | blank,
                              max_size=25)):
        if isinstance(item, str):
            lines.append(item)
        else:
            # A quoted field stays unpadded, so its quotes still quote.
            lines.append(",".join(f if f.startswith('"') else padded(f) for f in item))
    bad = draw(st.none() | st.sampled_from(sorted(BAD_LABEL_ROWS)))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), BAD_LABEL_ROWS[bad][0])
    if plain:
        return "\n".join([LABEL_HEADER, *lines]) + draw(st.sampled_from(["\n", ""]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(["tweet_id, date ,aspect,polarity", *lines]) + end


#: Two plain label rows, which the bulk counter takes.
PLAIN_LABELS = f"{LABEL_HEADER}\nt1,2021-01-04,tax,positive\nt2,20210105,stock market,negative\n"


def plain_label_rows(n: int) -> list[str]:
    """``n`` plain label rows over two days, two aspects and every polarity."""
    return [f"u{i:06d},2021-01-0{4 + i % 2},{'tax' if i % 3 else 'inflation'},"
            f"{('positive', 'negative', 'neutral')[i % 3]}" for i in range(n)]


#: Plain label rows over more than two blocks of the bulk counter.
MANY_PLAIN_LABELS = "\n".join([LABEL_HEADER, *plain_label_rows(6000)]) + "\n"

#: A row that makes the bulk counter hand the file to the row-by-row
#: reader, for each reason it has; some are bad rows, some are not.
ROW_BY_ROW_ROWS = {
    "quote": 't3,2021-01-04,"tax",neutral',
    "CR": "t3,2021-01-04,tax\r,neutral",
    "leading space": " t3,2021-01-04,tax,neutral",
    "leading comma": ",2021-01-04,tax,neutral",
    "no comma": "t3",
    "empty line": "",
    "too few fields": "t3,2021-01-04,tax",
    "too many fields": "t3,2021-01-04,tax,positive,x",
    "bad date": "t3,2021-13-04,tax,neutral",
    "unknown polarity": "t3,2021-01-04,tax,mixed",
    "empty aspect": "t3,2021-01-04, ,neutral",
    # several faults in one row: the first rule in date, polarity, aspect
    # order is reported
    "bad date, polarity and aspect": "t3,2021-13-04, ,mixed",
    "bad polarity and aspect": "t3,2021-01-04, ,mixed",
}


def row_by_row_reads(monkeypatch) -> list:
    """The label files that :func:`parse_labeled` reads row by row from
    now on, one entry per read; the others it counts in bulk."""
    reads = []
    read = ingest._label_cells

    def spy(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(ingest, "_label_cells", spy)
    return reads


def counts_or_error(read, path):
    """``read(path)``, or the class, message and line of its FormatError."""
    try:
        return read(path)
    except FormatError as exc:
        return type(exc), str(exc), exc.line_number


class TestParseLabeled:
    def test_round_trip(self, tmp_path):
        labels = [
            ("t1", date(2022, 10, 3), "inflation", PolarityLabel.POSITIVE),
            ("t1", date(2022, 10, 3), "inflation", PolarityLabel.POSITIVE),  # duplicate kept
            ("t2", date(2022, 10, 4), "tax", PolarityLabel.NEUTRAL),
        ]
        p = tmp_path / "labels.csv"
        write_labeled(labels, p)
        assert parse_labeled(p) == label_cells(labels)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("tweet,day,aspect,polarity\n", encoding="utf-8")
        with pytest.raises(HeaderMismatch):
            parse_labeled(p)

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(
            "tweet_id,date,aspect,polarity\n"
            "t1,2022-10-03,inflation,positive\n"
            "t2,2022-10-04,tax,sideways\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError) as excinfo:
            parse_labeled(p)
        assert excinfo.value.line_number == 3
        assert "sideways" in str(excinfo.value)

    def test_bad_date(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("tweet_id,date,aspect,polarity\nt1,yesterday,tax,positive\n",
                     encoding="utf-8")
        with pytest.raises(FormatError) as excinfo:
            parse_labeled(p)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("kind", sorted(BAD_LABEL_ROWS))
    def test_first_bad_row_is_reported(self, tmp_path, kind):
        row, message = BAD_LABEL_ROWS[kind]
        p = tmp_path / "labels.csv"
        p.write_text("tweet_id,date,aspect,polarity\n"
                     "t1,2021-01-04,tax,positive\n"
                     f"{row}\n"
                     "t2,2021-01-04,,sideways\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"labels.csv:3: {message}")):
            parse_labeled(p)

    def test_counts_equal_the_row_by_row_reader(self, tmp_path_factory, monkeypatch):
        p = tmp_path_factory.mktemp("labels") / "labels.csv"
        reads = row_by_row_reads(monkeypatch)
        examples = 0

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(label_file_text())
        @example('tweet_id,date,aspect,polarity\n"t\n1", 2021-01-04,tax ,positive\n'
                 " , , , \nt2,20210104, tax,  positive\nt3,2021-01-04,,neutral\n")
        @example(PLAIN_LABELS.replace(LABEL_HEADER, "tweet_id, date ,aspect,polarity"))
        @example(PLAIN_LABELS.replace("\n", "\r\n"))
        @example(PLAIN_LABELS + "t3, 2021-01-04 , tax ,positive \nt4,2021-01-04,tax,neutral")
        @example(PLAIN_LABELS + "\n".join(ROW_BY_ROW_ROWS.values()) + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["quote"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["CR"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["leading space"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["leading comma"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["no comma"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["empty line"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["too few fields"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["too many fields"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["bad date"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["unknown polarity"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["empty aspect"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["bad date, polarity and aspect"] + "\n")
        @example(PLAIN_LABELS + ROW_BY_ROW_ROWS["bad polarity and aspect"] + "\n")
        @example(PLAIN_LABELS + "\u3000t3,2021-01-04,tax,neutral\n\xa0,2021-01-04,tax,neutral\n")
        @example(LABEL_HEADER + "\n")
        @example(LABEL_HEADER)
        @example("")
        def check(text):
            nonlocal examples
            examples += 1
            p.write_text(text, encoding="utf-8", newline="")
            assert counts_or_error(parse_labeled, p) == counts_or_error(labels_row_by_row, p)

        check()
        # Both the bulk counter and the row-by-row reader ran, on many files each.
        assert 40 <= len(reads) <= examples - 40

    @pytest.mark.parametrize("defect, error", [
        (b"t9,2021-01-04,tax,mixed", "unknown polarity 'mixed'"),
        (b"t9,2021-01-04,tax", "expected 4 fields, got 3"),
        (b"t\xff9,2021-01-04,tax,positive", "not valid UTF-8 text"),
        (b" , , , ", None),
        (b"", None),
        (b't9,2021-01-04,"tax",positive', None),
    ])
    def test_a_row_after_the_first_block_keeps_its_file_wide_line(
            self, tmp_path, monkeypatch, defect, error):
        reads = row_by_row_reads(monkeypatch)
        rows = [row.encode() for row in plain_label_rows(6000)]
        rows.insert(4000, defect)  # past the first block of about 64 KiB
        p = tmp_path / "labels.csv"
        p.write_bytes(b"\n".join([LABEL_HEADER.encode(), *rows]) + b"\n")
        if error is None:
            assert parse_labeled(p) == labels_row_by_row(p)
        else:
            with pytest.raises(FormatError, match=re.escape(f"labels.csv:4002: {error}")):
                parse_labeled(p)
            assert counts_or_error(parse_labeled, p) == counts_or_error(labels_row_by_row, p)
        assert set(reads) == {p}

    @pytest.mark.parametrize("limit", [None, 40])
    def test_a_field_over_the_csv_field_size_limit(self, tmp_path, monkeypatch, limit):
        # A field of the limit's length is read; one char more is a CSV
        # error on its line, on both paths and with the limit lowered.
        reads = row_by_row_reads(monkeypatch)
        old = csv.field_size_limit()
        if limit is not None:
            csv.field_size_limit(limit)
        try:
            size = csv.field_size_limit()
            p = tmp_path / "labels.csv"
            for width, error in [(size, None), (size + 1, f"field larger than field limit ({size})")]:
                p.write_text(f"{PLAIN_LABELS}{'x' * width},2021-01-04,tax,neutral\n"
                             "t4,2021-01-04,tax,neutral\n", encoding="utf-8")
                result = counts_or_error(parse_labeled, p)
                assert result == counts_or_error(labels_row_by_row, p)
                if error is None:
                    assert sum(map(sum, result.values())) == 4
                else:
                    assert result == (FormatError, f"{p}:4: {error}", 4)
            assert len(reads) == 2
            # Rows shorter than the lowered limit are still counted in bulk.
            p.write_text(PLAIN_LABELS, encoding="utf-8")
            assert parse_labeled(p) == labels_row_by_row(p)
            assert len(reads) == 2
        finally:
            csv.field_size_limit(old)

    @pytest.mark.parametrize("content, bulk", [
        (PLAIN_LABELS.encode(), True),
        (MANY_PLAIN_LABELS.encode()[:-1], True),
        (MANY_PLAIN_LABELS.encode(), True),
        (MANY_PLAIN_LABELS.encode() + b't9,2021-01-04,"tax",positive\n', False),
        (PLAIN_LABELS.replace("\n", "\r\n").encode(), False),
        (PLAIN_LABELS.replace(LABEL_HEADER, "tweet_id, date ,aspect,polarity").encode(), False),
        (PLAIN_LABELS.encode() + b"t3,2021-01-04, tax ,neutral\nt4,20210104,tax, neutral\n",
         True),
        (PLAIN_LABELS.encode() + b"\n\n", False),
    ], ids=["plain", "no final line end", "many blocks", "quote after the first block",
            "CRLF", "spaced header", "padded tail fields", "blank rows"])
    def test_counts_by_the_read_it_allows(self, tmp_path, monkeypatch, content, bulk):
        reads = row_by_row_reads(monkeypatch)
        p = tmp_path / "labels.csv"
        p.write_bytes(content)
        assert parse_labeled(p) == labels_row_by_row(p)
        assert reads == ([] if bulk else [p])

    def test_verbose_line_tells_the_rows_keys_and_path_taken(self, tmp_path, caplog):
        p = tmp_path / "labels.csv"
        p.write_text(PLAIN_LABELS + "t3,2021-01-04,tax,positive\nt3,2021-01-04,tax,neutral\n",
                     encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="sentdep.ingest"):
            parse_labeled(p)
            p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
            parse_labeled(p)
        assert caplog.messages == [
            f"labels: 4 rows counted {how}, 3 distinct (day, aspect, polarity) keys"
            for how in ("in bulk", "row by row")]


class TestAspectLexicon:
    def test_load_ignores_comments(self, tmp_path):
        p = tmp_path / "aspects.txt"
        p.write_text("# a comment\ninflation\n\nstock market\n", encoding="utf-8")
        lex = load_aspects(p)
        assert lex.aspects == ("inflation", "stock market")
        assert lex.by_first_token == {
            "inflation": (("inflation", ("inflation",)),),
            "stock": (("stock market", ("stock", "market")),),
        }

    def test_duplicates_rejected(self, tmp_path):
        # entries are normalised before they are compared
        p = tmp_path / "aspects.txt"
        p.write_text("stock market\ntax\n  Stock   MARKET \n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"aspects.txt:3: duplicate aspect "
                                              r"'stock market' \(first listed on line 1\)"):
            load_aspects(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "aspects.txt"
        p.write_text("# nothing yet\n\n", encoding="utf-8")
        with pytest.raises(FormatError, match="aspects.txt: aspect lexicon lists no aspect"):
            load_aspects(p)

    def test_membership(self):
        lex = AspectLexicon(["tax", "rate"])
        assert "tax" in lex.aspects
        assert "inflation" not in lex.aspects
        assert list(lex.aspects) == ["tax", "rate"]


class TestKeywordFrequencies:
    def tweets(self, texts):
        from sentdep.ingest import TweetRecord
        ts = datetime(2022, 10, 3, tzinfo=timezone.utc)
        return [TweetRecord(id=f"t{i}", timestamp=ts, text=t, lang="en")
                for i, t in enumerate(texts)]

    def test_counts_each_tweet_once(self):
        freqs = keyword_frequencies(
            self.tweets(["tax tax tax", "tax cut", "rates"]), min_count=1
        )
        by_word = {f.keyword: f.tweet_count for f in freqs}
        assert by_word["tax"] == 2  # not 4
        assert by_word["cut"] == 1

    def test_threshold_filters(self):
        texts = ["common word"] * 5 + ["rare"]
        freqs = keyword_frequencies(self.tweets(texts), min_count=5)
        assert {f.keyword for f in freqs} == {"common", "word"}

    def test_sorted_by_count_then_keyword(self):
        texts = ["b a", "b a", "c a"]
        freqs = keyword_frequencies(self.tweets(texts), min_count=1)
        assert freqs == [
            KeywordFrequency("a", 3),
            KeywordFrequency("b", 2),
            KeywordFrequency("c", 1),
        ]

    def test_matches_bruteforce_oracle(self):
        texts = [
            "inflation fears grip the market",
            "the market rallies on rate optimism",
            "tax tax tax #tax",
            "https://x.co/a market watch",
        ]
        freqs = keyword_frequencies(self.tweets(texts), min_count=1)
        assert {f.keyword: f.tweet_count for f in freqs} == keyword_counts_bruteforce(texts)


def test_an_input_error_while_rows_stream_into_a_file_stays_itself(tmp_path):
    """Only the output file's own open, writes and close become OutputError."""
    def rows():
        yield ("a",)
        raise OSError(5, "Input/output error")

    with pytest.raises(OSError, match="Input/output error"):
        ingest.write_csv(tmp_path / "out.csv", ("name",), rows())
