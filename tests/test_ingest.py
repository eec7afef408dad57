"""Parsers, tokenizer, and keyword counting."""

import json
from datetime import date, datetime, timezone

import pytest

from sentdep.errors import EmptySeries, FormatError, HeaderMismatch
from sentdep.ingest import (
    AspectLexicon,
    KeywordFrequency,
    keyword_frequencies,
    load_aspects,
    parse_labeled,
    parse_prices,
    parse_tweets,
    tokenize,
    write_labeled,
)
from sentdep.core import PolarityLabel

from oracles import keyword_counts_bruteforce


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


class TestParseTweets:
    def test_reads_english_in_order(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [
            tweet_obj(1, "inflation fears"),
            tweet_obj(2, "los mercados", lang="es"),
            tweet_obj(3, "rates up"),
        ])
        records = parse_tweets(p)
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
            records = parse_tweets(p)
        assert len(records) == 20
        assert any("malformed" in m for m in caplog.messages)

    def test_malformed_over_cap_rejects_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("{broken\n" * 3 + json.dumps(tweet_obj(1, "ok")) + "\n",
                     encoding="utf-8")
        with pytest.raises(FormatError):
            parse_tweets(p)
        # a generous cap accepts the same file
        assert len(parse_tweets(p, malformed_cap=0.9)) == 1

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("\n" + json.dumps(tweet_obj(1, "ok")) + "\n\n", encoding="utf-8")
        assert len(parse_tweets(p)) == 1

    def test_missing_fields_are_malformed(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "text": "no lang", "created_at": "2022-10-03T00:00:00Z"}])
        with pytest.raises(FormatError):
            parse_tweets(p)

    def test_undecodable_line_is_malformed_below_cap(self, tmp_path, caplog):
        p = tmp_path / "t.jsonl"
        lines = [json.dumps(tweet_obj(i, "ok")).encode() for i in range(20)]
        lines.insert(5, b"\xff\xfe")
        p.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level("WARNING"):
            records = parse_tweets(p)
        assert len(records) == 20
        assert any("malformed" in m and "line 6" in m for m in caplog.messages)

    def test_undecodable_lines_over_cap_reject_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(b"\xff\xfe\n" * 3 + json.dumps(tweet_obj(1, "ok")).encode() + b"\n")
        with pytest.raises(FormatError, match="3 of 4 lines malformed"):
            parse_tweets(p)

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(b"".join(
            json.dumps(tweet_obj(i, "ok")).encode() + b"\r\n" for i in range(3)
        ) + b"\r\n")
        assert [r.id for r in parse_tweets(p)] == ["t0", "t1", "t2"]


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
        series = parse_prices(p, "NEE")
        assert series.ticker == "NEE"
        assert series.values == {date(2022, 10, 3): 84.4, date(2022, 10, 4): 85.1}

    def test_null_close_skipped(self, tmp_path, caplog):
        p = tmp_path / "x.csv"
        p.write_text(
            self.HEADER
            + "2022-10-03,null,null,null,null,null,null\n"
            + "2022-10-04,1,2,0.5,85.1,85.0,100\n",
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            series = parse_prices(p, "XOM")
        assert list(series.values) == [date(2022, 10, 4)]

    def test_bad_date_and_nonpositive_skipped(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text(
            self.HEADER
            + "not-a-date,1,2,0.5,85.1,85.0,100\n"
            + "2022-10-04,1,2,0.5,-3.0,85.0,100\n"
            + "2022-10-05,1,2,0.5,85.2,85.0,100\n",
            encoding="utf-8",
        )
        assert list(parse_prices(p, "BP").values) == [date(2022, 10, 5)]

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
            series = parse_prices(p, "BP")
        assert list(series.values) == [date(2022, 10, 6)]
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
        assert parse_prices(p, "BP").values[date(2022, 10, 3)] == 12.5


class TestParseLabeled:
    def test_round_trip(self, tmp_path):
        labels = [
            ("t1", date(2022, 10, 3), "inflation", PolarityLabel.POSITIVE),
            ("t1", date(2022, 10, 3), "inflation", PolarityLabel.POSITIVE),  # duplicate kept
            ("t2", date(2022, 10, 4), "tax", PolarityLabel.NEUTRAL),
        ]
        p = tmp_path / "labels.csv"
        write_labeled(labels, p)
        assert parse_labeled(p) == labels

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


class TestAspectLexicon:
    def test_load_ignores_comments(self, tmp_path):
        p = tmp_path / "aspects.txt"
        p.write_text("# a comment\ninflation\n\nstock market\n", encoding="utf-8")
        lex = load_aspects(p)
        assert lex.aspects == ("inflation", "stock market")
        assert lex.token_sequences == (("inflation",), ("stock", "market"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            AspectLexicon(["tax", "Tax"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AspectLexicon([])

    def test_membership(self):
        lex = AspectLexicon(["tax", "rate"])
        assert "tax" in lex
        assert "inflation" not in lex
        assert list(lex) == ["tax", "rate"]


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
