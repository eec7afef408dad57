"""Aspect occurrence detection and the lexicon-window labeler."""

from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentdep.core import PolarityLabel
from sentdep.errors import ConfigError, FormatError
from sentdep.ingest import AspectLexicon, TweetRecord, parse_labeled, write_labeled
from sentdep.labeler import (
    AspectOccurrence,
    PolarityLexicon,
    find_aspect_occurrences,
    label_corpus,
    lexicon_window_label,
)
from sentdep.pipeline import check_values
from sentdep.scores import aggregate_daily

from oracles import aspect_occurrences_bruteforce, window_label_index_by_index

LEX = PolarityLexicon(
    positive=["gains", "rally", "strong", "optimism"],
    negative=["fears", "crash", "losses", "weak"],
)


def term_files(tmp_path, positive: str, negative: str):
    pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
    pos.write_text(positive, encoding="utf-8")
    neg.write_text(negative, encoding="utf-8")
    return pos, neg


class TestPolarityLexicon:
    """Term files are checked where they are read, by from_files."""

    def test_disjoint_required(self, tmp_path):
        pos, neg = term_files(tmp_path, "up\nflat\n", "down\nFlat\n")
        with pytest.raises(FormatError, match=r"neg.txt:2: term 'flat' is also listed in"):
            PolarityLexicon.from_files(pos, neg)

    def test_nonempty_required(self, tmp_path):
        pos, neg = term_files(tmp_path, "# none yet\n\n", "down\n")
        with pytest.raises(FormatError, match="pos.txt: term file lists no term"):
            PolarityLexicon.from_files(pos, neg)

    def test_normalizes_case(self, tmp_path):
        lex = PolarityLexicon.from_files(*term_files(tmp_path, "  Gains \n", "FEARS\n"))
        assert lex.positive == {"gains"}
        assert lex.negative == {"fears"}

    def test_from_files(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("# good words\ngains\nrally\n", encoding="utf-8")
        neg.write_text("fears\n", encoding="utf-8")
        lex = PolarityLexicon.from_files(pos, neg)
        assert lex.positive == {"gains", "rally"}


class TestFindAspectOccurrences:
    def test_single_token(self):
        lex = AspectLexicon(["inflation", "tax"])
        occs = find_aspect_occurrences(["inflation", "and", "tax"], lex)
        assert occs == [
            AspectOccurrence("inflation", 0, 1),
            AspectOccurrence("tax", 2, 3),
        ]

    def test_repeated_mentions(self):
        lex = AspectLexicon(["tax"])
        occs = find_aspect_occurrences(["tax", "tax"], lex)
        assert [o.start for o in occs] == [0, 1]

    def test_multi_token_contiguous(self):
        lex = AspectLexicon(["stock market"])
        assert find_aspect_occurrences(["the", "stock", "market", "rose"], lex) == [
            AspectOccurrence("stock market", 1, 3)
        ]
        # gap breaks the match
        assert find_aspect_occurrences(["stock", "the", "market"], lex) == []

    def test_no_subtoken_match(self):
        # "stock" must not match inside the distinct token "stockmarket"
        lex = AspectLexicon(["stock", "stockmarket"])
        occs = find_aspect_occurrences(["stockmarket", "news"], lex)
        assert [o.aspect for o in occs] == ["stockmarket"]

    def test_order_is_position_then_lexicon(self):
        lex = AspectLexicon(["market", "stock", "stock market"])
        occs = find_aspect_occurrences(["stock", "market"], lex)
        assert [(o.aspect, o.start) for o in occs] == [
            ("stock", 0),
            ("stock market", 0),
            ("market", 1),
        ]


#: Tokens that share first tokens, prefix one another as aspects ("stock"
#: and "stock market") and as strings ("sto", "stock", "stockmarket").
VOCABULARY = ["stock", "market", "stockmarket", "sto", "rate", "rates", "tax", "the"]


@st.composite
def lexicon_and_tokens(draw):
    """A lexicon with at least two entries that share a first token, in
    drawn order among the others, and tokens drawn from the same words."""
    phrase = st.lists(st.sampled_from(VOCABULARY), max_size=2).map(tuple)
    first = draw(st.sampled_from(VOCABULARY))
    shared = [(first, *tail)
              for tail in draw(st.lists(phrase, min_size=2, max_size=4, unique=True))]
    others = draw(st.lists(
        st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3).map(tuple),
        max_size=6,
    ))
    seqs = draw(st.permutations(list(dict.fromkeys(shared + others))))
    tokens = draw(st.lists(st.sampled_from(VOCABULARY), max_size=30))
    return AspectLexicon(" ".join(seq) for seq in seqs), tokens


@given(lexicon_and_tokens())
@example((AspectLexicon(["stock", "stock market", "market", "stock stock"]),
          "the stock stock market stock market sto stockmarket stock".split()))
def test_indexed_matching_equals_the_full_scan(case):
    lexicon, tokens = case
    assert any(len(entries) > 1 for entries in lexicon.by_first_token.values())
    assert find_aspect_occurrences(tokens, lexicon) == aspect_occurrences_bruteforce(
        tokens, lexicon)


@given(st.lists(st.sampled_from(["up", "down", "both", "x"]), max_size=16),
       st.integers(0, 16), st.integers(0, 3), st.integers(0, 7))
def test_window_label_equals_the_index_by_index_vote(tokens, start, width, window):
    # "both" is in both sets, which only a lexicon built by hand allows.
    lexicon = PolarityLexicon(positive=["up", "both"], negative=["down", "both"])
    occurrence = AspectOccurrence("x", start, start + width)
    assert lexicon_window_label(tokens, occurrence, lexicon, window) is (
        window_label_index_by_index(tokens, occurrence, lexicon, window))


class TestLexiconWindowLabel:
    def occ(self, start, end=None, aspect="inflation"):
        return AspectOccurrence(aspect, start, end if end is not None else start + 1)

    def test_positive_majority(self):
        tokens = "gains ahead inflation outlook".split()
        assert lexicon_window_label(tokens, self.occ(2), LEX) is PolarityLabel.POSITIVE

    def test_negative_majority(self):
        tokens = "inflation fears and crash talk".split()
        assert lexicon_window_label(tokens, self.occ(0), LEX) is PolarityLabel.NEGATIVE

    def test_tie_is_neutral(self):
        tokens = "gains inflation fears".split()
        assert lexicon_window_label(tokens, self.occ(1), LEX) is PolarityLabel.NEUTRAL

    def test_no_hits_is_neutral(self):
        tokens = "the inflation data today".split()
        assert lexicon_window_label(tokens, self.occ(1), LEX) is PolarityLabel.NEUTRAL

    def test_window_limits_reach(self):
        # the opinion word sits 3 tokens away; window 2 cannot see it
        tokens = "crash a b inflation".split()
        assert lexicon_window_label(tokens, self.occ(3), LEX, window=2) is PolarityLabel.NEUTRAL
        assert lexicon_window_label(tokens, self.occ(3), LEX, window=3) is PolarityLabel.NEGATIVE

    def test_window_zero_sees_nothing(self):
        tokens = "gains inflation".split()
        assert lexicon_window_label(tokens, self.occ(1), LEX, window=0) is PolarityLabel.NEUTRAL

    def test_aspect_tokens_excluded_from_window(self):
        # multi-token occurrence: its own tokens never count as opinions
        lex = PolarityLexicon(positive=["market"], negative=["fears"])
        occ = AspectOccurrence("stock market", 0, 2)
        assert (
            lexicon_window_label("stock market steady".split(), occ, lex)
            is PolarityLabel.NEUTRAL
        )

    def test_negative_window_rejected(self):
        # the config rule is the one check of the window
        with pytest.raises(ConfigError, match="window must be >= 0, got -1"):
            check_values(window=-1)


class TestLabelCorpus:
    def tweet(self, i, text, day=3, lang="en"):
        return TweetRecord(
            id=f"t{i}",
            timestamp=datetime(2022, 10, day, 12, 0, tzinfo=timezone.utc),
            text=text,
            lang=lang,
        )

    def test_emits_one_tuple_per_occurrence(self):
        aspects = AspectLexicon(["inflation", "tax"])
        # the aspects sit far enough apart that neither window sees the
        # other's opinion word
        tweets = [
            self.tweet(1, "inflation gains today while investors remain wary since tax fears mount"),
            self.tweet(2, "tax tax"),
            self.tweet(3, "nothing relevant"),
        ]
        labels = list(label_corpus(tweets, aspects, LEX))
        assert labels == [
            ("t1", date(2022, 10, 3), "inflation", PolarityLabel.POSITIVE),
            ("t1", date(2022, 10, 3), "tax", PolarityLabel.NEGATIVE),
            ("t2", date(2022, 10, 3), "tax", PolarityLabel.NEUTRAL),
            ("t2", date(2022, 10, 3), "tax", PolarityLabel.NEUTRAL),
        ]

    def test_output_interchangeable_with_parsed_labels(self, tmp_path):
        aspects = AspectLexicon(["inflation"])
        labels = list(label_corpus([self.tweet(1, "inflation crash")], aspects, LEX))
        p = tmp_path / "labels.csv"
        write_labeled(labels, p)
        assert parse_labeled(p) == aggregate_daily(labels)

    def test_uses_utc_day(self):
        aspects = AspectLexicon(["inflation"])
        tweet = TweetRecord(
            id="t1",
            timestamp=datetime(2022, 10, 3, 23, 30, tzinfo=timezone.utc),
            text="inflation",
            lang="en",
        )
        (label,) = label_corpus([tweet], aspects, LEX)
        assert label[1] == date(2022, 10, 3)
