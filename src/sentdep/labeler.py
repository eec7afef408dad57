"""Aspect occurrence detection and polarity labeling.

The scoring layer consumes (tweet_id, date, aspect, polarity) tuples and
does not care where they come from. Production labels typically arrive
from an external classifier via :func:`sentdep.ingest.parse_labeled`; this
module supplies the detection of aspect occurrences in tokenized text plus
a deterministic lexicon-window labeler that serves as the built-in
reference implementation (and powers synthetic fixtures).
"""

from __future__ import annotations

import logging
from datetime import date
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import PolarityLabel
from .errors import FormatError
from .ingest import AspectLexicon, TweetRecord, comment_lines

logger = logging.getLogger(__name__)

#: Tokens inspected on each side of an aspect occurrence.
DEFAULT_WINDOW = 5


class PolarityLexicon:
    """Lowercase positive and negative opinion terms, stored as given.

    Anything not listed is treated as neutral context. :meth:`from_files`
    reads the two sets and requires them to be non-empty and disjoint.
    """

    def __init__(self, positive: Iterable[str], negative: Iterable[str]):
        self.positive = frozenset(positive)
        self.negative = frozenset(negative)

    @classmethod
    def from_files(cls, positive_path, negative_path) -> "PolarityLexicon":
        """Load term files: one term per line, '#' comments ignored.

        A file without any term, or a term listed in both files, raises
        FormatError naming the file (and, for a shared term, its line in
        the negative file).
        """
        positive = _read_terms(positive_path)
        negative = _read_terms(negative_path)
        for path, terms in ((positive_path, positive), (negative_path, negative)):
            if not terms:
                raise FormatError("term file lists no term", path=path)
        for term, lineno in negative.items():
            if term in positive:
                raise FormatError(f"term {term!r} is also listed in {positive_path}",
                                  path=negative_path, line_number=lineno)
        return cls(positive, negative)


def _read_terms(path) -> dict[str, int]:
    """Lowercase terms of a term file, each with the line it first appears on."""
    terms: dict[str, int] = {}
    for lineno, line in comment_lines(path):
        terms.setdefault(line.lower(), lineno)
    return terms


class AspectOccurrence(NamedTuple):
    """One contiguous match of an aspect's token sequence in a tweet.

    ``start`` indexes the first matched token; ``end`` is one past the last.
    A named tuple, which is made about twice as fast as a frozen
    dataclass: a tweet file yields one per label.
    """

    aspect: str
    start: int
    end: int


def find_aspect_occurrences(
    tokens: Sequence[str], lexicon: AspectLexicon
) -> list[AspectOccurrence]:
    """Locate every aspect occurrence in a token list.

    Matches are on whole contiguous tokens; multi-token aspects must appear
    in order with no gaps. Overlapping matches of *different* aspects are
    all reported (a token span can support several aspects); repeated
    mentions of the same aspect yield one occurrence each. Output is
    ordered by (start, lexicon position): only the positions whose token
    starts a lexicon entry are visited, in order, and at each one the
    entries starting with its token are tried, in lexicon order.
    """
    found: list[AspectOccurrence] = []
    index = lexicon.by_first_token
    for start in [i for i, token in enumerate(tokens) if token in index]:
        for aspect, seq in index[tokens[start]]:
            end = start + len(seq)
            if tuple(tokens[start:end]) == seq:
                found.append(AspectOccurrence(aspect, start, end))
    return found


def lexicon_window_label(
    tokens: Sequence[str],
    occurrence: AspectOccurrence,
    lexicon: PolarityLexicon,
    window: int = DEFAULT_WINDOW,
) -> PolarityLabel:
    """Label one occurrence from opinion terms near it.

    Counts positive and negative terms among the ``window`` tokens on each
    side of the occurrence (the aspect's own tokens are skipped). More
    positive than negative terms labels the occurrence positive, the
    reverse negative, and a tie — including zero hits — neutral.
    """
    start, end = occurrence.start, occurrence.end
    positive, negative = lexicon.positive, lexicon.negative
    pos = neg = 0
    for token in [*tokens[max(0, start - window):start], *tokens[end:end + window]]:
        if token in positive:
            pos += 1
        elif token in negative:
            neg += 1
    if pos > neg:
        return PolarityLabel.POSITIVE
    if neg > pos:
        return PolarityLabel.NEGATIVE
    return PolarityLabel.NEUTRAL


def label_corpus(
    tweets: Iterable[TweetRecord],
    aspects: AspectLexicon,
    lexicon: PolarityLexicon,
    window: int = DEFAULT_WINDOW,
) -> Iterator[tuple[str, date, str, PolarityLabel]]:
    """Detect and label every aspect occurrence in a tweet corpus.

    Each occurrence is labeled by :func:`lexicon_window_label` with
    ``lexicon`` and ``window``. Yields one tuple per occurrence (not per
    distinct aspect), keyed by the tweet's UTC calendar day, in (corpus
    order, occurrence order). The output shape matches
    :func:`sentdep.ingest.parse_labeled`, so built-in and external labels
    are interchangeable downstream. Tweets are read once, in order, as the
    labels are taken, so ``tweets`` may be a stream and no list is held.
    """
    for tweet in tweets:
        tokens = tweet.tokens
        if not tokens:
            continue
        day = tweet.utc_date
        for occ in find_aspect_occurrences(tokens, aspects):
            yield (tweet.id, day, occ.aspect,
                   lexicon_window_label(tokens, occ, lexicon, window))
