"""Daily aspect sentiment scores.

Labels are aggregated into per-(aspect, day) polarity counts, which then
yield four score series per aspect:

* ``fp``  — count of positive labels that day (absolute),
* ``fn``  — count of negative labels that day (absolute),
* ``nfp`` — positive count / total labels that day (normalised),
* ``nfn`` — negative count / total labels that day (normalised),

where the total includes neutral labels, so nfp + nfn <= 1. Days with no
labels for an aspect are missing, not zero; the analysis can fill the
absolute kinds with zeros (``absent_as_zero``), where "no mentions"
genuinely means a count of zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

from .core import PolarityLabel, ScoreKind
from .errors import FormatError
from .ingest import csv_rows, write_csv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AspectDayCount:
    """Polarity label counts for one aspect on one day."""

    aspect: str
    day: date
    positive: int
    negative: int
    neutral: int

    def __post_init__(self):
        for name in ("positive", "negative", "neutral"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} count must be >= 0, got {v}")
        if self.total == 0:
            raise ValueError(f"no labels for {self.aspect} on {self.day}")

    @property
    def total(self) -> int:
        return self.positive + self.negative + self.neutral


def aggregate_daily(
    labels: Iterable[tuple[str, date, str, PolarityLabel]]
) -> list[AspectDayCount]:
    """Collapse per-occurrence labels into per-(aspect, day) counts.

    Every input tuple contributes to exactly one count cell; output is
    sorted by (aspect, day). ``labels`` is read once, so it may be a
    stream.
    """
    acc: dict[tuple[str, date], list[int]] = {}
    for _tweet_id, day, aspect, polarity in labels:
        cell = acc.get((aspect, day))
        if cell is None:
            cell = acc[(aspect, day)] = [0, 0, 0]
        if polarity is PolarityLabel.POSITIVE:
            cell[0] += 1
        elif polarity is PolarityLabel.NEGATIVE:
            cell[1] += 1
        else:
            cell[2] += 1
    return [
        AspectDayCount(aspect=a, day=d, positive=c[0], negative=c[1], neutral=c[2])
        for (a, d), c in sorted(acc.items())
    ]


_SCORES_HEADER = ("aspect", "date", "kind", "value")

#: Extra per-day row kind carrying the total label count ("fs"). It rides
#: along in score files so a reader can rank aspects by total mentions
#: without the original labels.
TOTAL_KIND_CODE = "fs"

_KINDS_BY_CODE = {k.value: k for k in ScoreKind}
_VALID_KIND_CODES = set(_KINDS_BY_CODE) | {TOTAL_KIND_CODE}
_SHARE_KIND_CODES = {k.value for k in ScoreKind if not k.is_absolute}

#: Daily series by (aspect, kind), each a date -> value dict, and the total
#: mentions of each aspect: what a score file holds.
Scores = tuple[dict[tuple[str, ScoreKind], dict[date, float]], dict[str, int]]


def aspect_days(scores: Scores) -> int:
    """Number of (aspect, day) cells with a label in ``scores``."""
    series, _ = scores
    return sum(len(days) for (_, kind), days in series.items()
               if kind is ScoreKind.ABS_POSITIVE)


def write_scores(counts: Sequence[AspectDayCount], path) -> Scores:
    """Write per-day scores for all aspects to CSV; returns what it wrote.

    One row per (aspect, day, kind) for the four score kinds plus the
    ``fs`` total row. Values use ``repr`` so floats round-trip exactly,
    and the returned series and totals equal what :func:`read_scores`
    reads back from the file.
    """
    series: dict[tuple[str, ScoreKind], dict[date, float]] = {}
    totals: dict[str, int] = {}

    def rows():
        for c in sorted(counts, key=lambda c: (c.aspect, c.day)):
            day = c.day.isoformat()
            for code, value in (
                (ScoreKind.ABS_POSITIVE.code, float(c.positive)),
                (ScoreKind.ABS_NEGATIVE.code, float(c.negative)),
                (TOTAL_KIND_CODE, float(c.total)),
                (ScoreKind.NORM_POSITIVE.code, c.positive / c.total),
                (ScoreKind.NORM_NEGATIVE.code, c.negative / c.total),
            ):
                _add(series, totals, c.aspect, c.day, code, value)
                yield c.aspect, day, code, repr(value)

    write_csv(path, _SCORES_HEADER, rows())
    return series, totals


def _add(series, totals, aspect: str, day: date, code: str, value: float) -> None:
    """Put one score row's value into ``series``, or for ``fs`` into ``totals``."""
    if code == TOTAL_KIND_CODE:
        totals[aspect] = totals.get(aspect, 0) + int(value)
    else:
        series.setdefault((aspect, _KINDS_BY_CODE[code]), {})[day] = value


def read_scores(path) -> Scores:
    """Read a score CSV back into daily series plus per-aspect totals.

    Returns ``(series, totals)`` where ``series`` maps (aspect, kind) to
    its date -> value dict and ``totals`` maps aspect to its summed ``fs``
    rows (mention count over the whole file). Counts (``fp``, ``fn``,
    ``fs``) must be non-negative whole numbers and shares (``nfp``,
    ``nfn``) must lie in [0, 1]; any other value raises FormatError with
    its line.
    """
    series: dict[tuple[str, ScoreKind], dict[date, float]] = {}
    totals: dict[str, int] = {}
    for lineno, (aspect, date_s, kind_code, value_s) in csv_rows(
        path, "score", _SCORES_HEADER
    ):
        if kind_code not in _VALID_KIND_CODES:
            raise FormatError(f"unknown score kind {kind_code!r}",
                              path=path, line_number=lineno)
        try:
            d = date.fromisoformat(date_s)
            v = float(value_s)
        except ValueError as exc:
            raise FormatError(str(exc), path=path, line_number=lineno) from None
        if kind_code in _SHARE_KIND_CODES:
            valid, rule = 0.0 <= v <= 1.0, "lie in [0, 1]"
        else:
            valid, rule = v >= 0.0 and v.is_integer(), "be a whole number >= 0"
        if not valid:
            raise FormatError(f"{kind_code} must {rule}, got {value_s!r}",
                              path=path, line_number=lineno)
        _add(series, totals, aspect, d, kind_code, v)
    return series, totals
