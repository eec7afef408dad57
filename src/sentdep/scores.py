"""Daily aspect sentiment scores.

Labels are aggregated into per-(aspect, day) polarity counts, which then
yield four score series per aspect:

* ``fp``  — count of positive labels that day (absolute),
* ``fn``  — count of negative labels that day (absolute),
* ``nfp`` — positive count / total labels that day (normalised),
* ``nfn`` — negative count / total labels that day (normalised),

where the total includes neutral labels, so nfp + nfn <= 1. Days with no
labels for an aspect are missing, not zero; a zero-fill helper exists for
the absolute kinds where "no mentions" genuinely means a count of zero.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

from .core import PolarityLabel, ScoreKind, SentimentSeries, TradingCalendar
from .errors import FormatError, HeaderMismatch

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
    sorted by (aspect, day).
    """
    acc: dict[tuple[str, date], list[int]] = {}
    for _tweet_id, day, aspect, polarity in labels:
        cell = acc.setdefault((aspect, day), [0, 0, 0])
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


def fill_absent_zero(
    series: SentimentSeries, calendar: TradingCalendar
) -> SentimentSeries:
    """Fill calendar days missing from an *absolute* series with 0 counts.

    Normalised kinds have no defensible fill value (0/0 is undefined), so
    they are rejected.
    """
    if not series.kind.is_absolute:
        raise ValueError(f"cannot zero-fill normalised kind {series.kind.code!r}")
    values = dict(series.values)
    for d in calendar.days:
        values.setdefault(d, 0.0)
    return SentimentSeries(aspect=series.aspect, kind=series.kind, values=values)


_SCORES_HEADER = ["aspect", "date", "kind", "value"]

#: Extra per-day row kind carrying the total label count ("fs"). It rides
#: along in score files so a reader can rank aspects by total mentions
#: without the original labels.
TOTAL_KIND_CODE = "fs"

_VALID_KIND_CODES = {k.value for k in ScoreKind} | {TOTAL_KIND_CODE}


def write_scores(counts: Sequence[AspectDayCount], path) -> None:
    """Write per-day scores for all aspects to CSV.

    One row per (aspect, day, kind) for the four score kinds plus the
    ``fs`` total row. Values use ``repr`` so floats round-trip exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SCORES_HEADER)
        for c in sorted(counts, key=lambda c: (c.aspect, c.day)):
            day = c.day.isoformat()
            writer.writerow([c.aspect, day, ScoreKind.ABS_POSITIVE.code, repr(float(c.positive))])
            writer.writerow([c.aspect, day, ScoreKind.ABS_NEGATIVE.code, repr(float(c.negative))])
            writer.writerow([c.aspect, day, TOTAL_KIND_CODE, repr(float(c.total))])
            writer.writerow([c.aspect, day, ScoreKind.NORM_POSITIVE.code, repr(c.positive / c.total)])
            writer.writerow([c.aspect, day, ScoreKind.NORM_NEGATIVE.code, repr(c.negative / c.total)])


def read_scores(path) -> tuple[dict[tuple[str, ScoreKind], SentimentSeries], dict[str, int]]:
    """Read a score CSV back into series plus per-aspect total frequencies.

    Returns ``(series, totals)`` where ``series`` maps (aspect, kind) to a
    SentimentSeries and ``totals`` maps aspect to its summed ``fs`` rows
    (mention count over the whole file).
    """
    path = Path(path)
    raw: dict[tuple[str, ScoreKind], dict[date, float]] = {}
    totals: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("score file is empty", path=path) from None
        if [h.strip() for h in header] != _SCORES_HEADER:
            raise HeaderMismatch(
                f"expected header {','.join(_SCORES_HEADER)}, got {header}", path=path
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise FormatError(f"expected 4 fields, got {len(row)}",
                                  path=path, line_number=lineno)
            aspect, date_s, kind_code, value_s = (c.strip() for c in row)
            if kind_code not in _VALID_KIND_CODES:
                raise FormatError(f"unknown score kind {kind_code!r}",
                                  path=path, line_number=lineno)
            try:
                d = date.fromisoformat(date_s)
                v = float(value_s)
            except ValueError as exc:
                raise FormatError(str(exc), path=path, line_number=lineno) from None
            if kind_code == TOTAL_KIND_CODE:
                totals[aspect] = totals.get(aspect, 0) + int(v)
            else:
                raw.setdefault((aspect, ScoreKind.from_code(kind_code)), {})[d] = v
    series = {
        (aspect, kind): SentimentSeries(aspect=aspect, kind=kind, values=values)
        for (aspect, kind), values in raw.items()
    }
    return series, totals

