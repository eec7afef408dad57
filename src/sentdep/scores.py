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
from datetime import date
from typing import Iterable, Iterator, Mapping, Sequence

from .core import COUNT_INDEX, AspectDayCount, PolarityLabel, ScoreKind
from .errors import FormatError
from .ingest import DayText, csv_field, csv_rows, open_output

logger = logging.getLogger(__name__)


def aggregate_daily(
    labels: Iterable[tuple[str, date, str, PolarityLabel]]
) -> list[AspectDayCount]:
    """Collapse per-occurrence labels into per-(aspect, day) counts.

    Every input tuple contributes to exactly one count cell; output is
    sorted by (aspect, day). ``labels`` is read once, so it may be a
    stream. :func:`sentdep.ingest.parse_labeled` gives the same counts
    for a label file, as the ``(aspect, day) -> [positive, negative,
    neutral]`` dict that :func:`counted` fills.
    """
    cells: dict[tuple[str, date], list[int]] = {}
    for _ in counted(labels, cells):
        pass
    return [AspectDayCount(a, d, *c) for (a, d), c in sorted(cells.items())]


def counted(
    labels: Iterable[tuple[str, date, str, PolarityLabel]],
    cells: dict[tuple[str, date], list[int]],
) -> Iterator[tuple[str, date, str, PolarityLabel]]:
    """Yield each label unchanged after counting it into ``cells``, its
    ``(aspect, day) -> [positive, negative, neutral]`` counts."""
    for label in labels:
        _tweet_id, day, aspect, polarity = label
        cell = cells.get((aspect, day))
        if cell is None:
            cell = cells[(aspect, day)] = [0, 0, 0]
        cell[COUNT_INDEX[polarity]] += 1
        yield label


_SCORES_HEADER = ("aspect", "date", "kind", "value")

#: Extra per-day row kind carrying the total label count ("fs"). It rides
#: along in score files so a reader can rank aspects by total mentions
#: without the original labels.
TOTAL_KIND_CODE = "fs"

#: Rows of a score file per (aspect, day): one per score kind, and the total.
ROWS_PER_DAY = len(ScoreKind) + 1

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


def write_scores(cells: Mapping[tuple[str, date], Sequence[int]], path) -> Scores:
    """Write per-day scores for all aspects to CSV; returns what it wrote.

    ``cells`` are ``(aspect, day) -> [positive, negative, neutral]``
    label counts, as :func:`sentdep.ingest.parse_labeled` and the
    built-in labeler (:func:`counted`) make them. Their items are sorted
    once and written in (aspect, day) order, one row per (aspect, day,
    kind) for the four score kinds plus the ``fs`` total row. Values use
    ``repr`` so floats round-trip exactly, and the returned series and
    totals equal what :func:`read_scores` reads back from the file.

    The rows are formatted as text and written in one call, with the
    bytes :func:`~sentdep.ingest.write_csv` would write: each aspect is
    quoted once, as that writer quotes it (:func:`~sentdep.ingest.csv_field`),
    and a day, a kind code or the ``repr`` of a finite float never needs
    quoting.
    """
    series: dict[tuple[str, ScoreKind], dict[date, float]] = {}
    totals: dict[str, int] = {}
    fp_code, fn_code, nfp_code, nfn_code = (k.code for k in ScoreKind)
    day_text = DayText()
    lines = [",".join(_SCORES_HEADER) + "\n"]
    aspect = None
    for (name, d), (positive, negative, neutral) in sorted(cells.items()):
        if name != aspect:
            aspect = name
            field = csv_field(aspect)
            fp, fn, nfp, nfn = (series.setdefault((aspect, k), {}) for k in ScoreKind)
            totals.setdefault(aspect, 0)
        total = positive + negative + neutral
        fp[d] = v_fp = float(positive)
        fn[d] = v_fn = float(negative)
        nfp[d] = v_nfp = positive / total
        nfn[d] = v_nfn = negative / total
        totals[aspect] += total
        row = f"{field},{day_text[d]},"
        lines.append(f"{row}{fp_code},{v_fp!r}\n{row}{fn_code},{v_fn!r}\n"
                     f"{row}{TOTAL_KIND_CODE},{float(total)!r}\n"
                     f"{row}{nfp_code},{v_nfp!r}\n{row}{nfn_code},{v_nfn!r}\n")
    with open_output(path, newline="") as fh:
        fh.write("".join(lines))
    return series, totals


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
    fs_rows: dict[str, dict[date, int]] = {}
    for lineno, (aspect, date_s, kind_code, value_s) in csv_rows(
        path, "score", _SCORES_HEADER
    ):
        if not aspect:
            raise FormatError("empty aspect", path=path, line_number=lineno)
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
        if kind_code == TOTAL_KIND_CODE:
            days, v = fs_rows.setdefault(aspect, {}), int(v)
        else:
            days = series.setdefault((aspect, _KINDS_BY_CODE[kind_code]), {})
        if d in days:
            raise FormatError(f"repeated {kind_code} row for aspect {aspect!r} on {d}",
                              path=path, line_number=lineno)
        days[d] = v
    return series, {aspect: sum(days.values()) for aspect, days in fs_rows.items()}
