"""The analysis inputs, read and put on the trading calendar without numpy.

:func:`prepare_analysis` reads what the analysis needs besides the
scores: the aspect lexicon, from which the top aspects are picked, every
price file and the trading calendar. It puts each ticker's closes and
each top (aspect, kind) sentiment on the calendar as a row of floats
(see :func:`sentdep.core.on_calendar`), so the analysis never sees a
date. :func:`input_digests` gives the SHA-256 of every input file for
the run manifest.

``sentdep run`` calls both in its forked ingest child, once the scores
are written, while the parent imports numpy and the statistics (see
:func:`sentdep.pipeline.run_pipeline`); ``sentdep analyze`` calls
:func:`prepare_analysis` inline. Neither the CLI's start nor the parent
of a run loads this module.
"""

from __future__ import annotations

import hashlib
from datetime import date
from typing import TYPE_CHECKING, Mapping

from .core import AnalysisInputs, ScoreKind, TradingCalendar, on_calendar
from .errors import FormatError
from .ingest import AspectLexicon, comment_lines, load_aspects, parse_prices
from .scores import Scores, read_scores

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


def load_calendar(path) -> TradingCalendar:
    """Read an explicit trading calendar: one ISO date per line, '#' comments.

    A line that is not an ISO date, or a file without any date, raises
    FormatError.
    """
    days: list[date] = []
    for lineno, line in comment_lines(path):
        try:
            days.append(date.fromisoformat(line))
        except ValueError:
            raise FormatError(f"not an ISO date: {line!r}",
                              path=path, line_number=lineno) from None
    if not days:
        raise FormatError("calendar lists no trading day", path=path)
    return TradingCalendar(days)


def build_calendar(
    config: PipelineConfig, prices: Mapping[str, Mapping[date, float]]
) -> TradingCalendar:
    """The run's trading calendar: explicit file, or union of price dates."""
    if config.calendar is not None:
        return load_calendar(config.calendar)
    return TradingCalendar(day for closes in prices.values() for day in closes)


def select_top_aspects(
    lexicon: AspectLexicon, frequencies: Mapping[str, int], top_n: int
) -> list[str]:
    """The ``top_n`` most-mentioned aspects, in presentation order.

    Candidates are the lexicon entries plus any aspect appearing in the
    labels; ranking is by total label count descending, ties broken
    lexicographically. The returned list is reordered for presentation:
    lexicon order first, remaining aspects alphabetical.
    """
    candidates = set(lexicon.aspects) | set(frequencies)
    ranked = sorted(candidates, key=lambda a: (-frequencies.get(a, 0), a))
    chosen = set(ranked[:top_n])
    ordered = [a for a in lexicon.aspects if a in chosen]
    ordered.extend(sorted(chosen.difference(lexicon.aspects)))
    return ordered


def prepare_analysis(
    config: PipelineConfig, scores_path, scores: Scores | None = None
) -> AnalysisInputs:
    """The top aspects, tickers and calendar rows of one analysis.

    ``scores`` are the series and totals of ``scores_path`` when the
    caller already holds them; otherwise they are read from the file. The
    files are read in this order: the aspect lexicon, the scores, the
    price files in config order, then the calendar file, if any; the
    first bad one raises its FormatError. Each (top aspect, kind) gets a
    row, all NaN for a series without labels.
    """
    lexicon = load_aspects(config.aspects)
    series, totals = read_scores(scores_path) if scores is None else scores
    days: dict[str, date] = {}  # each Date text of the price files, parsed once
    prices = {t: parse_prices(p, t, days) for t, p in config.prices.items()}
    calendar = build_calendar(config, prices)
    top = select_top_aspects(lexicon, totals, config.top_n_aspects)
    return AnalysisInputs(
        aspects=top,
        tickers=list(prices),
        closes=[on_calendar(closes, calendar) for closes in prices.values()],
        series={(aspect, kind): on_calendar(series.get((aspect, kind), {}), calendar)
                for aspect in top for kind in ScoreKind},
    )


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def input_digests(config: PipelineConfig) -> dict[str, str]:
    """The SHA-256 of every configured input file, by its manifest name.

    Each file is read again here, once its reader is done with it. A run
    calls this in its ingest child, which alone loads this module and so
    :mod:`hashlib`: the OpenSSL library it maps would add about 3.7 MiB
    to the parent, which holds numpy and the analysis.
    """
    return {name: sha256_file(p) for name, p in config.input_files()}
