"""Independent reference implementations used only to check the package.

Everything here deliberately takes a *different* computational route from
the code under test: exact rational arithmetic (floats are dyadic
rationals, so Fraction conversion is lossless) instead of floating point,
normal equations instead of orthogonal decompositions, per-keyword set
scans instead of a single counting pass, a scan of every aspect at
every position instead of a first-token index, cells that compute
every part of their statistics themselves, in one-row calls, instead of
sharing the parts that depend on one series and stacking the rest across
tickers, label files checked and counted one row
tuple at a time, without the package's counting code, instead of in
one pass over memoised fields, price files read with every field of
every row stripped first instead of only the two fields used, score
and cell files written by the CSV writer row by row instead of
formatted as text with each text quoted once, tweet
text tokenized with the URL pattern run on
every text and every token stripped one character at a time, and window
votes counted index by index instead of over slices, series put on the
calendar in a numpy array instead of an ``array('d')`` row, and each
cell's pairs aligned on its own masks instead of one mask per ticker.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from datetime import date
from typing import Iterable, Mapping, Sequence

import numpy as np

from sentdep.core import (
    AlignedPairs,
    PolarityLabel,
    ScoreKind,
    TradingCalendar,
)
from sentdep.entropy import uncertainty_coefficient
from sentdep.errors import (
    EmptySeries,
    FormatError,
    HeaderMismatch,
    InsufficientData,
    SentdepError,
)
from sentdep.granger import granger_causes
from sentdep.ingest import (
    AspectLexicon,
    csv_reader,
    csv_rows,
    load_aspects,
    parse_prices,
    write_csv,
)
from sentdep.labeler import AspectOccurrence
from sentdep.pearson import pearson
from sentdep.prepare import build_calendar, select_top_aspects
from sentdep.report import DependenceCell


def pearson_exact(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson r with exact rational sums; one float rounding at the sqrt."""
    n = len(xs)
    fx = [Fraction(float(v)) for v in xs]
    fy = [Fraction(float(v)) for v in ys]
    mx = sum(fx) / n
    my = sum(fy) / n
    dx = [a - mx for a in fx]
    dy = [b - my for b in fy]
    sxy = sum(a * b for a, b in zip(dx, dy))
    sxx = sum(a * a for a in dx)
    syy = sum(b * b for b in dy)
    if sxx == 0 or syy == 0:
        raise ZeroDivisionError("constant series")
    magnitude = math.sqrt(float((sxy * sxy) / (sxx * syy)))
    if sxy == 0:
        return 0.0
    return magnitude if sxy > 0 else -magnitude


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss–Jordan elimination over Fractions with partial pivoting."""
    n = len(matrix)
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise ZeroDivisionError("singular system")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col] / pivot
                aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    return [aug[i][-1] / aug[i][i] for i in range(n)]


def ols_exact(
    regressor_rows: Sequence[Sequence[float]], response: Sequence[float]
) -> tuple[list[Fraction], Fraction]:
    """Intercept-first least squares via exact normal equations.

    Returns (coefficients, rss), both as Fractions (rss is exact for the
    float-rounded coefficients' true minimizer, since the normal equations
    are solved exactly).
    """
    n = len(response)
    design = [[Fraction(1)] + [Fraction(float(v)) for v in row] for row in regressor_rows]
    y = [Fraction(float(v)) for v in response]
    p = len(design[0])
    xtx = [[sum(design[i][a] * design[i][b] for i in range(n)) for b in range(p)]
           for a in range(p)]
    xty = [sum(design[i][a] * y[i] for i in range(n)) for a in range(p)]
    beta = _solve_exact(xtx, xty)
    rss = sum(
        (y[i] - sum(design[i][a] * beta[a] for a in range(p))) ** 2 for i in range(n)
    )
    return beta, rss


def granger_f_exact(x: Sequence[float], y: Sequence[float], lag: int = 1) -> float:
    """F statistic of the lag-exclusion test, via exact normal equations."""
    n = len(y)
    response = list(y[lag:])
    own = [[y[t - i] for i in range(1, lag + 1)] for t in range(lag, n)]
    full = [
        [y[t - i] for i in range(1, lag + 1)] + [x[t - i] for i in range(1, lag + 1)]
        for t in range(lag, n)
    ]
    _, rss_r = ols_exact(own, response)
    _, rss_u = ols_exact(full, response)
    q = lag
    df_den = (n - lag) - 2 * q - 1
    return float(((rss_r - rss_u) / q) / (rss_u / df_den))


_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


def tokens_char_by_char(text: str) -> list[str]:
    """The tokenizer's rules applied to every text and every token in full.

    Lowercase; every URL replaced by a space; whitespace split; then each
    token stripped of non-alphanumeric characters one at a time from both
    ends, and dropped if nothing is left.
    """
    text = _URL.sub(" ", text.lower())
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


def keyword_counts_bruteforce(texts: Sequence[str]) -> dict[str, int]:
    """Tweets-per-token by scanning all texts once per candidate keyword."""
    token_sets = [set(tokens_char_by_char(t)) for t in texts]
    vocabulary = set().union(*token_sets) if token_sets else set()
    return {
        word: sum(1 for toks in token_sets if word in toks)
        for word in vocabulary
    }


def aspect_occurrences_bruteforce(
    tokens: Sequence[str], lexicon: AspectLexicon
) -> list[AspectOccurrence]:
    """Every aspect tried at every token position, then sorted."""
    found: list[tuple[int, int, AspectOccurrence]] = []
    for lex_idx, aspect in enumerate(lexicon.aspects):
        seq = tuple(aspect.split())
        w = len(seq)
        for start in range(len(tokens) - w + 1):
            if tuple(tokens[start:start + w]) == seq:
                found.append((start, lex_idx, AspectOccurrence(aspect, start, start + w)))
    found.sort(key=lambda t: (t[0], t[1]))
    return [occ for _, _, occ in found]


def window_label_index_by_index(
    tokens: Sequence[str], occurrence: AspectOccurrence, lexicon, window: int
) -> PolarityLabel:
    """The window labeler's vote, walking every index around the occurrence
    and skipping those inside it; a term in both sets counts as positive."""
    pos = neg = 0
    for i in range(max(0, occurrence.start - window), min(len(tokens), occurrence.end + window)):
        if occurrence.start <= i < occurrence.end:
            continue
        if tokens[i] in lexicon.positive:
            pos += 1
        elif tokens[i] in lexicon.negative:
            neg += 1
    if pos == neg:
        return PolarityLabel.NEUTRAL
    return PolarityLabel.POSITIVE if pos > neg else PolarityLabel.NEGATIVE


#: Column of each polarity in a ``[positive, negative, neutral]`` count.
_COUNT_COLUMN = {PolarityLabel.POSITIVE: 0, PolarityLabel.NEGATIVE: 1,
                 PolarityLabel.NEUTRAL: 2}


def label_cells(
    labels: Iterable[tuple[str, date, str, PolarityLabel]]
) -> dict[tuple[str, date], list[int]]:
    """The ``(aspect, day) -> [positive, negative, neutral]`` counts of
    label tuples, counted one tuple at a time."""
    cells: dict[tuple[str, date], list[int]] = {}
    for _tweet_id, day, aspect, polarity in labels:
        cells.setdefault((aspect, day), [0, 0, 0])[_COUNT_COLUMN[polarity]] += 1
    return cells


def labels_row_by_row(path) -> dict[tuple[str, date], list[int]]:
    """The counts of a label file, read one checked row at a time.

    Each row from :func:`sentdep.ingest.csv_rows` becomes a label tuple
    after its checks (tweet_id, date, polarity, aspect, in that order),
    and :func:`label_cells` counts the tuples into the ``(aspect, day) ->
    [positive, negative, neutral]`` dict that
    :func:`sentdep.ingest.parse_labeled` returns.
    """
    def labels():
        for lineno, (tweet_id, date_s, aspect, polarity_s) in csv_rows(
            path, "label", ("tweet_id", "date", "aspect", "polarity")
        ):
            if not tweet_id:
                raise FormatError("empty tweet_id", path=path, line_number=lineno)
            try:
                day = date.fromisoformat(date_s)
            except ValueError:
                raise FormatError(f"bad date {date_s!r}", path=path,
                                  line_number=lineno) from None
            try:
                polarity = PolarityLabel(polarity_s)
            except ValueError:
                raise FormatError(f"unknown polarity {polarity_s!r}", path=path,
                                  line_number=lineno) from None
            if not aspect:
                raise FormatError("empty aspect", path=path, line_number=lineno)
            yield tweet_id, day, aspect, polarity

    return label_cells(labels())


def scores_row_by_row(cells: Mapping[tuple[str, date], Sequence[int]], path) -> None:
    """A score file of ``(aspect, day) -> [positive, negative, neutral]``
    counts, written one row tuple at a time by
    :func:`sentdep.ingest.write_csv`, which quotes every field itself."""
    def rows():
        for (aspect, day), (positive, negative, neutral) in sorted(
                cells.items(), key=lambda item: item[0]):
            total = positive + negative + neutral
            day = day.isoformat()
            yield aspect, day, "fp", repr(float(positive))
            yield aspect, day, "fn", repr(float(negative))
            yield aspect, day, "fs", repr(float(total))
            yield aspect, day, "nfp", repr(positive / total)
            yield aspect, day, "nfn", repr(negative / total)

    write_csv(path, ("aspect", "date", "kind", "value"), rows())


def cells_row_by_row(cells: Sequence[DependenceCell], path) -> None:
    """A cell file written one row list at a time by
    :func:`sentdep.ingest.write_csv`, each field rendered by its type."""
    def text(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, ScoreKind):
            return value.code
        if isinstance(value, float):
            return repr(value)
        return str(value)

    columns = [f.name for f in fields(DependenceCell)]
    write_csv(path, columns, ([text(getattr(c, name)) for name in columns] for c in cells))


def prices_row_by_row(path, ticker: str) -> dict[date, float]:
    """The closes of a price file, every row stripped and checked in turn.

    Each row's fields are all stripped, a row of blank fields is dropped,
    and the rest go through the checks of
    :func:`sentdep.ingest.parse_prices` one after another, with the same
    warnings and errors. Warnings are logged on ``sentdep.ingest``'s logger.
    """
    log = logging.getLogger("sentdep.ingest")
    values: dict[date, float] = {}
    with csv_reader(path, "price") as (reader, header):
        for required in ("Date", "Close"):
            if required not in header:
                raise HeaderMismatch(
                    f"missing column {required!r} in header {header}", path=path
                )
        date_col = header.index("Date")
        close_col = header.index("Close")
        for row in reader:
            lineno = reader.line_num
            row = [f.strip() for f in row]
            if not any(row):
                continue
            if len(row) <= max(date_col, close_col):
                log.warning("%s:%d: short row skipped", path, lineno)
                continue
            try:
                d = date.fromisoformat(row[date_col])
            except ValueError:
                log.warning("%s:%d: bad date %r skipped", path, lineno, row[date_col])
                continue
            try:
                close = float(row[close_col])
            except ValueError:
                log.warning("%s:%d: non-numeric Close %r skipped",
                            path, lineno, row[close_col])
                continue
            if not 0 < close < math.inf:
                log.warning("%s:%d: non-positive or non-finite Close %r skipped",
                            path, lineno, close)
                continue
            if d in values:
                raise FormatError(f"repeated Date {d}", path=path, line_number=lineno)
            values[d] = close
    if not values:
        raise EmptySeries(f"{path}: no usable price rows for {ticker}")
    return values


def on_calendar_numpy(values: Mapping[date, float], calendar: TradingCalendar) -> np.ndarray:
    """A daily series as a float64 array indexed by trading day, NaN where
    it has no observation, filled element by element into ``np.full``."""
    out = np.full(len(calendar), np.nan)
    index = {d: i for i, d in enumerate(calendar.days)}
    for d, v in values.items():
        i = index.get(d)
        if i is not None:
            out[i] = v
    return out


@dataclass(frozen=True, eq=False)
class KeptPairs(AlignedPairs):
    """Lag-aligned pairs with ``kept``, the boolean mask over the price
    days ``lag_days`` onwards of the calendar that marks the days the
    pairs come from."""

    kept: np.ndarray | None = None


class NoPairs(Exception):
    """Lag-aligning two series produced zero usable pairs."""


def align_lagged(x, y, lag: int = 1) -> KeptPairs:
    """Pair each price with the sentiment ``lag`` trading days earlier.

    ``x`` and ``y`` are calendar rows (see
    :func:`sentdep.core.on_calendar`): the price on trading day t pairs
    with the sentiment on trading day t − lag, i.e. ``x[:-lag]`` with
    ``y[lag:]``, and pairs with either side missing are skipped (pairwise
    deletion). Output is in calendar order, with the mask of the days
    kept. Raises NoPairs when no pair survives.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xs, ys = x[:-lag], y[lag:]
    keep = np.isfinite(xs) & np.isfinite(ys)
    if not keep.any():
        raise NoPairs(f"no (sentiment, price) pairs at lag {lag}")
    return KeptPairs(pairs=np.column_stack([xs[keep], ys[keep]]), lag_days=lag, kept=keep)


def paired_on_common_days(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same-date (sentiment, price) arrays over the trading days both cover,
    and the boolean calendar mask of those days: the Granger test's input,
    whose own lag terms supply the time shift."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep], keep


def _reason(exc: Exception) -> str:
    if isinstance(exc, (NoPairs, InsufficientData)):
        return "InsufficientData"
    return type(exc).__name__


def unshared_cell(aspect, kind, ticker, sentiment, price, config) -> DependenceCell:
    """One cell with every statistic computed from its own two arrays."""
    cell = dict(aspect=aspect, kind=kind, ticker=ticker, n=0)
    try:
        aligned = align_lagged(sentiment, price, config.lag)
    except NoPairs as exc:
        aligned = None
        cell["r_reason"] = cell["u_reason"] = _reason(exc)
    if aligned is not None:
        cell["n"] = aligned.n
        try:
            r = pearson(aligned.xs(), aligned.ys())
            cell.update(r=r, r_significant=abs(r) > config.pearson_threshold)
        except SentdepError as exc:
            cell["r_reason"] = _reason(exc)
        try:
            uc = uncertainty_coefficient(aligned, config.entropy_k)
            cell.update(u=uc.u, u_valid=uc.valid, u_mi=uc.mi)
        except SentdepError as exc:
            cell["u_reason"] = _reason(exc)
    try:
        xs, ys, _ = paired_on_common_days(sentiment, price)
        if config.granger_difference:
            xs, ys = np.diff(xs), np.diff(ys)
        if config.granger_reverse:
            xs, ys = ys, xs
        g = granger_causes(xs, ys, lag=config.granger_lag, alpha=config.granger_alpha)
        cell.update(granger_f=g.f_stat, granger_p=g.p_value, granger_causal=g.causal,
                    granger_perfect_fit=g.perfect_fit)
    except SentdepError as exc:
        cell["granger_reason"] = _reason(exc)
    return DependenceCell(**cell)


def unshared_cells(config, series, totals) -> list[DependenceCell]:
    """The cell grid of ``stage_analyze`` over the given scores, cell by cell."""
    prices = {t: parse_prices(p, t) for t, p in config.prices.items()}
    calendar = build_calendar(config, prices)
    top = select_top_aspects(load_aspects(config.aspects), totals, config.top_n_aspects)
    cells = []
    for aspect in top:
        for kind in ScoreKind:
            x = on_calendar_numpy(series.get((aspect, kind), {}), calendar)
            if config.absent_as_zero and kind.is_absolute:
                x = np.where(np.isnan(x), 0.0, x)
            for ticker, closes in prices.items():
                y = on_calendar_numpy(closes, calendar)
                cells.append(unshared_cell(aspect, kind, ticker, x, y, config))
    return cells
