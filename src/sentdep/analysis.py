"""The dependence cells of one run: the numerical half of the pipeline.

:func:`analyze_cells` computes one :class:`~sentdep.report.DependenceCell`
per (aspect, score kind, ticker) from the daily series. A correlation is
flagged significant when its magnitude strictly exceeds
``pearson_threshold`` (default 0.4), the paper's rule.

This module and the statistics it calls import numpy when they load, and
take the two special functions they need from SciPy's compiled ufunc
module when they first compute, so :func:`sentdep.pipeline.stage_analyze`
imports it when it runs (see :func:`sentdep.pipeline._import_analysis`),
and the text stages and the CLI start without the numerical stack.

The cells of one aspect, its four kinds against every ticker, are
computed together (:func:`kind_cells`), from the sentiment's calendar
arrays and the run's price matrix, one row of closes per ticker
(:func:`price_matrix`). Both come from the calendar rows that
:func:`sentdep.prepare.prepare_analysis` makes without numpy, so this
module never sees a date. One array operation gives every ticker's mask
of lagged pairs and its mask of common days, and the tickers with equal
masks form a group. A group takes its closes at most one stack's rows at
a time, so that no large group is held whole (see :func:`_closes`). The
sentiment's parts are computed once per group: its Pearson side, its
entropy and, for the reverse Granger direction, its restricted
regression. The entropies and, for the forward direction, the restricted
regressions of the closes are kept per ticker and set of days for the
four kinds of one aspect, which often share their days.

The rest is stacked across tickers and kinds (see :class:`_Stacks`): the
rows of all groups of the aspect whose series have the same length share
stacked calls, each of at most :data:`STACK_ITEMS` values (or
:data:`MIN_STACK_ROWS` rows), made as soon as a stack is full. For r,
one call of :func:`~sentdep.pearson.centered_rows` gives the sides of the
sentiments and closes and one of :func:`~sentdep.pearson.correlations`
the cross-sums, each a row-wise product and sum. For Granger, one
stacked least-squares fit (:func:`~sentdep.granger.restricted_fits`)
makes the restricted regressions not yet made, and one
(:func:`~sentdep.granger.f_statistics`) the unrestricted ones. Only the
joint entropy is computed cell by cell. A row of a stacked call is the
same float operations on the same values as the one-row case, whatever
else the stack holds, so each cell equals, bit for bit, the cell
computed on its own from :func:`~sentdep.pearson.pearson` and
:func:`~sentdep.granger.granger_causes`.

A statistic that cannot be computed sets its group's reason code, the
class name of the SentdepError met. Each cell's three statistic groups
(r, u and Granger) get their values or their reason. A failure of the
sentiment's part sets the reason of every cell of its group. A row of a
stacked call that fails reads NaN and sets the reason of its cell
alone, and a close's restricted fit that failed is kept that way (an
entropy, as its error's class; see :func:`_part`) for every later kind
that requests it. So the reason is that of the first error met: the
sentiment's part, then the close's, then the pair's statistic.
Ĥ(sentiment) comes before Ĥ(close), and the effective-sample check
before any fit.

No cell depends on another aspect's cells, and the parts of the closes
are dropped when the next aspect begins. So :func:`analyze_cells` over
any subset of the aspects returns exactly those aspects' cells. It
iterates its aspects once, one after the other, so
:func:`sentdep.pipeline.stage_analyze` calls it in two processes, each
given a generator that claims the next aspects from one shared pipe only
when the last are done, and merges the cells by aspect.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import AlignedPairs, ScoreKind
from .entropy import marginal_entropy, uncertainty_coefficient
from .errors import DegenerateSeries, RankDeficient, SentdepError
from .granger import (
    RestrictedFit,
    check_effective_sample,
    f_statistics,
    restricted_fits,
    upper_tail,
)
from .pearson import centered_rows, correlations
from .report import DependenceCell

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

#: Values a stacked call holds at most (128 KiB of float64 per array),
#: unless that is fewer than ``MIN_STACK_ROWS`` rows; so the memory of the
#: analysis stays flat at any number of tickers.
STACK_ITEMS = 1 << 14

#: Rows a stacked call may always hold, so that long series still share
#: calls (eight Granger designs of ten years of days fill 640 KiB).
MIN_STACK_ROWS = 8


def _part(parts: dict, key, compute: Callable[[], object]):
    """``parts[key]``, computed as ``compute()`` on the first request.

    When ``compute`` raises a SentdepError, its class is kept under
    ``key`` and raised again on every later request. The class is kept
    rather than the exception, whose traceback would keep the frames of
    the computation, and with them their arrays, alive.
    """
    if key not in parts:
        try:
            parts[key] = compute()
        except SentdepError as exc:
            parts[key] = type(exc)
            raise
    part = parts[key]
    if isinstance(part, type):
        raise part()
    return part


def _mask_groups(masks: np.ndarray) -> dict[bytes, list[int]]:
    """The row indices of a boolean matrix, grouped by the row's value."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(masks):
        groups.setdefault(row.tobytes(), []).append(i)
    return groups


def price_matrix(closes: Sequence[Sequence[float]]) -> np.ndarray:
    """The tickers' calendar rows of closes (see :func:`~sentdep.core.on_calendar`),
    stacked into one float64 matrix, one row per ticker."""
    return np.array(closes, dtype=float)


class _Stacks:
    """Rows gathered by the length of their series into stacks for one
    stacked call each (``call(rows)``): of at most :data:`STACK_ITEMS`
    values when a row of length n holds ``width(n)`` of them, or of
    :data:`MIN_STACK_ROWS` rows if that is more. :meth:`add` makes the
    call of each stack as soon as it is full, so that the rows of a long
    group do not pile up, and :meth:`flush` makes the calls of the rest."""

    def __init__(self, width: Callable[[int], int], call: Callable[[list], None]):
        self.width, self.call, self.pending = width, call, {}

    def most(self, length: int) -> int:
        """The rows of one stack of series of ``length``."""
        return max(MIN_STACK_ROWS, STACK_ITEMS // max(1, self.width(length)))

    def add(self, length: int, rows: Iterable) -> None:
        pending = self.pending.setdefault(length, [])
        pending.extend(rows)
        most = self.most(length)
        while len(pending) >= most:
            self.call(pending[:most])
            del pending[:most]

    def flush(self, length: int | None = None) -> None:
        """Make the calls of the rows left of ``length``, or of every length."""
        for key in list(self.pending) if length is None else [length]:
            rows = self.pending.pop(key, None)
            if rows:
                self.call(rows)


def _closes(closes: np.ndarray, group: list[int], mask: np.ndarray, most: int):
    """(members, their rows of ``closes`` on the days of ``mask``) for
    consecutive slices of at most ``most`` of ``group``'s members, so that
    no large group is held whole."""
    for j in range(0, len(group), most):
        members = group[j:j + most]
        yield members, closes[members][:, mask]


def _lagged_statistics(grid: list[tuple[list[dict], np.ndarray]], closes: np.ndarray,
                       config: PipelineConfig, close_parts: dict, tally: Counter) -> None:
    """r and u of each cell of ``grid``, (the cells of a kind, its
    sentiment) for each kind: the close on trading day t against the
    sentiment ``config.lag`` trading days earlier, on the days both hold.

    The sides of r of each group's sentiment and of its closes, and the
    cross-sums, share stacked calls with all groups of every kind whose
    series have the same length (see :class:`_Stacks`). Ĥ(sentiment) is
    estimated before Ĥ(close): both have the same n, so a failure of
    either gives the same reason code, and a sentiment that fails spares
    the entropy of every close it meets.
    """
    lag, k = config.lag, config.entropy_k

    def entropy(values):
        tally["entropies"] += 1
        return marginal_entropy(values, k)

    def correlate(rows):
        """r of the cell of each row (cell, group, close); a row (None,
        group, sentiment) gives the side of its group's sentiment."""
        try:
            dvs, ss = centered_rows(np.array([values for *_, values in rows]))
        except SentdepError as exc:
            for cell, *_ in rows:
                if cell is not None:
                    cell["r_reason"] = type(exc).__name__
            return
        live = []
        for (cell, group, _), dv, sv in zip(rows, dvs, ss.tolist()):
            if cell is None:
                # a copy, so that the stack's other rows can be freed
                x_sides[group] = dv.copy(), sv
            elif math.isnan(x_sides[group][1]) or math.isnan(sv):
                cell["r_reason"] = DegenerateSeries.__name__
            else:
                live.append((cell, dv, sv, *x_sides[group]))
        if live:
            cells_, *sides = zip(*live)
            for cell, r in zip(cells_, correlations(*map(np.array, sides)).tolist()):
                cell.update(r=r, r_significant=abs(r) > config.pearson_threshold)

    # The side of each group's sentiment, by (kind, days).
    x_sides: dict[tuple, tuple] = {}
    pearson = _Stacks(lambda n: n, correlate)
    y_lagged = closes[:, lag:]
    for g, (cells, x) in enumerate(grid):
        x_lagged = x[:-lag]
        kept = np.isfinite(x_lagged) & np.isfinite(y_lagged)
        for days, group in _mask_groups(kept).items():
            mask = kept[group[0]]
            xs = x_lagged[mask]
            pearson.add(len(xs), [(None, (g, days), xs)])
            x_parts: dict = {}
            for members, ys in _closes(y_lagged, group, mask, pearson.most(len(xs))):
                pearson.add(len(xs), [(cells[i], (g, days), y) for i, y in zip(members, ys)])
                for i, y in zip(members, ys):
                    cell = cells[i]
                    cell["n"] = xs.shape[0]
                    try:
                        h_x = _part(x_parts, "h", lambda: entropy(xs))
                        h_y = _part(close_parts, ("h", i, days), lambda: entropy(y))
                        tally["entropies"] += 1
                        uc = uncertainty_coefficient(
                            AlignedPairs(np.column_stack([xs, y]), lag), k, h_y, h_x)
                        cell.update(u=uc.u, u_valid=uc.valid, u_mi=uc.mi)
                    except SentdepError as exc:
                        cell["u_reason"] = type(exc).__name__
    pearson.flush()


def _granger_statistics(grid: list[tuple[list[dict], np.ndarray]], closes: np.ndarray,
                        config: PipelineConfig, close_parts: dict, tally: Counter) -> None:
    """The Granger test of each cell of ``grid`` (see
    :func:`_lagged_statistics`), on the trading days both series hold,
    with the gaps closed up.

    A cell's restricted fit is its close's, kept in ``close_parts`` by
    (ticker, days), or in reverse its mask group's sentiment's. A stack
    needs only designs of one shape, so the fits of all groups of every
    kind whose series have the same length share their stacked calls (see
    :class:`_Stacks`): those of the restricted fits not yet made, and
    those of the unrestricted fits, each made once the restricted fits of
    its length are. The p-values of all cells come from one evaluation of
    the F upper tail.
    """
    lag = config.granger_lag
    parts = {} if config.granger_reverse else close_parts
    tested = []

    def counted(rows: int) -> None:
        tally["fits"] += rows
        tally["fit_stacks"] += 1

    def fit(rows):
        counted(len(rows))
        keys, series = zip(*rows)
        parts.update(zip(keys, zip(*restricted_fits(np.array(series), lag))))

    def test(rows):
        restricted.flush(len(rows[0][2]))
        live = []
        for cell, key, cross in rows:
            if math.isnan(parts[key][1]):
                cell["granger_reason"] = RankDeficient.__name__
            else:
                live.append((cell, parts[key], cross))
        if not live:
            return
        counted(len(live))
        tested_cells, fits, crosses = zip(*live)
        f_stats, exact, df_den = f_statistics(RestrictedFit(*map(np.array, zip(*fits))),
                                              np.array(crosses), lag)
        for cell, f_stat, perfect in zip(tested_cells, f_stats.tolist(), exact.tolist()):
            if math.isnan(f_stat):
                cell["granger_reason"] = RankDeficient.__name__
            else:
                tested.append((cell, f_stat, perfect, df_den))

    # A row holds its design's values and its response's.
    restricted = _Stacks(lambda n: (2 + lag) * (n - lag), fit)
    unrestricted = _Stacks(lambda n: (2 + 2 * lag) * (n - lag), test)
    for g, (cells, x) in enumerate(grid):
        common = np.isfinite(x) & np.isfinite(closes)
        for days, group in _mask_groups(common).items():
            mask = common[group[0]]
            xs = np.diff(x[mask]) if config.granger_difference else x[mask]
            try:
                check_effective_sample(len(xs), lag)
            except SentdepError as exc:
                for i in group:
                    cells[i]["granger_reason"] = type(exc).__name__
                continue
            if config.granger_reverse:
                restricted.add(len(xs), [((g, days), xs)])
            for members, ys in _closes(closes, group, mask, unrestricted.most(len(xs))):
                if config.granger_difference:
                    ys = np.diff(ys)
                if config.granger_reverse:
                    unrestricted.add(len(xs), [(cells[i], (g, days), y)
                                               for i, y in zip(members, ys)])
                    continue
                keys = [("g", i, days) for i in members]
                fresh = [(key, y) for key, y in zip(keys, ys) if key not in parts]
                # a fit queued by one kind is not queued again by the next
                parts.update((key, None) for key, _ in fresh)
                restricted.add(len(xs), fresh)
                unrestricted.add(len(xs), [(cells[i], key, xs) for i, key in zip(members, keys)])
    unrestricted.flush()
    if not tested:
        return
    tested_cells, f_stats, exact, df_dens = zip(*tested)
    p_values = upper_tail(lag, np.array(df_dens), np.array(f_stats)).tolist()
    for cell, f_stat, p_value, perfect in zip(tested_cells, f_stats, p_values, exact):
        cell.update(granger_f=f_stat, granger_p=p_value, granger_perfect_fit=perfect,
                    granger_causal=p_value < config.granger_alpha)


def kind_cells(
    aspect: str,
    series: Mapping[ScoreKind, np.ndarray],
    tickers: Sequence[str],
    closes: np.ndarray,
    config: PipelineConfig,
    close_parts: dict | None = None,
    tally: Counter | None = None,
) -> list[DependenceCell]:
    """All three dependence statistics of (aspect, kind) against each ticker,
    for each kind of ``series``, in that nesting order.

    ``series`` holds the sentiment's calendar array of each kind (see
    :func:`~sentdep.core.on_calendar`) and ``closes`` is the price matrix,
    one row per name in ``tickers`` (see :func:`price_matrix`). The kinds
    share their stacked calls. Statistic failures never abort the run; the
    failing statistic is nulled with a reason code and the others still
    computed. Pearson and the uncertainty coefficient consume pre-lagged
    pairs; the Granger test consumes same-date pairs and applies its own
    lag internally. ``close_parts`` keeps the parts of the closes (see the
    module docstring), and ``tally`` counts the least-squares fits
    (``fits``), the stacked calls that made them (``fit_stacks``) and the
    entropy estimates (``entropies``) made here.
    """
    close_parts = {} if close_parts is None else close_parts
    tally = Counter() if tally is None else tally
    grid = [([dict(aspect=aspect, kind=kind, ticker=ticker, n=0) for ticker in tickers], x)
            for kind, x in series.items()]
    _lagged_statistics(grid, closes, config, close_parts, tally)
    _granger_statistics(grid, closes, config, close_parts, tally)
    return [DependenceCell(**cell) for cells, _ in grid for cell in cells]


def analyze_cells(
    config: PipelineConfig,
    aspects: Iterable[str],
    series: Mapping[tuple[str, ScoreKind], Sequence[float]],
    tickers: Sequence[str],
    closes: np.ndarray,
    tally: Counter | None = None,
) -> list[DependenceCell]:
    """One cell per (aspect x 4 kinds x ticker), in that nesting order.

    ``series`` holds the calendar row of each (aspect, kind) (see
    :func:`~sentdep.core.on_calendar`) and ``closes`` is the price matrix
    of ``tickers`` on the same calendar (see :func:`price_matrix`).
    ``aspects`` is iterated once, and the next aspect is taken only when
    the cells of the last are done. Each row is copied into a float64
    array; with ``absent_as_zero`` the missing days of the absolute kinds
    read 0. The four kinds of one aspect are computed together and share
    the parts of the closes (see :func:`kind_cells`), which are dropped
    when the next aspect begins. ``tally``, when given, counts the fits,
    stacked fit calls and entropy estimates made.
    """
    cells: list[DependenceCell] = []
    for aspect in aspects:
        kinds = {}
        for kind in ScoreKind:
            x = kinds[kind] = np.array(series[(aspect, kind)], dtype=float)
            if config.absent_as_zero and kind.is_absolute:
                x[np.isnan(x)] = 0.0
        cells += kind_cells(aspect, kinds, tickers, closes, config, tally=tally)
    return cells
