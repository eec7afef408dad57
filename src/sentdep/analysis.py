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

The cells of one (aspect, kind) are computed together (:func:`kind_cells`),
from the sentiment's calendar array and the run's price matrix, one row of
closes per ticker (:func:`price_matrix`). Both come from the calendar
rows that :func:`sentdep.prepare.prepare_analysis` makes without numpy,
so this module never sees a date. One array operation gives every
ticker's mask of lagged pairs and its mask of common days, and the tickers
with equal masks form a group. A group computes the parts that depend on
the sentiment alone once: its Pearson deviations, its entropy and, for the
reverse Granger direction, its restricted regression. Each cell keeps only
what is its own: the cross-sum of r, the joint entropy and one
unrestricted regression on a design filled in place. The parts of a
ticker's closes (its Pearson deviations, its entropy and, for the forward
direction, its restricted regression) are kept per set of days for the
four kinds of one aspect, which often share their days. Every part is
the same float operations on the same values as in a cell computed on
its own, so the cells are too, bit for bit.

A statistic that cannot be computed raises a SentdepError. Each cell's
three statistic groups (r, u and Granger) are each one ``try`` block,
which sets either the group's values or its reason code, the error's
class name. A part that fails keeps its error's class and raises it
again for every cell that requests it (see :func:`_part`), so the reason
is that of the first error met: the sentiment's part, then the close's,
then the pair's statistic. Ĥ(sentiment) comes before Ĥ(close), and the
effective-sample check before any fit.

No cell depends on another aspect's cells, and the parts of the closes
are dropped when the next aspect begins. So :func:`analyze_cells` over
any subset of the aspects returns exactly those aspects' cells. It
iterates its aspects once, one after the other, so
:func:`sentdep.pipeline.stage_analyze` calls it in two processes, each
given a generator that claims the next aspects from one shared pipe only
when the last are done, and merges the cells by aspect.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import AlignedPairs, ScoreKind
from .entropy import marginal_entropy, uncertainty_coefficient
from .errors import SentdepError
from .granger import (
    check_effective_sample,
    f_statistic,
    lagged_design,
    restricted_fit,
    upper_tail,
)
from .pearson import centered, pearson_of_sides
from .report import DependenceCell

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


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


def _lagged_statistics(cells: list[dict], x: np.ndarray, closes: np.ndarray,
                       config: PipelineConfig, close_parts: dict, tally: Counter) -> None:
    """r and u of each cell: the close on trading day t against the
    sentiment ``config.lag`` trading days earlier, on the days both hold.

    Ĥ(sentiment) is estimated before Ĥ(close): both have the same n, so a
    failure of either gives the same reason code, and a sentiment that
    fails spares the entropy of every close it meets.
    """
    lag, k = config.lag, config.entropy_k

    def entropy(values):
        tally["entropies"] += 1
        return marginal_entropy(values, k)

    x_lagged, y_lagged = x[:-lag], closes[:, lag:]
    kept = np.isfinite(x_lagged) & np.isfinite(y_lagged)
    for days, members in _mask_groups(kept).items():
        mask = kept[members[0]]
        xs = x_lagged[mask]
        x_parts: dict = {}
        for i in members:
            cell = cells[i]
            cell["n"] = xs.shape[0]
            ys = y_lagged[i][mask]
            try:
                r = pearson_of_sides(_part(x_parts, "r", lambda: centered(xs)),
                                     _part(close_parts, ("r", i, days), lambda: centered(ys)))
                cell.update(r=r, r_significant=abs(r) > config.pearson_threshold)
            except SentdepError as exc:
                cell["r_reason"] = type(exc).__name__
            try:
                h_x = _part(x_parts, "h", lambda: entropy(xs))
                h_y = _part(close_parts, ("h", i, days), lambda: entropy(ys))
                tally["entropies"] += 1
                uc = uncertainty_coefficient(AlignedPairs(np.column_stack([xs, ys]), lag),
                                             k, h_y, h_x)
                cell.update(u=uc.u, u_valid=uc.valid, u_mi=uc.mi)
            except SentdepError as exc:
                cell["u_reason"] = type(exc).__name__


def _granger_statistics(cells: list[dict], x: np.ndarray, closes: np.ndarray,
                        config: PipelineConfig, close_parts: dict, tally: Counter) -> None:
    """The Granger test of each cell, on the trading days both series hold,
    with the gaps closed up; the p-values of all cells come from one
    evaluation of the F upper tail."""
    lag, difference = config.granger_lag, config.granger_difference

    def series(values, mask):
        return np.diff(values[mask]) if difference else values[mask]

    def checked_design(n):
        check_effective_sample(n, lag)
        return lagged_design(n - lag, lag)

    def restricted(response):
        tally["fits"] += 1
        return restricted_fit(response, lag)

    tested = []
    common = np.isfinite(x) & np.isfinite(closes)
    for days, members in _mask_groups(common).items():
        mask = common[members[0]]
        xs = series(x, mask)
        x_parts: dict = {}
        for i in members:
            ys = series(closes[i], mask)
            try:
                design = _part(x_parts, "design", lambda: checked_design(xs.shape[0]))
                if config.granger_reverse:
                    fit, cross = _part(x_parts, "g", lambda: restricted(xs)), ys
                else:
                    fit, cross = _part(close_parts, ("g", i, days), lambda: restricted(ys)), xs
                tally["fits"] += 1
                tested.append((cells[i], *f_statistic(fit, cross, design)))
            except SentdepError as exc:
                cells[i]["granger_reason"] = type(exc).__name__
    if not tested:
        return
    tested_cells, f_stats, exact, df_dens = zip(*tested)
    p_values = upper_tail(lag, np.array(df_dens), np.array(f_stats)).tolist()
    for cell, f_stat, p_value, perfect in zip(tested_cells, f_stats, p_values, exact):
        cell.update(granger_f=f_stat, granger_p=p_value, granger_perfect_fit=perfect,
                    granger_causal=p_value < config.granger_alpha)


def kind_cells(
    aspect: str,
    kind: ScoreKind,
    x: np.ndarray,
    tickers: Sequence[str],
    closes: np.ndarray,
    config: PipelineConfig,
    close_parts: dict | None = None,
    tally: Counter | None = None,
) -> list[DependenceCell]:
    """All three dependence statistics of (aspect, kind) against each ticker.

    ``x`` is the sentiment's calendar array (see
    :func:`~sentdep.core.on_calendar`) and ``closes`` the price matrix,
    one row per name in ``tickers`` (see :func:`price_matrix`). Statistic
    failures never abort the run; the failing statistic is nulled with a
    reason code and the others still computed. Pearson and the
    uncertainty coefficient consume pre-lagged pairs; the Granger test
    consumes same-date pairs and applies its own lag internally.
    ``close_parts`` keeps the parts of the closes (see the module
    docstring) for other kinds of the same aspect, and ``tally`` counts
    the least-squares fits (``fits``) and entropy estimates
    (``entropies``) made here.
    """
    close_parts = {} if close_parts is None else close_parts
    tally = Counter() if tally is None else tally
    cells = [dict(aspect=aspect, kind=kind, ticker=ticker, n=0) for ticker in tickers]
    _lagged_statistics(cells, x, closes, config, close_parts, tally)
    _granger_statistics(cells, x, closes, config, close_parts, tally)
    return [DependenceCell(**cell) for cell in cells]


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
    read 0. The four kinds of one aspect share the parts of the closes
    (see :func:`kind_cells`), which are dropped when the next aspect
    begins. ``tally``, when given, counts the fits and entropy estimates
    made.
    """
    cells: list[DependenceCell] = []
    for aspect in aspects:
        close_parts: dict = {}
        for kind in ScoreKind:
            x = np.array(series[(aspect, kind)], dtype=float)
            if config.absent_as_zero and kind.is_absolute:
                x[np.isnan(x)] = 0.0
            cells += kind_cells(aspect, kind, x, tickers, closes, config, close_parts, tally)
    return cells
