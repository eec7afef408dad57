"""The dependence cells of one run: the numerical half of the pipeline.

:func:`analyze_cells` computes one :class:`~sentdep.report.DependenceCell`
per (aspect, score kind, ticker) from the daily series. A correlation is
flagged significant when its magnitude strictly exceeds
``pearson_threshold`` (default 0.4), the paper's rule.

This module and the statistics it calls import numpy when they load, so
:func:`sentdep.pipeline.stage_analyze` imports it when it runs, and the
text stages and the CLI start without the numerical stack.

No cell depends on another aspect's cells, and the one-series parts that
cells share (:class:`SeriesParts`) are kept per aspect. So
:func:`analyze_cells` over any subset of the aspects returns exactly
those aspects' cells. It iterates its aspects once, one after the other,
so :func:`sentdep.pipeline.stage_analyze` calls it in two processes,
each given a generator that claims the next aspects from one shared pipe
only when the last are done, and merges the cells by aspect.
"""

from __future__ import annotations

from datetime import date
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from .core import ScoreKind, TradingCalendar, align_lagged, on_calendar, paired_on_common_days
from .entropy import marginal_entropy, uncertainty_coefficient
from .errors import EmptyAlignment, InsufficientData, SentdepError
from .granger import granger_causes, restricted_fit
from .pearson import centered, pearson_of_sides
from .report import DependenceCell

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


def _failure_reason(exc: SentdepError) -> str:
    """Reason code stored in null cells: the failure's name.

    An empty lag alignment is just the zero-observation flavor of too few
    observations, so it shares the InsufficientData code. A series part
    that failed before fails again with the code it stored.
    """
    if isinstance(exc, _PartFailed):
        return exc.reason
    if isinstance(exc, (EmptyAlignment, InsufficientData)):
        return "InsufficientData"
    return type(exc).__name__


class _PartFailed(SentdepError):
    """A series part whose computation failed earlier, with its reason code."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class SeriesParts:
    """The parts of the cell statistics that depend on one series only.

    Within one aspect a ticker's closes meet every sentiment array, and a
    sentiment array meets every ticker's closes. A cell's statistics keep
    only the days where both sides are observed, so a part such as a
    series' entropy or its Pearson deviations holds for every cell that
    keeps the same days of that series. :meth:`get` computes each part
    once per key: the part's name, the series' name and the mask of the
    days kept. A part that fails is stored as its reason code, which
    later lookups raise again; an exception object would keep the frames
    of its traceback, and with them their arrays, alive.
    """

    def __init__(self) -> None:
        self._parts: dict[tuple, object] = {}

    def get(self, key: tuple, compute: Callable, *args):
        """The part stored under ``key``, or ``compute(*args)`` stored there."""
        part = self._parts.get(key)
        if part is None:
            try:
                part = compute(*args)
            except SentdepError as exc:
                self._parts[key] = _failure_reason(exc)
                raise
            self._parts[key] = part
        elif isinstance(part, str):
            raise _PartFailed(part)
        return part


def compute_cell(
    aspect: str,
    kind: ScoreKind,
    ticker: str,
    sentiment: np.ndarray,
    price: np.ndarray,
    config: PipelineConfig,
    parts: SeriesParts,
) -> DependenceCell:
    """All three dependence statistics for one (aspect, kind, ticker).

    ``sentiment`` and ``price`` are calendar arrays (see
    :func:`~sentdep.core.on_calendar`). Statistic failures never abort the
    run; the failing statistic is nulled with a reason code and the others
    still computed. The Pearson and uncertainty statistics consume
    pre-lagged pairs; the Granger test consumes same-date pairs and
    applies its own lag internally. ``parts`` holds the one-series parts
    of the statistics (see :class:`SeriesParts`) that this cell shares
    with the other cells of the same config; each part names its series
    by ``ticker`` or by ``(aspect, kind)``.
    """
    sentiment_name = (aspect, kind)
    cell = dict(aspect=aspect, kind=kind, ticker=ticker, n=0)
    aligned = None
    try:
        aligned = align_lagged(sentiment, price, config.lag)
        cell["n"] = aligned.n
    except EmptyAlignment as exc:
        reason = _failure_reason(exc)
        cell["r_reason"] = reason
        cell["u_reason"] = reason

    if aligned is not None:
        kept = aligned.kept.tobytes()
        xs, ys = aligned.xs(), aligned.ys()
        try:
            sides = (parts.get(("r", sentiment_name, kept), centered, xs),
                     parts.get(("r", ticker, kept), centered, ys))
            r = pearson_of_sides(*sides)
            cell["r"] = r
            cell["r_significant"] = abs(r) > config.pearson_threshold
        except SentdepError as exc:
            cell["r_reason"] = _failure_reason(exc)
        try:
            k = config.entropy_k
            h_y = parts.get(("h", ticker, kept), marginal_entropy, ys, k)
            h_x = parts.get(("h", sentiment_name, kept), marginal_entropy, xs, k)
            uc = uncertainty_coefficient(aligned, k, h_y, h_x)
            cell["u"] = uc.u
            cell["u_valid"] = uc.valid
            cell["u_mi"] = uc.mi
        except SentdepError as exc:
            cell["u_reason"] = _failure_reason(exc)

    try:
        xs, ys, common = paired_on_common_days(sentiment, price)
        if config.granger_difference:
            xs, ys = np.diff(xs), np.diff(ys)
        response_name = ticker
        if config.granger_reverse:
            xs, ys = ys, xs
            response_name = sentiment_name
        restricted = partial(parts.get, ("granger", response_name, common.tobytes()),
                             restricted_fit)
        g = granger_causes(xs, ys, lag=config.granger_lag, alpha=config.granger_alpha,
                           fit_restricted=restricted)
        cell["granger_f"] = g.f_stat
        cell["granger_p"] = g.p_value
        cell["granger_causal"] = g.causal
        cell["granger_perfect_fit"] = g.perfect_fit
    except SentdepError as exc:
        cell["granger_reason"] = _failure_reason(exc)
    return DependenceCell(**cell)


def analyze_cells(
    config: PipelineConfig,
    aspects: Iterable[str],
    series: Mapping[tuple[str, ScoreKind], Mapping[date, float]],
    prices: Mapping[str, Mapping[date, float]],
    calendar: TradingCalendar,
) -> list[DependenceCell]:
    """One cell per (aspect x 4 kinds x ticker), in that nesting order.

    ``aspects`` is iterated once, and the next aspect is taken only when
    the cells of the last are done. Every series is put on the calendar
    once; with ``absent_as_zero`` the missing days of the absolute kinds
    read 0. The cells of one aspect share their one-series parts (see
    :class:`SeriesParts`), which are dropped when the next aspect begins.
    """
    price_arrays = {t: on_calendar(p, calendar) for t, p in prices.items()}
    cells: list[DependenceCell] = []
    for aspect in aspects:
        parts = SeriesParts()
        for kind in ScoreKind:
            x = on_calendar(series.get((aspect, kind), {}), calendar)
            if config.absent_as_zero and kind.is_absolute:
                x[np.isnan(x)] = 0.0
            for ticker, y in price_arrays.items():
                cells.append(compute_cell(aspect, kind, ticker, x, y, config, parts))
    return cells
