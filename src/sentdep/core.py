"""Domain types, trading calendar, and lag alignment.

Dates are plain ``datetime.date`` values interpreted as UTC calendar days.
A trading day is a date on which the exchange published a closing price;
the calendar is always supplied (parsed from price files or an explicit
list), never inferred from holiday rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Iterable, Mapping

from .errors import EmptyAlignment, InsufficientHistory, NotTradingDay


class PolarityLabel(Enum):
    """Three-way sentiment polarity of one aspect occurrence."""

    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"

    @classmethod
    def from_string(cls, value: str) -> "PolarityLabel":
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"unknown polarity {value!r}") from None


class ScoreKind(Enum):
    """The four daily aspect sentiment score kinds.

    Absolute kinds are label counts; normalised kinds divide the count by
    the day's total (positive + negative + neutral) labels for the aspect.
    The short codes are used in file names and CSV columns.
    """

    ABS_POSITIVE = "fp"
    ABS_NEGATIVE = "fn"
    NORM_POSITIVE = "nfp"
    NORM_NEGATIVE = "nfn"

    @property
    def code(self) -> str:
        return self.value

    @property
    def is_absolute(self) -> bool:
        return self in (ScoreKind.ABS_POSITIVE, ScoreKind.ABS_NEGATIVE)

    @classmethod
    def from_code(cls, code: str) -> "ScoreKind":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown score kind {code!r}") from None


class TradingCalendar:
    """Strictly increasing, non-empty sequence of trading days."""

    def __init__(self, days: Iterable[date]):
        days = tuple(days)
        if not days:
            raise ValueError("trading calendar must not be empty")
        for a, b in zip(days, days[1:]):
            if a >= b:
                raise ValueError(f"calendar days must strictly increase ({a} >= {b})")
        self._days = days
        self._index = {d: i for i, d in enumerate(days)}

    @classmethod
    def from_dates(cls, days: Iterable[date]) -> "TradingCalendar":
        """Build a calendar from an arbitrary iterable (deduplicated, sorted)."""
        return cls(sorted(set(days)))

    @property
    def days(self) -> tuple[date, ...]:
        return self._days

    def __len__(self) -> int:
        return len(self._days)

    def __contains__(self, d: date) -> bool:
        return d in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, TradingCalendar) and self._days == other._days

    def __repr__(self) -> str:
        return f"TradingCalendar({self._days[0]}..{self._days[-1]}, {len(self._days)} days)"

    def previous(self, d: date, k: int = 1) -> date:
        """Return the k-th trading day strictly before ``d``.

        Raises NotTradingDay if ``d`` is not on the calendar and
        InsufficientHistory if fewer than ``k`` predecessors exist.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        i = self._index.get(d)
        if i is None:
            raise NotTradingDay(f"{d} is not a trading day")
        if i < k:
            raise InsufficientHistory(f"{d} has only {i} earlier trading days, need {k}")
        return self._days[i - k]


def _validate_series_value(kind: ScoreKind, d: date, v: float) -> None:
    if kind.is_absolute:
        if v < 0 or v != int(v):
            raise ValueError(f"absolute score at {d} must be a non-negative integer, got {v}")
    else:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"normalised score at {d} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class SentimentSeries:
    """Date-indexed daily sentiment scores for one (aspect, kind).

    Missing dates mean "no observation", never zero.
    """

    aspect: str
    kind: ScoreKind
    values: Mapping[date, float]

    def __post_init__(self):
        for d, v in self.values.items():
            _validate_series_value(self.kind, d, v)

    def dates(self) -> list[date]:
        return sorted(self.values)


@dataclass(frozen=True)
class PriceSeries:
    """Date-indexed daily closing prices for one ticker."""

    ticker: str
    values: Mapping[date, float]

    def __post_init__(self):
        if not self.ticker:
            raise ValueError("ticker must be non-empty")
        for d, v in self.values.items():
            if not v > 0:
                raise ValueError(f"closing price at {d} must be positive, got {v}")

    def dates(self) -> list[date]:
        return sorted(self.values)


@dataclass(frozen=True)
class AlignedPairs:
    """Chronological (sentiment, price) pairs with the sentiment lagged.

    Pair i holds the sentiment observed ``lag_days`` trading days before
    the trading day of its price value.
    """

    pairs: tuple[tuple[float, float], ...]
    lag_days: int

    @property
    def n(self) -> int:
        return len(self.pairs)

    def xs(self) -> list[float]:
        return [p[0] for p in self.pairs]

    def ys(self) -> list[float]:
        return [p[1] for p in self.pairs]


def align_lagged(
    x: SentimentSeries, y: PriceSeries, cal: TradingCalendar, lag: int = 1
) -> AlignedPairs:
    """Pair each price with the sentiment ``lag`` trading days earlier.

    For every trading day t carrying a price, emits (x[t - lag], y[t]) when
    the lagged sentiment exists; pairs with either side missing are skipped
    (pairwise deletion). Output is sorted by the price date. Sentiment
    observations on non-trading days are never consulted, because the
    lagged lookup date is itself a trading day.

    Raises EmptyAlignment when no pair survives.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    pairs: list[tuple[float, float]] = []
    for t in sorted(y.values):
        if t not in cal:
            continue
        try:
            t_prev = cal.previous(t, lag)
        except InsufficientHistory:
            continue
        xv = x.values.get(t_prev)
        if xv is None:
            continue
        pairs.append((float(xv), float(y.values[t])))
    if not pairs:
        raise EmptyAlignment(
            f"no ({x.aspect}/{x.kind.code}, {y.ticker}) pairs at lag {lag}"
        )
    return AlignedPairs(pairs=tuple(pairs), lag_days=lag)


def paired_on_common_days(
    x: SentimentSeries, y: PriceSeries, cal: TradingCalendar
) -> tuple[list[float], list[float]]:
    """Same-date (sentiment, price) arrays over the trading days both cover.

    This is the input shape for the Granger test, whose own lag terms
    supply the time shift; contrast with :func:`align_lagged`, which bakes
    the shift into the pairs for the symmetric statistics.
    """
    xs: list[float] = []
    ys: list[float] = []
    for t in sorted(y.values):
        if t not in cal:
            continue
        xv = x.values.get(t)
        if xv is None:
            continue
        xs.append(float(xv))
        ys.append(float(y.values[t]))
    return xs, ys
