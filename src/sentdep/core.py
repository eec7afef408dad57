"""Domain types, trading calendar, and lag alignment.

Dates are plain ``datetime.date`` values interpreted as UTC calendar days.
A trading day is a date on which the exchange published a closing price;
the calendar is always supplied (parsed from price files or an explicit
list), never inferred from holiday rules. Readers return a daily series
as a date -> value dict; for analysis it becomes one float array indexed
by trading day, NaN marking a missing day, so a lag of L trading days is
a shift by L elements.

The text stages never touch those arrays, so numpy is imported only by
the functions that build or align them: a process that only reads,
labels and scores text does not load it. The defaults of the statistics
live here too, where the config table and the statistics both read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import EmptyAlignment

if TYPE_CHECKING:
    import numpy as np

#: Default neighbor order of the entropy estimates: a common bias/variance
#: compromise.
DEFAULT_K = 3

#: Largest supported neighbor order.
MAX_K = 20

#: Default significance level of the Granger F-test.
DEFAULT_ALPHA = 0.05

#: |r| must strictly exceed this to be called significant.
DEFAULT_THRESHOLD = 0.4


class PolarityLabel(Enum):
    """Three-way sentiment polarity of one aspect occurrence."""

    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


#: Position of each polarity in a ``[positive, negative, neutral]`` count.
COUNT_INDEX = {PolarityLabel.POSITIVE: 0, PolarityLabel.NEGATIVE: 1,
               PolarityLabel.NEUTRAL: 2}


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


def sorted_day_counts(
    cells: Mapping[tuple[str, date], Sequence[int]]
) -> list[AspectDayCount]:
    """``(aspect, day) -> [positive, negative, neutral]`` counts as
    AspectDayCount rows, sorted by (aspect, day)."""
    return [AspectDayCount(a, d, *c) for (a, d), c in sorted(cells.items())]


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

    def __repr__(self) -> str:
        return f"TradingCalendar({self._days[0]}..{self._days[-1]}, {len(self._days)} days)"


def on_calendar(values: Mapping[date, float], calendar: TradingCalendar) -> np.ndarray:
    """A daily series as a float64 array indexed by trading day.

    Element i holds the value on ``calendar.days[i]`` and NaN where the
    series has no observation; values on dates off the calendar are
    dropped.
    """
    import numpy as np

    out = np.full(len(calendar), np.nan)
    index = calendar._index
    for d, v in values.items():
        i = index.get(d)
        if i is not None:
            out[i] = v
    return out


@dataclass(frozen=True, eq=False)
class AlignedPairs:
    """Chronological (sentiment, price) pairs with the sentiment lagged.

    ``pairs`` is an (n, 2) float64 array (any sequence of pairs is
    converted); row i holds the sentiment observed ``lag_days`` trading
    days before the trading day of its price value. ``kept``, when set,
    is the boolean mask over the price days ``lag_days`` onwards of the
    calendar that marks the days the pairs come from.
    """

    pairs: np.ndarray
    lag_days: int
    kept: np.ndarray | None = None

    def __post_init__(self):
        import numpy as np

        pairs = np.asarray(self.pairs, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    def xs(self) -> np.ndarray:
        return self.pairs[:, 0]

    def ys(self) -> np.ndarray:
        return self.pairs[:, 1]


def align_lagged(x: np.ndarray, y: np.ndarray, lag: int = 1) -> AlignedPairs:
    """Pair each price with the sentiment ``lag`` trading days earlier.

    ``x`` and ``y`` are calendar arrays (see :func:`on_calendar`): the
    price on trading day t pairs with the sentiment on trading day t − lag,
    i.e. ``x[:-lag]`` with ``y[lag:]``, and pairs with either side missing
    are skipped (pairwise deletion). Output is in calendar order, with the
    mask of the days kept.
    Sentiment on non-trading days never reaches the array, so it is never
    consulted.

    Raises EmptyAlignment when no pair survives.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    import numpy as np

    xs, ys = x[:-lag], y[lag:]
    keep = np.isfinite(xs) & np.isfinite(ys)
    if not keep.any():
        raise EmptyAlignment(f"no (sentiment, price) pairs at lag {lag}")
    return AlignedPairs(pairs=np.column_stack([xs[keep], ys[keep]]), lag_days=lag,
                        kept=keep)


def paired_on_common_days(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same-date (sentiment, price) arrays over the trading days both cover.

    ``x`` and ``y`` are calendar arrays; the third array returned is the
    boolean calendar mask of those common days. This is the input shape
    for the Granger test, whose own lag terms supply the time shift;
    contrast with :func:`align_lagged`, which bakes the shift into the
    pairs for the symmetric statistics.
    """
    import numpy as np

    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep], keep
