"""Domain types and the trading calendar.

Dates are plain ``datetime.date`` values interpreted as UTC calendar days.
A trading day is a date on which the exchange published a closing price;
the calendar is always supplied (parsed from price files or an explicit
list), never inferred from holiday rules, and holds each listed day once,
in increasing order. Readers return a daily series as a date -> value
dict; for analysis it becomes one row of floats indexed by trading day
(:func:`on_calendar`), NaN marking a missing day, so a lag of L trading
days is a shift by L elements.

Nothing here imports numpy when it loads: the rows are ``array('d')``,
so the process that reads the inputs can put them on the calendar
without the numerical stack, and the analysis wraps them in arrays. The
defaults that the config table shares with the readers, the labeler and
the statistics live here too, so each is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

if TYPE_CHECKING:
    from array import array

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

#: Tokens inspected on each side of an aspect occurrence by the labeler.
DEFAULT_WINDOW = 5

#: Fraction of malformed tweet lines tolerated before the file is rejected.
DEFAULT_MALFORMED_CAP = 0.10

#: Tweets a token must appear in to be kept as a keyword.
DEFAULT_MIN_KEYWORD_COUNT = 100

#: The one element of a calendar row before its observations are placed.
_NAN = (float("nan"),)


class PolarityLabel(Enum):
    """Three-way sentiment polarity of one aspect occurrence."""

    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


#: Position of each polarity in a ``[positive, negative, neutral]`` count.
COUNT_INDEX = {PolarityLabel.POSITIVE: 0, PolarityLabel.NEGATIVE: 1,
               PolarityLabel.NEUTRAL: 2}


class AspectDayCount(NamedTuple):
    """Polarity label counts for one aspect on one day, as
    :func:`sentdep.scores.aggregate_daily` returns them.

    The readers and the score writer carry the same counts as one
    ``(aspect, day) -> [positive, negative, neutral]`` dict instead.
    """

    aspect: str
    day: date
    positive: int
    negative: int
    neutral: int

    @property
    def total(self) -> int:
        return self.positive + self.negative + self.neutral


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


class TradingCalendar:
    """The distinct trading days of ``days``, in increasing order."""

    def __init__(self, days: Iterable[date]):
        self._days = tuple(sorted(set(days)))
        self._index = {d: i for i, d in enumerate(self._days)}

    @property
    def days(self) -> tuple[date, ...]:
        return self._days

    def __len__(self) -> int:
        return len(self._days)

    def __repr__(self) -> str:
        return f"TradingCalendar({self._days[0]}..{self._days[-1]}, {len(self._days)} days)"


def on_calendar(values: Mapping[date, float], calendar: TradingCalendar) -> array:
    """A daily series as a row of floats indexed by trading day.

    Element i holds the value on ``calendar.days[i]`` and NaN where the
    series has no observation; values on dates off the calendar are
    dropped. The row is an ``array('d')``: it needs no numpy, pickles as
    its raw bytes, and the analysis wraps it in a float64 array without
    changing a bit.
    """
    from array import array

    out = array("d", _NAN) * len(calendar)
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
    days before the trading day of its price value.
    """

    pairs: np.ndarray
    lag_days: int

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


class AnalysisInputs(NamedTuple):
    """What the analysis reads, on the trading calendar (see
    :func:`sentdep.prepare.prepare_analysis`).

    ``aspects`` are the top aspects in presentation order, ``tickers``
    the price files' tickers in config order, ``closes`` one calendar row
    per ticker, and ``series`` one calendar row per (top aspect, kind).
    Every row is an ``array('d')`` (see :func:`on_calendar`).
    """

    aspects: list[str]
    tickers: list[str]
    closes: list[array]
    series: dict[tuple[str, ScoreKind], array]
