"""Result cells and report artifacts.

One :class:`DependenceCell` per (aspect, score kind, ticker) triple holds
the three dependence statistics with their decision flags. Statistics
that could not be computed are explicit nulls tagged with a reason code
(the name of the failure: ``InsufficientData``, ``DegenerateSeries``,
``RankDeficient``, ``DegenerateSample``) — coverage is total, a triple is
never silently absent.

Each field of :class:`DependenceCell` is one ``cells.csv`` column, and
:data:`CELL_COLUMNS` is their table: each column's text kind, statistic
group and one-line doc. The writer, the reader and the README's column
table follow it.

Artifacts:

* ``cells.csv`` — every cell field; floats serialized with ``repr`` so
  values round-trip exactly (this file is the machine-readable surface).
* ``heatmap_{r|u}_{kind}.csv`` — aspect × ticker matrix per statistic and
  score kind, 3-decimal values, empty cells for nulls (plot-ready).
* ``granger.csv`` — per ticker, the causal (aspect, kind) pairs sorted by
  ascending p-value.
* ``run_manifest.json`` — config echo, input digests, library versions,
  seed; no timestamps, so identical runs write identical bytes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields
from itertools import product
from operator import attrgetter
from typing import Mapping, Sequence

from .core import ScoreKind
from .errors import FormatError
from .ingest import csv_field, csv_rows, open_output, write_csv


def _column(kind: str, doc: str, group: str | None = None):
    """A cell field that is one ``cells.csv`` column: its text kind, its
    one-line doc and its statistic group. The identity columns have no
    group and every cell sets them; a statistic is null unless set."""
    return field(default=None if group else MISSING, metadata=dict(kind=kind, group=group, doc=doc))


@dataclass(frozen=True)
class DependenceCell:
    """All dependence statistics for one (aspect, kind, ticker) triple.

    The fields are the ``cells.csv`` columns, in file order. Each
    statistic group (``r``, ``granger``, ``u``) either sets every value and
    no reason, or only its ``*_reason``: :func:`read_cells` rejects any
    other row.
    """

    aspect: str = _column("key", "the aspect, as the lexicon or a label names it")
    kind: ScoreKind = _column("kind", "the score kind: fp, fn, nfp or nfn")
    ticker: str = _column("key", "the ticker, as config.ini names it")
    n: int = _column("count", "lag-aligned (sentiment, close) pairs; 0 when none align")
    r: float | None = _column("float", "Pearson r of the lagged sentiment and the close", "r")
    r_significant: bool | None = _column("flag", "abs(r) > pearson_threshold", "r")
    r_reason: str | None = _column("reason", "why r is null", "r")
    granger_f: float | None = _column("float", "F statistic of the Granger test", "granger")
    granger_p: float | None = _column("float", "p-value of that F", "granger")
    granger_causal: bool | None = _column("flag", "granger_p < granger_alpha", "granger")
    granger_perfect_fit: bool | None = _column("flag", "an exact fit; p is 0 or 1", "granger")
    granger_reason: str | None = _column("reason", "why the Granger test is null", "granger")
    u: float | None = _column("float", "uncertainty coefficient u_mi / H(close)", "u")
    u_valid: bool | None = _column("flag", "H(close) is at least 1e-6 nats", "u")
    u_mi: float | None = _column("float", "mutual information of the two series, in nats", "u")
    u_reason: str | None = _column("reason", "why u is null", "u")


#: The ``cells.csv`` columns, in file order: :class:`DependenceCell`'s
#: fields, each with ``metadata`` ``kind``, ``group`` and ``doc``.
CELL_COLUMNS = fields(DependenceCell)
_NAMES = [column.name for column in CELL_COLUMNS]


def _count(text: str) -> int:
    """A count field: a whole number >= 0, in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


#: Text kind -> the parser of a non-empty field; an empty field is null.
_PARSERS = {"key": str, "kind": {k.code: k for k in ScoreKind}.__getitem__, "count": _count,
            "float": float, "flag": {"true": True, "false": False}.__getitem__, "reason": str}
_ROW_PARSERS = [_PARSERS[column.metadata["kind"]] for column in CELL_COLUMNS]

#: Each statistic group -> the index of its reason column.
_REASONS = {c.metadata["group"]: i for i, c in enumerate(CELL_COLUMNS)
            if c.metadata["kind"] == "reason"}
#: Every pattern of non-empty fields a row may have: the identity columns
#: set, and each statistic group either every value and no reason, or
#: only the reason.
_ROW_SHAPES = {tuple(dict(zip(_REASONS, filled)).get(c.metadata["group"], True)
                     != (c.metadata["kind"] == "reason") for c in CELL_COLUMNS)
               for filled in product((True, False), repeat=len(_REASONS))}


def write_cells(cells: Sequence[DependenceCell], path) -> None:
    """Write the full cell set as CSV, one row per cell, in input order.

    Each column is formatted as text by its kind in :data:`CELL_COLUMNS`,
    lazily, so only the joined rows are held at once. They are written in
    one call, with the bytes :func:`~sentdep.ingest.write_csv` would
    write: a key or reason is quoted as that writer quotes it
    (:func:`~sentdep.ingest.csv_field`), once per distinct text; a null is
    empty, a flag is ``true`` or ``false``, a float is its ``repr``, and
    none of those, a kind code or a count ever needs quoting.
    """
    quoted = functools.cache(csv_field)
    texts = {"key": quoted, "reason": quoted, "kind": attrgetter("code"), "count": str,
             "flag": {None: "", True: "true", False: "false"}.__getitem__}
    columns = []
    for column in CELL_COLUMNS:
        values, kind = map(attrgetter(column.name), cells), column.metadata["kind"]
        columns.append(("" if v is None else repr(v) for v in values) if kind == "float"
                       else map(texts[kind], values))
    with open_output(path, newline="") as fh:
        fh.write("\n".join([",".join(_NAMES), *map(",".join, zip(*columns))]) + "\n")


def read_cells(path) -> list[DependenceCell]:
    """Inverse of :func:`write_cells` (exact float round-trip).

    Each field is parsed by its column's kind in :data:`CELL_COLUMNS`, and
    an empty statistic field is null. A row with an empty ``aspect`` or
    ``ticker``, a value its column's kind does not read, a statistic
    group that is neither every value without a reason nor only a reason,
    or a second row of one (aspect, kind, ticker) raises FormatError
    naming the file and line.
    """
    out: list[DependenceCell] = []
    seen: set[tuple[str, ...]] = set()
    for lineno, row in csv_rows(path, "cell", _NAMES):
        try:
            values = [parse(text) if text else None for parse, text in zip(_ROW_PARSERS, row)]
        except (KeyError, ValueError):
            values = None
        if values is None or tuple(map(bool, row)) not in _ROW_SHAPES:
            raise _row_error(row, path, lineno)
        if tuple(row[:3]) in seen:
            raise FormatError(f"repeated cell ({', '.join(row[:3])})", path=path,
                              line_number=lineno)
        seen.add(tuple(row[:3]))
        out.append(DependenceCell(*values))
    return out


def _row_error(row: list[str], path, lineno: int) -> FormatError:
    """The FormatError of a cell row that does not read: its first bad
    field in column order, else its first statistic value that is empty
    without a reason or set beside one."""
    for column, parse, text in zip(CELL_COLUMNS, _ROW_PARSERS, row):
        if not text and column.metadata["kind"] == "key":
            return FormatError(f"empty {column.name}", path=path, line_number=lineno)
        try:
            if text or column.metadata["group"] is None:
                parse(text)
        except (KeyError, ValueError):
            return FormatError(f"bad {column.name} {text!r}", path=path, line_number=lineno)
    for i, column in enumerate(CELL_COLUMNS):
        reason = _REASONS.get(column.metadata["group"], i)
        if reason != i and bool(row[i]) == bool(row[reason]):
            return FormatError(f"{column.name} {'set beside' if row[i] else 'empty without'} "
                               f"{_NAMES[reason]}", path=path, line_number=lineno)


def _presentation_orders(
    cells: Sequence[DependenceCell],
) -> tuple[list[str], list[str]]:
    """Aspect and ticker orders as first seen in the cell sequence."""
    return (list(dict.fromkeys(c.aspect for c in cells)),
            list(dict.fromkeys(c.ticker for c in cells)))


def emit_heatmap(
    cells: Sequence[DependenceCell], statistic: str, kind: ScoreKind, path
) -> None:
    """Write one aspect × ticker matrix of r or u values for one score kind.

    Row order is the aspects' first appearance in ``cells`` (the pipeline
    emits them in presentation order) and likewise for ticker columns.
    Values are rendered to three decimals; nulls are empty cells. The u
    matrix shows every computed value — consult ``u_valid`` in the cell
    file before trusting individual entries.
    """
    aspects, tickers = _presentation_orders(cells)
    texts: dict[tuple[str, str], str] = {}
    for c in cells:
        if c.kind is kind:
            v = c.r if statistic == "r" else c.u
            texts[(c.aspect, c.ticker)] = "" if v is None else f"{v:.3f}"
    write_csv(path, ["aspect", *tickers],
              ([aspect, *(texts.get((aspect, t), "") for t in tickers)] for aspect in aspects))


def heatmap_filename(statistic: str, kind: ScoreKind) -> str:
    return f"heatmap_{statistic}_{kind.code}.csv"


def emit_granger_table(cells: Sequence[DependenceCell], path) -> None:
    """Write the causal (aspect, kind) list per ticker.

    Tickers appear in their cell-sequence order; within a ticker, rows are
    sorted by ascending p-value, ties broken by aspect then kind code.
    No causal cells yields a header-only file.
    """
    _, tickers = _presentation_orders(cells)
    by_ticker: dict[str, list[DependenceCell]] = {t: [] for t in tickers}
    for c in cells:
        if c.granger_causal:
            by_ticker[c.ticker].append(c)
    write_csv(path, ("ticker", "aspect", "kind", "f_stat", "p_value"),
              ((ticker, c.aspect, c.kind.code, repr(c.granger_f), repr(c.granger_p))
               for ticker in tickers
               for c in sorted(by_ticker[ticker],
                               key=lambda c: (c.granger_p, c.aspect, c.kind.code))))


def write_manifest(
    path,
    config_echo: Mapping[str, object],
    digests: Mapping[str, str],
    seed: int,
) -> None:
    """Write the reproducibility manifest.

    Contains the effective configuration (paths normalized to names, no
    output directory), the SHA-256 digest of every input file (``digests``,
    by name; see :func:`sentdep.prepare.input_digests`), library versions,
    and the seed. Deliberately timestamp-free: reruns with the same inputs
    and config must produce identical bytes.
    """
    import platform

    import numpy
    import scipy

    from . import __version__

    manifest = {
        "config": dict(config_echo),
        "inputs_sha256": dict(digests),
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sentdep": __version__,
        },
    }
    with open_output(path, newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
