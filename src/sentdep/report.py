"""Result cells and report artifacts.

One :class:`DependenceCell` per (aspect, score kind, ticker) triple holds
the three dependence statistics with their decision flags. Statistics
that could not be computed are explicit nulls tagged with a reason code
(the name of the failure: ``InsufficientData``, ``DegenerateSeries``,
``RankDeficient``, ``DegenerateSample``) — coverage is total, a triple is
never silently absent.

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
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Mapping, Sequence

from .core import ScoreKind
from .errors import FormatError
from .ingest import csv_field, csv_rows, open_output, write_csv


@dataclass(frozen=True)
class DependenceCell:
    """All dependence statistics for one (aspect, kind, ticker) triple.

    ``n`` is the number of lag-aligned pairs (0 when alignment failed).
    Each statistic group is either fully populated or null with its
    ``*_reason`` set; ``granger_perfect_fit`` marks F values coming from
    an exact fit rather than the F ratio.
    """

    aspect: str
    kind: ScoreKind
    ticker: str
    n: int
    r: float | None = None
    r_significant: bool | None = None
    r_reason: str | None = None
    granger_f: float | None = None
    granger_p: float | None = None
    granger_causal: bool | None = None
    granger_perfect_fit: bool | None = None
    granger_reason: str | None = None
    u: float | None = None
    u_valid: bool | None = None
    u_mi: float | None = None
    u_reason: str | None = None


_CELL_COLUMNS = [f.name for f in fields(DependenceCell)]
_cell_values = attrgetter(*_CELL_COLUMNS)
_BOOL_FIELDS = {"r_significant", "granger_causal", "granger_perfect_fit", "u_valid"}
_STR_FIELDS = {"aspect", "ticker", "r_reason", "granger_reason", "u_reason"}
_KEY_FIELDS = {"aspect", "ticker"}  # str fields that may not be empty
_BOOL_WORDS = {"true": True, "false": False}
_BOOL_TEXT = {None: "", True: "true", False: "false"}


def write_cells(cells: Sequence[DependenceCell], path) -> None:
    """Write the full cell set as CSV, one row per cell, in input order.

    The rows are formatted as text and written in one call, with the
    bytes :func:`~sentdep.ingest.write_csv` would write: each text field
    is quoted as that writer quotes it (:func:`~sentdep.ingest.csv_field`),
    once per distinct text; a null is empty, a flag is ``true`` or
    ``false``, a float is its ``repr``, and none of those, a kind code or
    a count ever needs quoting.
    """
    quoted = functools.cache(csv_field)
    lines = [",".join(_CELL_COLUMNS) + "\n"]
    for cell in cells:
        (aspect, kind, ticker, n, r, r_significant, r_reason, granger_f, granger_p,
         granger_causal, granger_perfect_fit, granger_reason, u, u_valid, u_mi,
         u_reason) = _cell_values(cell)
        lines.append(
            f"{quoted(aspect)},{kind.code},{quoted(ticker)},{n},"
            f"{'' if r is None else repr(r)},{_BOOL_TEXT[r_significant]},{quoted(r_reason)},"
            f"{'' if granger_f is None else repr(granger_f)},"
            f"{'' if granger_p is None else repr(granger_p)},"
            f"{_BOOL_TEXT[granger_causal]},{_BOOL_TEXT[granger_perfect_fit]},"
            f"{quoted(granger_reason)},{'' if u is None else repr(u)},"
            f"{_BOOL_TEXT[u_valid]},{'' if u_mi is None else repr(u_mi)},{quoted(u_reason)}\n")
    with open_output(path, newline="") as fh:
        fh.write("".join(lines))


def read_cells(path) -> list[DependenceCell]:
    """Inverse of :func:`write_cells` (exact float round-trip).

    A row with an empty ``aspect`` or ``ticker`` raises FormatError.
    """
    out: list[DependenceCell] = []
    for lineno, row in csv_rows(path, "cell", _CELL_COLUMNS):
        kwargs = {}
        for name, text in zip(_CELL_COLUMNS, row):
            try:
                if name == "kind":
                    kwargs[name] = ScoreKind(text)
                elif name == "n":
                    kwargs[name] = int(text)
                elif name in _STR_FIELDS:
                    if not text and name in _KEY_FIELDS:
                        raise FormatError(f"empty {name}", path=path, line_number=lineno)
                    kwargs[name] = text if text else None
                elif not text:
                    kwargs[name] = None
                elif name in _BOOL_FIELDS:
                    kwargs[name] = _BOOL_WORDS[text]
                else:
                    kwargs[name] = float(text)
            except (KeyError, ValueError):
                raise FormatError(f"bad {name} {text!r}", path=path,
                                  line_number=lineno) from None
        out.append(DependenceCell(**kwargs))
    return out


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
