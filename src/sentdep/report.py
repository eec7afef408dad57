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

import hashlib
import json
import platform
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .core import ScoreKind
from .errors import FormatError
from .ingest import csv_rows, open_output, write_csv


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
_BOOL_FIELDS = {"r_significant", "granger_causal", "granger_perfect_fit", "u_valid"}
_FLOAT_FIELDS = {"r", "granger_f", "granger_p", "u", "u_mi"}
_STR_FIELDS = {"aspect", "ticker", "r_reason", "granger_reason", "u_reason"}
_KEY_FIELDS = {"aspect", "ticker"}  # str fields that may not be empty
_BOOL_WORDS = {"true": True, "false": False}


def _cell_value_to_text(name: str, value) -> str:
    if value is None:
        return ""
    if name in _BOOL_FIELDS:
        return "true" if value else "false"
    if name == "kind":
        return value.code
    if name in _FLOAT_FIELDS:
        return repr(value)
    return str(value)


def write_cells(cells: Sequence[DependenceCell], path) -> None:
    """Write the full cell set as CSV, one row per cell, in input order."""
    write_csv(path, _CELL_COLUMNS,
              ([_cell_value_to_text(name, getattr(cell, name)) for name in _CELL_COLUMNS]
               for cell in cells))


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
                    kwargs[name] = ScoreKind.from_code(text)
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
    aspects: list[str] = []
    tickers: list[str] = []
    seen_a: set[str] = set()
    seen_t: set[str] = set()
    for c in cells:
        if c.aspect not in seen_a:
            seen_a.add(c.aspect)
            aspects.append(c.aspect)
        if c.ticker not in seen_t:
            seen_t.add(c.ticker)
            tickers.append(c.ticker)
    return aspects, tickers


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
    if statistic not in ("r", "u"):
        raise ValueError(f"statistic must be 'r' or 'u', got {statistic!r}")
    if not cells:
        raise ValueError("cannot emit a heatmap from an empty cell set")
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


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    path,
    config_echo: Mapping[str, object],
    input_paths: Iterable[tuple[str, object]],
    seed: int,
) -> None:
    """Write the reproducibility manifest.

    Contains the effective configuration (paths normalized to names, no
    output directory), SHA-256 digests of every input file, library
    versions, and the seed. Deliberately timestamp-free: reruns with the
    same inputs and config must produce identical bytes.
    """
    import numpy
    import scipy

    from . import __version__

    digests = {name: sha256_file(p) for name, p in input_paths}
    manifest = {
        "config": dict(config_echo),
        "inputs_sha256": digests,
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
