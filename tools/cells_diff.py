"""Compare two ``cells.csv`` files cell by cell.

Cells are matched on (aspect, kind, ticker). For each numeric column the
largest absolute and the largest relative |Δ| between the two files are
printed, with the cell where each is reached; the relative |Δ| of two
values is |a − b| / max(|a|, |b|); a column empty in every cell is listed
with them. Then every flag (a ``true``/``false`` column) that flipped,
every reason (a ``*_reason`` column) that changed, every value present
in one file and empty in the other, every value that went between NaN
and a number or to or from ±inf, every cell present in one file only,
and every cell a file holds more than once, one line each. Only the
standard library's ``csv`` and ``math`` are used.

Usage: ``python3 tools/cells_diff.py A/cells.csv B/cells.csv``. Exits 0
when only finite values changed and both files hold the same cells, each
once, and 1 otherwise.
"""

from __future__ import annotations

import csv
import math
import sys

KEY = ("aspect", "kind", "ticker")


def read(path: str) -> tuple[list[str], dict[tuple[str, ...], dict[str, str]], list]:
    """(the columns, each cell's last row by its key, the key of each row
    that repeats an earlier row's) of one cells.csv."""
    with open(path, newline="", encoding="utf-8") as stream:
        reader = csv.DictReader(stream)
        rows, repeated = {}, []
        for row in reader:
            key = tuple(row[name] for name in KEY)
            if key in rows:
                repeated.append(key)
            rows[key] = row
        return list(reader.fieldnames or ()), rows, repeated


def relative(a: float, b: float) -> float:
    """|a − b| / max(|a|, |b|) of two finite values, 0 for equal values."""
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def diff(a_path: str, b_path: str) -> tuple[list[str], bool]:
    """(the report's lines, whether the files differ beyond finite float values)."""
    columns, a_rows, a_repeated = read(a_path)
    b_columns, b_rows, b_repeated = read(b_path)
    if b_columns != columns:
        return [f"columns differ: {columns} against {b_columns}"], True
    common = [key for key in a_rows if key in b_rows]
    lines = [f"{len(common)} cells in both files"]
    changes = [f"cell {key} repeated in {path}"
               for path, repeated in ((a_path, a_repeated), (b_path, b_repeated))
               for key in repeated]
    changes += [f"cell {key} only in {path}"
                for path, rows, other in ((a_path, a_rows, b_rows), (b_path, b_rows, a_rows))
                for key in rows if key not in other]
    values = [name for name in columns if name not in KEY]
    cells = [rows[key] for rows in (a_rows, b_rows) for key in common]
    flags = [name for name in values
             if all(cell[name] in ("", "true", "false") for cell in cells)
             and any(cell[name] for cell in cells)]
    reasons = [name for name in values if name.endswith("_reason")]
    numbers = [name for name in values if name not in flags and name not in reasons]
    lines.append(f"{'column':<12} {'max |Δ|':>10} {'at':<32} {'max rel |Δ|':>11} at")
    for name in numbers:
        largest = (0.0, None), (0.0, None)
        for key in common:
            a, b = a_rows[key][name], b_rows[key][name]
            if (a == "") != (b == ""):
                changes.append(f"{name} {key}: {a or 'empty'} -> {b or 'empty'}")
            if a == "" or b == "" or a == b:
                continue
            x, y = float(a), float(b)
            if not (math.isfinite(x) and math.isfinite(y)):
                if x != y and not (math.isnan(x) and math.isnan(y)):
                    changes.append(f"{name} {key}: {a} -> {b}")
                continue
            largest = (max(largest[0], (abs(x - y), key), key=lambda t: t[0]),
                       max(largest[1], (relative(x, y), key), key=lambda t: t[0]))
        (delta, at), (rel, rel_at) = largest
        lines.append(f"{name:<12} {delta:>10.3g} {str(at or '-'):<32} {rel:>11.3g} "
                     f"{rel_at or '-'}")
    for name in flags + reasons:
        changes += [f"{name} {key}: {a_rows[key][name] or 'empty'} -> "
                    f"{b_rows[key][name] or 'empty'}"
                    for key in common if a_rows[key][name] != b_rows[key][name]]
    lines.append(f"{len(changes)} changes besides finite float values "
                 f"(flags, reasons, empty or non-finite values, unmatched or repeated cells)")
    return lines + changes, bool(changes)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/cells_diff.py A/cells.csv B/cells.csv", file=sys.stderr)
        return 2
    lines, changed = diff(argv[1], argv[2])
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
