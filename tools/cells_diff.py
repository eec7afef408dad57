"""Compare two ``cells.csv`` files cell by cell.

Cells are matched on (aspect, kind, ticker). For each numeric column the
largest absolute and the largest relative |Δ| between the two files are
printed, with the cell where each is reached; the relative |Δ| of two
values is |a − b| / max(|a|, |b|); a column empty in every cell is listed
with them. Then every flag (a ``true``/``false`` column) that flipped,
every reason (a ``*_reason`` column) that changed, every value present
in one file and empty in the other, and every cell present in one file
only, one line each. Only the standard library's
``csv`` is used.

Usage: ``python3 tools/cells_diff.py A/cells.csv B/cells.csv``. Exits 0
when no flag flipped, no reason changed, no value went missing and both
files hold the same cells, and 1 otherwise.
"""

from __future__ import annotations

import csv
import sys

KEY = ("aspect", "kind", "ticker")


def read(path: str) -> tuple[list[str], dict[tuple[str, ...], dict[str, str]]]:
    """(the columns, each cell's row by its key) of one cells.csv."""
    with open(path, newline="", encoding="utf-8") as stream:
        reader = csv.DictReader(stream)
        rows = {tuple(row[name] for name in KEY): row for row in reader}
        return list(reader.fieldnames or ()), rows


def relative(a: float, b: float) -> float:
    """|a − b| / max(|a|, |b|), 0 for equal values (infinities included)."""
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def diff(a_path: str, b_path: str) -> tuple[list[str], bool]:
    """(the report's lines, whether the files differ beyond float columns)."""
    columns, a_rows = read(a_path)
    b_columns, b_rows = read(b_path)
    if b_columns != columns:
        return [f"columns differ: {columns} against {b_columns}"], True
    common = [key for key in a_rows if key in b_rows]
    lines = [f"{len(common)} cells in both files"]
    changes = [f"cell {key} only in {path}"
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
            delta = 0.0 if x == y else abs(x - y)
            largest = (max(largest[0], (delta, key), key=lambda t: t[0]),
                       max(largest[1], (relative(x, y), key), key=lambda t: t[0]))
        (delta, at), (rel, rel_at) = largest
        lines.append(f"{name:<12} {delta:>10.3g} {str(at or '-'):<32} {rel:>11.3g} "
                     f"{rel_at or '-'}")
    for name in flags + reasons:
        changes += [f"{name} {key}: {a_rows[key][name] or 'empty'} -> "
                    f"{b_rows[key][name] or 'empty'}"
                    for key in common if a_rows[key][name] != b_rows[key][name]]
    lines.append(f"{len(changes)} changes besides float values "
                 f"(flags, reasons, empty values, unmatched cells)")
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
