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
once, and 1 otherwise. A file that cannot be read, a row shorter than its
header or a non-number in a numeric column is one ``error:`` line naming
the file (and its line and column) and exit 2.
"""

from __future__ import annotations

import csv
import math
import sys

KEY = ("aspect", "kind", "ticker")


class Unreadable(Exception):
    """A cells.csv that cannot be compared; the message names the file,
    and the line and column where there is one."""


def read(path: str) -> tuple[list[str], dict[tuple[str, ...], dict[str, str]],
                             dict[tuple[str, ...], int], list]:
    """(the columns, each cell's last row by its key, that row's line, the
    key of each row that repeats an earlier row's) of one cells.csv."""
    try:
        with open(path, newline="", encoding="utf-8") as stream:
            reader = csv.DictReader(stream)
            rows, lines, repeated = {}, {}, []
            for row in reader:
                short = [name for name, text in row.items() if text is None]
                if short:
                    raise Unreadable(f"{path}:{reader.line_num}: column {short[0]}: "
                                     f"the row ends before it")
                key = tuple(row[name] for name in KEY)
                if key in rows:
                    repeated.append(key)
                rows[key], lines[key] = row, reader.line_num
            return list(reader.fieldnames or ()), rows, lines, repeated
    except OSError as exc:
        raise Unreadable(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise Unreadable(f"{path}: not UTF-8: {exc.reason}") from None


def number(text: str, path: str, line: int, name: str) -> float:
    """The value of one numeric field."""
    try:
        return float(text)
    except ValueError:
        raise Unreadable(f"{path}:{line}: column {name}: not a number: {text!r}") from None


def relative(a: float, b: float) -> float:
    """|a − b| / max(|a|, |b|) of two finite values, 0 for equal values."""
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def diff(a_path: str, b_path: str) -> tuple[list[str], bool]:
    """(the report's lines, whether the files differ beyond finite float values)."""
    columns, a_rows, a_lines, a_repeated = read(a_path)
    b_columns, b_rows, b_lines, b_repeated = read(b_path)
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
            x = number(a, a_path, a_lines[key], name)
            y = number(b, b_path, b_lines[key], name)
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
    try:
        lines, changed = diff(argv[1], argv[2])
    except Unreadable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
