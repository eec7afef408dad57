"""tools/cells_diff.py: the largest |Δ| of each numeric column, and every
flipped flag, changed reason and unmatched cell, of two cells.csv files."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cells_diff.py"

#: u is empty in every row, as in a run where no u is valid.
HEADER = "aspect,kind,ticker,n,r,r_significant,r_reason,granger_f,u\n"


def run(tmp_path, a_rows, b_rows):
    """(exit code, stdout lines) of the tool on two files of ``HEADER`` rows."""
    paths = []
    for name, rows in (("a.csv", a_rows), ("b.csv", b_rows)):
        paths.append(tmp_path / name)
        paths[-1].write_text(HEADER + "".join(row + ",\n" for row in rows), encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout.splitlines()


def test_float_changes_alone_exit_zero(tmp_path):
    code, lines = run(tmp_path,
                      ["tax,fp,AAA,9,0.5,true,,2.0", "tax,fp,BBB,9,-0.25,false,,inf"],
                      ["tax,fp,BBB,9,-0.25000000000000006,false,,inf",
                       "tax,fp,AAA,9,0.5,true,,2.5"])
    assert code == 0
    assert lines[0] == "2 cells in both files"
    [r] = [line.split() for line in lines if line.startswith("r ")]
    assert r[1] == "5.55e-17" and r[-1] == "'BBB')"
    [f] = [line.split() for line in lines if line.startswith("granger_f ")]
    assert f[1] == "0.5" and f[5] == "0.2"
    assert ["u", "0", "-", "0", "-"] in [line.split() for line in lines]
    assert lines[-1] == ("0 changes besides float values "
                         "(flags, reasons, empty values, unmatched cells)")


def test_flags_reasons_gaps_and_unmatched_cells_are_listed(tmp_path):
    code, lines = run(tmp_path,
                      ["tax,fp,AAA,9,0.5,true,,2.0", "tax,fp,BBB,2,,,InsufficientData,",
                       "tax,fp,CCC,9,0.1,false,,1.0"],
                      ["tax,fp,AAA,9,0.3,false,,", "tax,fp,BBB,2,,,DegenerateSeries,",
                       "tax,fp,DDD,9,0.1,false,,1.0"])
    assert code == 1
    assert lines[-6:] == [
        "5 changes besides float values (flags, reasons, empty values, unmatched cells)",
        f"cell ('tax', 'fp', 'CCC') only in {tmp_path / 'a.csv'}",
        f"cell ('tax', 'fp', 'DDD') only in {tmp_path / 'b.csv'}",
        "granger_f ('tax', 'fp', 'AAA'): 2.0 -> empty",
        "r_significant ('tax', 'fp', 'AAA'): true -> false",
        "r_reason ('tax', 'fp', 'BBB'): InsufficientData -> DegenerateSeries",
    ]
