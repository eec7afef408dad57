"""tools/cells_diff.py: the largest |Δ| of each numeric column, and every
flipped flag, changed reason, non-finite change, unmatched and repeated
cell, of two cells.csv files."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cells_diff.py"

#: u is empty in every row, as in a run where no u is valid.
HEADER = "aspect,kind,ticker,n,r,r_significant,r_reason,granger_f,u\n"

SUMMARY = ("{} changes besides finite float values "
           "(flags, reasons, empty or non-finite values, unmatched or repeated cells)")


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
    assert lines[-1] == SUMMARY.format(0)


def test_flags_reasons_gaps_and_unmatched_cells_are_listed(tmp_path):
    code, lines = run(tmp_path,
                      ["tax,fp,AAA,9,0.5,true,,2.0", "tax,fp,BBB,2,,,InsufficientData,",
                       "tax,fp,CCC,9,0.1,false,,1.0"],
                      ["tax,fp,AAA,9,0.3,false,,", "tax,fp,BBB,2,,,DegenerateSeries,",
                       "tax,fp,DDD,9,0.1,false,,1.0"])
    assert code == 1
    assert lines[-6:] == [
        SUMMARY.format(5),
        f"cell ('tax', 'fp', 'CCC') only in {tmp_path / 'a.csv'}",
        f"cell ('tax', 'fp', 'DDD') only in {tmp_path / 'b.csv'}",
        "granger_f ('tax', 'fp', 'AAA'): 2.0 -> empty",
        "r_significant ('tax', 'fp', 'AAA'): true -> false",
        "r_reason ('tax', 'fp', 'BBB'): InsufficientData -> DegenerateSeries",
    ]


def test_changes_to_or_from_nan_or_inf_are_listed(tmp_path):
    code, lines = run(tmp_path,
                      ["tax,fp,AAA,9,0.3,false,,2.0", "tax,fp,BBB,9,nan,false,,inf",
                       "tax,fp,CCC,9,NaN,false,,-inf", "tax,fp,DDD,9,0.1,false,,0.5"],
                      ["tax,fp,AAA,9,nan,false,,inf", "tax,fp,BBB,9,nan,false,,inf",
                       "tax,fp,CCC,9,nan,false,,inf", "tax,fp,DDD,9,0.1,false,,0.5"])
    assert code == 1
    # BBB's values and CCC's r are equal, NaN in either spelling included
    assert lines[-4:] == [
        SUMMARY.format(3),
        "r ('tax', 'fp', 'AAA'): 0.3 -> nan",
        "granger_f ('tax', 'fp', 'AAA'): 2.0 -> inf",
        "granger_f ('tax', 'fp', 'CCC'): -inf -> inf",
    ]
    assert [["r", "0", "-", "0", "-"], ["granger_f", "0", "-", "0", "-"]] == [
        line.split() for line in lines if line.startswith(("r ", "granger_f "))][:2]


def test_repeated_cells_are_listed(tmp_path):
    row = "tax,fp,AAA,9,0.5,true,,2.0"
    code, lines = run(tmp_path, [row, row], [row])
    assert code == 1
    assert lines[-2:] == [SUMMARY.format(1),
                          f"cell ('tax', 'fp', 'AAA') repeated in {tmp_path / 'a.csv'}"]


def run_on(tmp_path, a_text, b_text=None):
    """(exit code, stdout, stderr) of the tool on a.csv holding ``a_text``
    and b.csv holding ``b_text``, or no b.csv when it is None."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, text in zip(paths, (a_text, b_text)):
        if text is not None:
            path.write_text(text, encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def test_a_non_number_is_one_error_line(tmp_path):
    code, out, err = run_on(tmp_path, HEADER + "tax,fp,AAA,9,0.5,true,,2.0,\n",
                            HEADER + "tax,fp,AAA,9,0.5,true,,two,\n")
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'b.csv'}:2: column granger_f: not a number: 'two'\n"


def test_a_row_shorter_than_the_header_is_one_error_line(tmp_path):
    row = "tax,fp,AAA,9,0.5,true,,2.0,\n"
    code, out, err = run_on(tmp_path, HEADER + row + "tax,fp,BBB,9,0.5\n", HEADER + row)
    assert (code, out) == (2, "")
    assert err == (f"error: {tmp_path / 'a.csv'}:3: column r_significant: "
                   "the row ends before it\n")


def test_a_missing_or_undecodable_file_is_one_error_line(tmp_path):
    code, out, err = run_on(tmp_path, HEADER)
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'b.csv'}: No such file or directory\n"
    (tmp_path / "b.csv").write_bytes(HEADER.encode() + b"tax,fp,\xff\n")
    code, out, err = run_on(tmp_path, HEADER)
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'b.csv'}: not UTF-8: invalid start byte\n"
