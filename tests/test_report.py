"""Cell serialization and the CSV/JSON report artifacts."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cells_row_by_row
from sentdep.cli import main
from sentdep.core import ScoreKind
from sentdep.errors import FormatError, HeaderMismatch
from sentdep.prepare import sha256_file
from sentdep.report import (
    CELL_COLUMNS,
    DependenceCell,
    emit_granger_table,
    emit_heatmap,
    heatmap_filename,
    read_cells,
    write_cells,
    write_manifest,
)

README = Path(__file__).resolve().parents[1] / "README.md"
FP = ScoreKind.ABS_POSITIVE
NFP = ScoreKind.NORM_POSITIVE


def full_cell(aspect="inflation", ticker="NEE", kind=FP, r=0.5) -> DependenceCell:
    return DependenceCell(
        aspect=aspect, kind=kind, ticker=ticker, n=42,
        r=r, r_significant=abs(r) > 0.4, r_reason=None,
        granger_f=12.5, granger_p=0.00083, granger_causal=True,
        granger_perfect_fit=False, granger_reason=None,
        u=0.159, u_valid=True, u_mi=0.2, u_reason=None,
    )


def null_cell(aspect="tax", ticker="BP", kind=FP) -> DependenceCell:
    return DependenceCell(
        aspect=aspect, kind=kind, ticker=ticker, n=0,
        r_reason="InsufficientData", granger_reason="InsufficientData",
        u_reason="InsufficientData",
    )


csv_texts = st.one_of(
    st.sampled_from(["NEE", "stock market", "a,b", 'say "hi"', "two\nlines", "cr\rx", "ß", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


def optional(values):
    return st.none() | values


drawn_cells = st.lists(st.builds(
    DependenceCell, aspect=csv_texts, kind=st.sampled_from(ScoreKind), ticker=csv_texts,
    n=st.integers(min_value=0, max_value=10**6),
    r=optional(st.floats()), r_significant=optional(st.booleans()),
    r_reason=optional(csv_texts), granger_f=optional(st.floats()),
    granger_p=optional(st.floats()), granger_causal=optional(st.booleans()),
    granger_perfect_fit=optional(st.booleans()), granger_reason=optional(csv_texts),
    u=optional(st.floats()), u_valid=optional(st.booleans()), u_mi=optional(st.floats()),
    u_reason=optional(csv_texts),
), max_size=12)


@settings(max_examples=80)
@given(drawn_cells)
@example([full_cell(), null_cell(), full_cell(aspect="a,b", ticker='say "hi"', r=-0.0)])
def test_written_cells_are_the_csv_writers_bytes(tmp_path_factory, cells):
    root = tmp_path_factory.mktemp("cells")
    write_cells(cells, root / "cells.csv")
    cells_row_by_row(cells, root / "oracle.csv")
    assert (root / "cells.csv").read_bytes() == (root / "oracle.csv").read_bytes()


def test_readme_column_table_lists_exactly_the_cell_columns():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Reading `cells.csv`\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \| (\w+) \| (\w*) ?\| (.+) \|$", section, re.M)
    assert listed == [(c.name, c.metadata["kind"], c.metadata["group"] or "", c.metadata["doc"])
                      for c in CELL_COLUMNS]


class TestCellsFile:
    def test_round_trip_is_exact(self, tmp_path):
        cells = [
            full_cell(r=-0.7309999999999999),
            null_cell(),
            DependenceCell(
                aspect="bank", kind=NFP, ticker="XOM", n=12,
                r=1 / 3, r_significant=False, r_reason=None,
                granger_f=math.inf, granger_p=0.0, granger_causal=True,
                granger_perfect_fit=True, granger_reason=None,
                u=None, u_valid=None, u_mi=None, u_reason="DegenerateSample",
            ),
        ]
        p = tmp_path / "cells.csv"
        write_cells(cells, p)
        assert read_cells(p) == cells

    def test_header_is_stable_contract(self, tmp_path):
        p = tmp_path / "cells.csv"
        write_cells([full_cell()], p)
        header = p.read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "aspect,kind,ticker,n,r,r_significant,r_reason,"
            "granger_f,granger_p,granger_causal,granger_perfect_fit,granger_reason,"
            "u,u_valid,u_mi,u_reason"
        )

    def test_read_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "cells.csv"
        p.write_text("aspect,ticker\ninflation,NEE\n", encoding="utf-8")
        with pytest.raises(HeaderMismatch):
            read_cells(p)

    def test_read_rejects_short_row(self, tmp_path):
        p = tmp_path / "cells.csv"
        write_cells([full_cell()], p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("inflation,fp,NEE\n")
        with pytest.raises(FormatError) as exc:
            read_cells(p)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("column, bad", [
        ("n", "x"), ("r", "0.5.1"), ("kind", "zz"), ("r_significant", "yes"),
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, column, bad):
        p = tmp_path / "cells.csv"
        write_cells([full_cell(), null_cell()], p)
        header, first, second = p.read_text(encoding="utf-8").splitlines()
        row = second.split(",")
        row[header.split(",").index(column)] = bad
        p.write_text("\n".join([header, first, ",".join(row)]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"cells.csv:3: bad {column} '{bad}'"):
            read_cells(p)
        assert main(["report", "--cells", str(p), "--out-dir", str(tmp_path / "r")]) == 2
        assert f"cells.csv:3: bad {column}" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["aspect", "ticker"])
    @pytest.mark.parametrize("blank", ["", "  "])
    def test_empty_key_field_names_file_and_line(self, tmp_path, capsys, column, blank):
        p = tmp_path / "cells.csv"
        write_cells([full_cell(), null_cell()], p)
        header, first, second = p.read_text(encoding="utf-8").splitlines()
        row = second.split(",")
        row[header.split(",").index(column)] = blank
        p.write_text("\n".join([header, first, ",".join(row)]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"cells.csv:3: empty {column}$"):
            read_cells(p)
        out_dir = tmp_path / "r"
        assert main(["report", "--cells", str(p), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {p}:3: empty {column}\n"
        assert not out_dir.exists()

    def test_header_only_file_exits_two_and_writes_nothing(self, tmp_path, capsys):
        p = tmp_path / "cells.csv"
        write_cells([], p)
        assert read_cells(p) == []
        out_dir = tmp_path / "r"
        assert main(["report", "--cells", str(p), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {p}: no cell rows to report\n"
        assert not out_dir.exists()

    def test_read_strips_fields_and_skips_whitespace_rows(self, tmp_path):
        p = tmp_path / "cells.csv"
        write_cells([full_cell(), null_cell()], p)
        header, first, second = p.read_text(encoding="utf-8").splitlines()
        padded = ",".join(f" {field} " for field in second.split(","))
        p.write_text("\n".join([header, first, " , \t", padded]) + "\n", encoding="utf-8")
        assert read_cells(p) == [full_cell(), null_cell()]

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "cells.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            read_cells(p)


TICKERS = ("SHEL", "BP", "XOM", "BEPC", "CWEN", "NEE")


class TestHeatmap:
    def grid(self):
        cells = []
        for aspect in ("inflation", "tax", "bank"):
            for ticker in TICKERS:
                r = -0.731 if (aspect, ticker) == ("inflation", "NEE") else 0.25
                cells.append(full_cell(aspect=aspect, ticker=ticker, r=r))
                cells.append(
                    null_cell(aspect=aspect, ticker=ticker, kind=NFP)
                    if ticker == "XOM"
                    else full_cell(aspect=aspect, ticker=ticker, kind=NFP, r=0.1)
                )
        return cells

    def test_matrix_layout_and_rounding(self, tmp_path):
        p = tmp_path / heatmap_filename("r", FP)
        emit_heatmap(self.grid(), "r", FP, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "aspect,SHEL,BP,XOM,BEPC,CWEN,NEE"
        assert len(lines) == 1 + 3
        assert lines[1] == "inflation,0.250,0.250,0.250,0.250,0.250,-0.731"

    def test_null_cells_render_empty(self, tmp_path):
        p = tmp_path / heatmap_filename("r", NFP)
        emit_heatmap(self.grid(), "r", NFP, p)
        rows = p.read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            # XOM is the fourth column; its nfp cells are all null
            assert row.split(",")[3] == ""

    def test_u_matrix_uses_u_values(self, tmp_path):
        p = tmp_path / heatmap_filename("u", FP)
        emit_heatmap(self.grid(), "u", FP, p)
        body = p.read_text(encoding="utf-8").splitlines()[1]
        assert body.split(",")[1] == "0.159"

    def test_filenames(self):
        assert heatmap_filename("r", FP) == "heatmap_r_fp.csv"
        assert heatmap_filename("u", ScoreKind.NORM_NEGATIVE) == "heatmap_u_nfn.csv"


class TestGrangerTable:
    def test_sorted_by_p_within_ticker(self, tmp_path):
        def causal(aspect, kind, ticker, p):
            return dataclasses.replace(
                full_cell(aspect=aspect, ticker=ticker, kind=kind), granger_p=p
            )

        cells = [
            causal("tax", FP, "NEE", 0.04),
            causal("bank", FP, "NEE", 0.001),
            causal("bank", NFP, "NEE", 0.04),   # p-tie with tax/fp
            null_cell(aspect="tax", ticker="BP"),
            causal("tax", FP, "BP", 0.02),
        ]
        p = tmp_path / "granger.csv"
        emit_granger_table(cells, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ticker,aspect,kind,f_stat,p_value"
        got = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert got == [
            ("NEE", "bank", "fp"),
            ("NEE", "bank", "nfp"),  # tie at p=0.04: aspect sorts first
            ("NEE", "tax", "fp"),
            ("BP", "tax", "fp"),
        ]

    def test_no_causal_rows_leaves_header_only(self, tmp_path):
        p = tmp_path / "granger.csv"
        emit_granger_table([null_cell()], p)
        assert p.read_text(encoding="utf-8") == "ticker,aspect,kind,f_stat,p_value\n"

    def test_float_fields_round_trip(self, tmp_path):
        c = full_cell()
        p = tmp_path / "granger.csv"
        emit_granger_table([c], p)
        row = p.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(row[3]) == c.granger_f
        assert float(row[4]) == c.granger_p


class TestManifest:
    def test_deterministic_and_timestamp_free(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("payload", encoding="utf-8")
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        echo = {"lag": 1, "tickers": ["NEE"]}
        digests = {"tweets": sha256_file(inp)}
        write_manifest(m1, echo, digests, seed=7)
        write_manifest(m2, echo, digests, seed=7)
        assert m1.read_bytes() == m2.read_bytes()
        doc = json.loads(m1.read_text(encoding="utf-8"))
        assert set(doc) == {"config", "inputs_sha256", "seed", "versions"}
        assert doc["seed"] == 7
        assert doc["inputs_sha256"]["tweets"] == sha256_file(inp)
        assert set(doc["versions"]) == {"python", "numpy", "scipy", "sentdep"}

    def test_digest_matches_known_value(self, tmp_path):
        f = tmp_path / "x"
        f.write_bytes(b"abc")
        assert sha256_file(f) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
