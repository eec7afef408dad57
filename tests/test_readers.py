"""Every text-file reader, on arbitrary bytes: a result or a format error."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentdep.errors import EmptySeries, FormatError
from sentdep.ingest import comment_lines, csv_rows, load_aspects, parse_labeled, parse_prices
from sentdep.labeler import PolarityLexicon
from sentdep.prepare import load_calendar
from sentdep.report import CELL_COLUMNS, read_cells
from sentdep.scores import read_scores

#: Input name -> (its reader, the header a well-formed file starts with).
READERS = {
    "prices": (lambda p: parse_prices(p, "AAA"), b"Date,Close\n"),
    "labels": (parse_labeled, b"tweet_id,date,aspect,polarity\n"),
    "scores": (read_scores, b"aspect,date,kind,value\n"),
    "cells": (read_cells, ",".join(c.name for c in CELL_COLUMNS).encode() + b"\n"),
    "calendar": (load_calendar, b""),
    "aspects": (load_aspects, b""),
    "positive terms": (lambda p: PolarityLexicon.from_files(p, p.parent / "neg.txt"), b""),
    "negative terms": (lambda p: PolarityLexicon.from_files(p.parent / "pos.txt", p), b""),
}

#: Byte runs that steer the readers into their branches: CSV syntax (NUL,
#: lone CR, unbalanced quotes), comments, bytes that are not UTF-8, and
#: values each reader accepts or rejects.
PIECES = [b"\x00", b"\r", b"\n", b"\r\n", b'"', b",", b"#", b" ", b"\t", b"\xff", b"\xc3",
          b"0", b"1.5", b"-1", b"nan", b"inf", b"null", b"2022-10-03", b"fp", b"nfp", b"fs",
          b"true", b"positive", b"good", b"tax"]

OVERSIZED_ROW = b"2022-10-03," + b"9" * 140_000 + b"\n"


@st.composite
def file_bytes(draw):
    """Bytes for one input file, or None for a path that is a directory."""
    if draw(st.integers(0, 20)) == 0:
        return None
    header = draw(st.sampled_from(sorted({h for _, h in READERS.values()})))
    body = draw(st.lists(st.sampled_from(PIECES) | st.binary(max_size=6), max_size=30))
    return header + b"".join(body)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_returns_or_raises_a_format_error(tmp_path_factory, name):
    read, header = READERS[name]
    root = tmp_path_factory.mktemp("reader")
    (root / "pos.txt").write_text("good\n", encoding="utf-8")
    (root / "neg.txt").write_text("bad\n", encoding="utf-8")
    target = root / name.replace(" ", "_")

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(file_bytes())
    @example(None)
    @example(header + OVERSIZED_ROW)
    @example(header + b'"unbalanced,\x00\r1\r\n')
    def check(data):
        if target.is_dir():
            target.rmdir()
        if data is None:
            target.unlink(missing_ok=True)
            target.mkdir()
        else:
            target.write_bytes(data)
        try:
            read(target)
        except (FormatError, EmptySeries):  # HeaderMismatch is a FormatError
            pass

    check()


class TestSharedReaders:
    def test_csv_rows_strip_fields_skip_blank_rows_and_count_physical_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(' a , b \n a , b \n\n , \n" x\ny ", z \n', encoding="utf-8")
        assert list(csv_rows(p, "test", ("a", "b"))) == [(2, ["a", "b"]), (6, ["x\ny", "z"])]

    def test_csv_rows_check_header_and_field_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        rows = csv_rows(p, "test", ("a", "b"))
        assert next(rows) == (2, ["1", "2"])
        with pytest.raises(FormatError, match="t.csv:3: expected 2 fields, got 1"):
            next(rows)

    def test_empty_csv_names_what_it_is(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"")
        with pytest.raises(FormatError, match="t.csv: test file is empty"):
            list(csv_rows(p, "test", ("a", "b")))

    def test_comment_lines_skip_blanks_and_comments(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# head\n\n  tax  \n#x\nbank\n", encoding="utf-8")
        assert list(comment_lines(p)) == [(3, "tax"), (5, "bank")]
