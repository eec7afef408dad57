"""Exit codes, stage composition, and override flags of the `sentdep` CLI."""

import csv
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sentdep
import sentdep.pipeline
from sentdep import errors
from sentdep.cli import main
from sentdep.report import CELL_COLUMNS, read_cells
from test_pipeline import DAYS, EXPECTED_ARTIFACTS, build_tweet_tree


def add_calendar(ini: Path, lines: list[str]) -> Path:
    """Write a calendar file next to ``ini`` and name it in ``[inputs]``."""
    calendar = ini.parent / "days.txt"
    calendar.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = ini.read_text(encoding="utf-8")
    ini.write_text(text.replace("[prices]", "calendar = days.txt\n[prices]"),
                   encoding="utf-8")
    return calendar


_RUN = ["run", "--config", "config.ini"]

#: Input file that gets the bad byte -> (command reading it, expected exit
#: code). Paths are relative to the test's input tree.
UNDECODABLE_CASES = {
    "config.ini": (_RUN, 1),
    "aspects.txt": (_RUN, 2),
    "neg.txt": (_RUN, 2),
    "AAA.csv": (_RUN, 2),
    "days.txt": (_RUN, 2),
    "labels.csv": (["score", "--labels", "labels.csv", "--out", "new_scores.csv"], 2),
    "scores.csv": (["analyze", "--config", "config.ini", "--scores", "scores.csv",
                    "--out", "new_cells.csv"], 2),
    "cells.csv": (["report", "--cells", "cells.csv", "--out-dir", "report"], 2),
}

CSV_INPUTS = ("AAA.csv", "labels.csv", "scores.csv", "cells.csv")

CELL_HEADER = ",".join(column.name for column in CELL_COLUMNS) + "\n"
#: A causal cell row, and one with no F, no p and no reason, and nothing
#: in its u group.
CAUSAL_ROW = "a,fp,T,30,0.5,true,,4.5,0.04,true,false,,,,,DegenerateSample\n"
HALF_FILLED_ROW = "b,fp,T,30,0.5,true,,,,true,false,,,,,\n"
#: Two causal rows of one cell, with different r.
REPEATED_CELL_ROWS = ("inflation,fp,NEE,30,0.9988,true,,4.5,0.04,true,false,,,,,DegenerateSample\n"
                      "inflation,fp,NEE,30,0.5,true,,4.5,0.04,true,false,,,,,DegenerateSample\n")

#: Each stage subcommand with every input file flag set; the values are
#: relative to the input tree of :func:`clean_run_tree`.
STAGE_ARGV = {
    "keywords": ["--tweets", "tweets.jsonl", "--out", "new_keywords.csv"],
    "label": ["--tweets", "tweets.jsonl", "--aspects", "aspects.txt",
              "--positive-terms", "pos.txt", "--negative-terms", "neg.txt",
              "--out", "new_labels.csv"],
    "score": ["--labels", "labels.csv", "--out", "new_scores.csv"],
    "analyze": ["--config", "config.ini", "--scores", "scores.csv", "--out", "new_cells.csv"],
    "report": ["--cells", "cells.csv", "--out-dir", "report"],
}
INPUT_FLAGS = [(command, flag) for command, argv in STAGE_ARGV.items()
               for flag in argv[::2] if flag not in ("--out", "--out-dir", "--config")]


def clean_run_tree(tmp_path, capsys, monkeypatch) -> None:
    """Input tree with a calendar and the labels, scores and cells of a clean
    run beside the raw inputs; the working directory moves into it."""
    ini = build_tweet_tree(tmp_path)
    add_calendar(ini, [d.isoformat() for d in DAYS])
    assert main(["run", "--config", str(ini)]) == 0
    for produced in ("labels.csv", "scores.csv", "cells.csv"):
        (tmp_path / produced).write_bytes((tmp_path / "out" / produced).read_bytes())
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)


def append_line(path: Path, data: bytes) -> int:
    """Append ``data`` as a new last line; returns its line number."""
    line = len(path.read_bytes().splitlines()) + 1
    with open(path, "ab") as fh:
        fh.write(data + b"\n")
    return line


class TestExitCodes:
    def test_successful_run_returns_zero(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        assert main(["run", "--config", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and str(tmp_path / "out") in out

    def test_config_problem_returns_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_returns_one(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / "AAA.csv").unlink()
        assert main(["run", "--config", str(ini)]) == 1
        assert "AAA.csv" in capsys.readouterr().err

    def test_broken_price_file_returns_two(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / "AAA.csv").write_text("Date,Open\n2022-10-03,1\n", encoding="utf-8")
        assert main(["run", "--config", str(ini)]) == 2
        assert "Close" in capsys.readouterr().err

    def test_unparseable_tweets_return_two(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / "tweets.jsonl").write_text("not json\n" * 5, encoding="utf-8")
        assert main(["run", "--config", str(ini)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_no_labels_is_success_not_failure(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / "tweets.jsonl").write_text(
            json.dumps({"id": "t0", "created_at": "2022-10-03T09:00:00Z",
                        "text": "nothing on topic", "lang": "en"}) + "\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(ini)]) == 0

    def test_infinite_close_row_is_skipped(self, tmp_path, caplog):
        ini = build_tweet_tree(tmp_path)
        prices = tmp_path / "AAA.csv"
        lines = prices.read_text(encoding="utf-8").splitlines()
        day = lines[5].split(",")[0]
        lines[5] = f"{day},inf"
        prices.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert main(["run", "--config", str(ini)]) == 0
        assert any("AAA.csv:6" in m and "non-finite" in m for m in caplog.messages)

    def test_undecodable_tweet_line_below_cap_is_skipped(self, tmp_path, caplog):
        ini = build_tweet_tree(tmp_path)
        with open(tmp_path / "tweets.jsonl", "ab") as fh:
            fh.write(b"\xff\xfe\n")
        with caplog.at_level("WARNING"):
            assert main(["run", "--config", str(ini)]) == 0
        assert any("malformed" in m for m in caplog.messages)

    def test_undecodable_tweet_lines_over_cap_return_two(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        with open(tmp_path / "tweets.jsonl", "ab") as fh:
            fh.write(b"\xff\xfe\n" * 5)
        assert main(["run", "--config", str(ini)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_tweets_over_the_cap_leave_no_keywords_or_labels(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        with open(tmp_path / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n" * 5)
        assert main(["run", "--config", str(ini)]) == 2
        assert "malformed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "keywords.csv").exists()
        assert not (tmp_path / "out" / "labels.csv").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("aspects.txt", "# no aspect here\n", "aspects.txt: aspect lexicon lists no aspect"),
        ("aspects.txt", "tax\nbank\n\nTax\n",
         "aspects.txt:4: duplicate aspect 'tax' (first listed on line 1)"),
        ("pos.txt", "\n# none\n", "pos.txt: term file lists no term"),
        ("neg.txt", "bad\nGood\n", "neg.txt:2: term 'good' is also listed in"),
    ])
    def test_unusable_lexicon_returns_two(self, tmp_path, capsys, name, text, message):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(ini)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, value", [("fp", "-1.0"), ("fs", "inf"), ("nfp", "nan")])
    def test_bad_score_value_returns_two(self, tmp_path, capsys, monkeypatch, kind, value):
        ini = build_tweet_tree(tmp_path)
        assert main(["run", "--config", str(ini)]) == 0
        lines = (tmp_path / "out" / "scores.csv").read_text(encoding="utf-8").splitlines()
        line = next(i for i, text in enumerate(lines, start=1) if f",{kind}," in text)
        aspect, day, _, _ = lines[line - 1].split(",")
        lines[line - 1] = f"{aspect},{day},{kind},{value}"
        (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        argv = ["analyze", "--config", "config.ini", "--scores", "scores.csv",
                "--out", "new_cells.csv"]
        assert main(argv) == 2
        assert f"scores.csv:{line}: {kind} must" in capsys.readouterr().err
        assert not (tmp_path / "new_cells.csv").exists()

    def test_calendar_line_that_is_not_a_date_returns_two(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        add_calendar(ini, [DAYS[0].isoformat(), "not-a-date", DAYS[1].isoformat()])
        assert main(["run", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "days.txt:2:" in err and "not-a-date" in err

    @pytest.mark.parametrize("name", sorted(UNDECODABLE_CASES))
    def test_undecodable_input_names_file_and_line(self, tmp_path, capsys, monkeypatch, name):
        argv, expected = UNDECODABLE_CASES[name]
        clean_run_tree(tmp_path, capsys, monkeypatch)
        line = append_line(tmp_path / name, b"\xff\xfe")
        assert main(argv) == expected
        assert f"{name}:{line}: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("name", CSV_INPUTS)
    def test_oversized_csv_field_names_file_and_line(self, tmp_path, capsys, monkeypatch,
                                                     name):
        argv, _ = UNDECODABLE_CASES[name]
        clean_run_tree(tmp_path, capsys, monkeypatch)
        line = append_line(tmp_path / name, b"2022-10-03," + b"9" * 140_000)
        assert main(argv) == 2
        assert f"{name}:{line}: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    @pytest.mark.parametrize("command, flag", INPUT_FLAGS)
    def test_unreadable_input_path_returns_two(self, tmp_path, capsys, monkeypatch,
                                               command, flag, unreadable):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        (tmp_path / "a_directory").mkdir()
        path = {"missing": "no_such_file", "directory": "a_directory"}[unreadable]
        argv = list(STAGE_ARGV[command])
        argv[argv.index(flag) + 1] = path
        assert main([command, *argv]) == 2
        assert f"error: {path}: cannot open file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, target, message", [
        (["score", "--labels", "labels.csv", "--out", "no_such_dir/s.csv"],
         "no_such_dir/s.csv", "cannot write file"),
        (["report", "--cells", "cells.csv", "--out-dir", "a_file"],
         "a_file", "cannot create directory"),
        (["run", "--config", "config.ini", "--output-dir", "a_file"],
         "a_file", "cannot create directory"),
        (["fixture", "--out-dir", "a_file"], "a_file", "cannot create directory"),
    ])
    def test_unwritable_output_path_returns_two(self, tmp_path, capsys, monkeypatch,
                                                argv, target, message):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        (tmp_path / "a_file").write_text("", encoding="utf-8")
        assert main(argv) == 2
        assert f"error: {target}: {message}: " in capsys.readouterr().err
        assert (tmp_path / "a_file").read_text(encoding="utf-8") == ""

    def test_bad_label_row_leaves_no_scores(self, tmp_path, capsys, monkeypatch):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        line = append_line(tmp_path / "labels.csv", b"t9,2022-10-03,tax,sideways")
        assert main(["score", "--labels", "labels.csv", "--out", "new_scores.csv"]) == 2
        assert f"labels.csv:{line}: unknown polarity 'sideways'" in capsys.readouterr().err
        assert not (tmp_path / "new_scores.csv").exists()
        # the same file as the external labels of a run
        ini = tmp_path / "config.ini"
        ini.write_text(ini.read_text(encoding="utf-8").replace(
            "[prices]", "labels = labels.csv\n[prices]"), encoding="utf-8")
        assert main(["run", "--config", "config.ini", "--output-dir", "bad_run"]) == 2
        assert f"labels.csv:{line}: unknown polarity" in capsys.readouterr().err
        assert not (tmp_path / "bad_run" / "scores.csv").exists()

    @pytest.mark.parametrize("command, name, row, unwritten", [
        ("score", "labels.csv", b"t9,2022-10-03,  ,positive", "new_scores.csv"),
        ("run", "labels.csv", b"t9,2022-10-03,  ,positive", "bad_run/scores.csv"),
        ("analyze", "scores.csv", b" ,2022-10-03,fp,1.0", "new_cells.csv"),
    ], ids=["score", "run", "analyze"])
    def test_empty_aspect_returns_two(self, tmp_path, capsys, monkeypatch,
                                      command, name, row, unwritten):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        line = append_line(tmp_path / name, row)
        if command == "run":
            ini = tmp_path / "config.ini"
            ini.write_text(ini.read_text(encoding="utf-8").replace(
                "[prices]", "labels = labels.csv\n[prices]"), encoding="utf-8")
            argv = ["run", "--config", "config.ini", "--output-dir", "bad_run"]
        else:
            argv = [command, *STAGE_ARGV[command]]
        assert main(argv) == 2
        assert f"error: {name}:{line}: empty aspect\n" == capsys.readouterr().err
        assert not (tmp_path / unwritten).exists()

    def test_repeated_score_row_returns_two(self, tmp_path, capsys, monkeypatch):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        scores = tmp_path / "scores.csv"
        aspect, day, _, _ = next(line for line in scores.read_text(encoding="utf-8").splitlines()
                                 if ",fp," in line).split(",")
        compact = day.replace("-", "")
        line = append_line(scores, f"{aspect},{compact},fp,1.0".encode())
        assert main(["analyze", *STAGE_ARGV["analyze"]]) == 2
        assert (f"error: scores.csv:{line}: repeated fp row for aspect {aspect!r} on {day}\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "new_cells.csv").exists()

    def test_repeated_price_date_returns_two(self, tmp_path, capsys, monkeypatch):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        prices = tmp_path / "AAA.csv"
        day = prices.read_text(encoding="utf-8").splitlines()[3].split(",")[0]
        line = append_line(prices, f"{day},12.5".encode())
        assert main(["analyze", *STAGE_ARGV["analyze"]]) == 2
        assert f"error: AAA.csv:{line}: repeated Date {day}\n" == capsys.readouterr().err
        assert not (tmp_path / "new_cells.csv").exists()

    @pytest.mark.parametrize("command, option, message", [
        ("label", ["--window", "-1"], "window must be >= 0, got -1"),
        ("keywords", ["--malformed-cap", "-1"],
         "max_malformed_fraction must lie in [0, 1], got -1.0"),
        ("keywords", ["--min-count", "-3"], "min_keyword_count must be >= 1, got -3"),
        # The config rules are the statistics' only guard: both ends of each.
        ("analyze", ["--lag", "0"], "lag must be >= 1, got 0"),
        ("analyze", ["--granger-lag", "0"], "granger_lag must be >= 1, got 0"),
        ("analyze", ["--granger-alpha", "0"], "granger_alpha must lie in (0, 1), got 0.0"),
        ("analyze", ["--granger-alpha", "1"], "granger_alpha must lie in (0, 1), got 1.0"),
        ("analyze", ["--pearson-threshold", "-0.1"],
         "pearson_threshold must lie in [0, 1), got -0.1"),
        ("analyze", ["--pearson-threshold", "1"],
         "pearson_threshold must lie in [0, 1), got 1.0"),
        ("analyze", ["--entropy-k", "0"], "entropy_k must lie in 1..20, got 0"),
        ("analyze", ["--entropy-k", "21"], "entropy_k must lie in 1..20, got 21"),
    ])
    def test_stage_option_breaking_its_key_rule_returns_one(
            self, tmp_path, capsys, monkeypatch, command, option, message):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        assert main([command, *STAGE_ARGV[command], *option]) == 1
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / STAGE_ARGV[command][-1]).exists()

    def test_negative_fixture_seed_returns_one(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        assert main(["fixture", "--out-dir", str(out_dir), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("error, code", [
        (errors.RankDeficient, 2), (errors.ConfigError, 1),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_any_package_error_is_reported_without_a_traceback(
            self, tmp_path, capsys, monkeypatch, error, code):
        def broken(*args, **kwargs):
            raise error("argument outside the domain")

        monkeypatch.setattr(sentdep.pipeline, "stage_analyze", broken)
        assert main(["run", "--config", str(build_tweet_tree(tmp_path))]) == code
        assert capsys.readouterr().err == "error: argument outside the domain\n"

    def test_huge_and_subnormal_closes_run_to_the_end(self, tmp_path):
        # How many Granger cells such closes leave RankDeficient is not
        # pinned here: the F-test should not depend on the scale at all.
        # The run is a fresh process whose stderr, the analysis worker's
        # included, goes to its stdout.
        assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
        for ticker, exponent in (("NEE", 1012), ("SHEL", -1070)):
            prices = tmp_path / f"prices_{ticker}.csv"
            rows = [line.split(",") for line in prices.read_text(encoding="utf-8").splitlines()]
            close = rows[0].index("Close")
            for row in rows[1:]:
                row[close] = repr(math.ldexp(float(row[close]), exponent))
            prices.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        assert 0 < float(rows[1][close]) < sys.float_info.min  # subnormal
        out = run_python(MERGED_STDERR_RUN, tmp_path / "config.ini")  # asserts exit 0
        assert "Traceback" not in out
        assert "RuntimeWarning" not in out
        assert len(read_cells(tmp_path / "out" / "cells.csv")) == 480

    @pytest.mark.parametrize("rows", [[HALF_FILLED_ROW], [CAUSAL_ROW, HALF_FILLED_ROW]],
                             ids=["alone", "after a causal row"])
    def test_half_filled_statistic_group_returns_two(self, tmp_path, capsys, rows):
        # A causal row with no F, p or reason: report once wrote it to
        # granger.csv as None, and beside another causal row of its
        # ticker broke the sort by p.
        cells = tmp_path / "cells.csv"
        cells.write_text(CELL_HEADER + "".join(rows), encoding="utf-8")
        out_dir = tmp_path / "report"
        assert main(["report", "--cells", str(cells), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cells}:{len(rows) + 1}: granger_f empty without granger_reason\n")
        assert not out_dir.exists()

    def test_repeated_cell_returns_two(self, tmp_path, capsys):
        # report once took the last row's r into the heatmap and listed
        # the pair twice in granger.csv.
        cells = tmp_path / "cells.csv"
        cells.write_text(CELL_HEADER + REPEATED_CELL_ROWS, encoding="utf-8")
        out_dir = tmp_path / "report"
        assert main(["report", "--cells", str(cells), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cells}:3: repeated cell (inflation, fp, NEE)\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, message", [
        (["label", "--tweets", "t.jsonl", "--out", "l.csv", "--window", "-1"],
         "window must be >= 0, got -1"),
        (["keywords", "--tweets", "t.jsonl", "--out", "k.csv", "--malformed-cap", "-1"],
         "max_malformed_fraction must lie in [0, 1], got -1.0"),
        (["keywords", "--tweets", "t.jsonl", "--out", "k.csv", "--min-count", "-3"],
         "min_keyword_count must be >= 1, got -3"),
        (["fixture", "--out-dir", "demo", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--config", "c.ini", "--lag", "0"], "lag must be >= 1, got 0"),
        (["analyze", "--config", "c.ini", "--scores", "s.csv", "--out", "c.csv",
          "--entropy-k", "99"], "entropy_k must lie in 1..20, got 99"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_a_bad_key_option_returns_one_before_any_file_is_read(
            self, tmp_path, capsys, monkeypatch, argv, message):
        # None of the named files exists: the option is checked first.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_negative_pair_count_returns_two(self, tmp_path, capsys):
        # report once wrote every file of a cell whose n was -3.
        assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
        assert main(["run", "--config", str(tmp_path / "config.ini")]) == 0
        cells = tmp_path / "out" / "cells.csv"
        header, first, *rest = cells.read_text(encoding="utf-8").splitlines(keepends=True)
        row = first.split(",")
        row[[column.name for column in CELL_COLUMNS].index("n")] = "-3"
        cells.write_text(header + ",".join(row) + "".join(rest), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "report"
        assert main(["report", "--cells", str(cells), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {cells}:2: bad n '-3'\n"
        assert not out_dir.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_a_write_that_fails_after_the_open_returns_two(self, tmp_path, capsys,
                                                           monkeypatch):
        # The open of /dev/full succeeds and its first write fails; this
        # once ended in an OSError traceback.
        clean_run_tree(tmp_path, capsys, monkeypatch)
        assert main(["score", "--labels", "labels.csv", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == (
            "error: /dev/full: cannot write file: No space left on device\n")

    def test_a_run_past_the_file_size_limit_returns_two(self, tmp_path):
        # The joined labels.csv is the first file past 20,000 bytes. Its
        # write in the ingest child once ended in the parent's RuntimeError
        # "a forked process failed".
        resource = pytest.importorskip("resource")
        if not (hasattr(signal, "SIGXFSZ") and hasattr(resource, "RLIMIT_FSIZE")):
            pytest.skip("no file size limit")
        assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0

        def limited():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (20_000, 20_000))

        src = str(Path(sentdep.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "sentdep.cli", "run", "--config", "config.ini"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), preexec_fn=limited,
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        errors_printed = [line for line in done.stderr.splitlines() if "error" in line.lower()]
        assert errors_printed == [
            f"error: {Path('out', 'labels.csv')}: cannot write file: File too large"]
        assert "Traceback" not in done.stderr
        assert not [p.name for p in (tmp_path / "out").iterdir() if p.name.startswith(".")]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "sentdep" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


#: Close cells the price reader skips.
SKIPPED_CLOSES = ["null", "", "-1", "0", "inf", "nan", "1e400", "abc"]

#: ISO dates around the fixture's Q4 2022 calendar.
FUZZ_DAYS = st.dates(date(2022, 9, 26), date(2023, 1, 6)).map(date.isoformat)


@st.composite
def price_rows(draw):
    """(Date, Close) rows: distinct dates, then up to two repeated ones.

    A usable close is either any finite positive float, subnormals and the
    largest included, or, for the whole file, a float in [2^e, 2^(e+1)) for
    one drawn e, so that a series can be huge or tiny as a whole.
    """
    e = draw(st.none() | st.integers(-1074, 1023))
    if e is None:
        usable = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    else:
        usable = st.floats(1.0, 2.0, exclude_max=True).map(lambda m: math.ldexp(m, e))
    closes = st.one_of(usable.map(repr), usable.map(repr), st.sampled_from(SKIPPED_CLOSES))
    n = draw(st.integers(0, 80))
    rows = [(day, draw(closes))
            for day in draw(st.lists(FUZZ_DAYS, min_size=n, max_size=n, unique=True))]
    repeats = draw(st.integers(0, 2)) if rows else 0
    for _ in range(repeats):
        day = draw(st.sampled_from(rows))[0]
        rows.insert(draw(st.integers(0, len(rows))), (day, draw(closes)))
    return rows


def test_any_price_rows_end_in_exit_zero_or_two(tmp_path_factory):
    """Whole-program fuzz of one ticker's price file in the fixture tree."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    assert main(["run", "--config", str(root / "config.ini")]) == 0
    prices = root / "prices_NEE.csv"
    argv = ["analyze", "--config", str(root / "config.ini"),
            "--scores", str(root / "out" / "scores.csv"), "--out", str(root / "cells.csv")]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(price_rows())
    def check(rows):
        prices.write_text("Date,Close\n" + "".join(f"{day},{close}\n" for day, close in rows),
                          encoding="utf-8")
        assert main(argv) in (0, 2)

    check()


def tweet_json(tweet_id: str, created_at: str, text: str, lang: str = "en") -> str:
    return json.dumps({"id": tweet_id, "created_at": created_at, "text": text, "lang": lang})


#: Tweet lines that each ended ``sentdep label``, ``keywords`` or ``run``
#: in a traceback before they counted as malformed: UTC days before year 1
#: and after year 9999, nesting too deep to decode, and lone surrogates
#: from ``\u`` escapes in an id and in a text.
BROKEN_TWEET_LINES = [
    tweet_json("x1", "0001-01-01T00:30:00+01:00", "inflation gains"),
    tweet_json("x2", "9999-12-31T23:30:00-01:00", "inflation gains"),
    "[" * 200_000,
    tweet_json("t\ud800x", "2022-10-03T12:00:00Z", "inflation gains"),
    tweet_json("x3", "2022-10-03T12:00:00Z", "inflation a\udc00b numbers"),
]

#: Words of the drawn tweets: fixture aspects, opinion terms and noise.
FUZZ_WORDS = ["inflation", "energy", "gains", "fears", "the", "#Tax", "$NEE", "it's",
              "https://x.co/a", "WWW.x.org", "ſ", "\u212a", "İ", "--"]

UTC_OFFSETS = st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"),
                        st.integers(0, 23), st.integers(0, 59))


@st.composite
def tweet_lines(draw) -> bytes:
    """A tweet file: valid records among random bytes, timestamps at the
    ends of the calendar with any offset, deep nesting and ``\\u`` escapes."""
    clock = st.builds("T{:02d}:{:02d}:00".format, st.integers(0, 23), st.integers(0, 59))
    offset = st.sampled_from(["", "Z", "+00:00"]) | UTC_OFFSETS
    text = st.lists(st.sampled_from(FUZZ_WORDS), min_size=1, max_size=8).map(" ".join)
    valid = st.builds(tweet_json, st.from_regex(r"t[0-9]{1,4}", fullmatch=True),
                      st.builds("{}{}{}".format, FUZZ_DAYS, clock, offset), text,
                      st.sampled_from(["en", "en", "fr"]))
    extreme = st.builds(tweet_json, st.just("e1"),
                        st.builds("{}{}{}".format,
                                  st.sampled_from(["0001-01-01", "9999-12-31"]),
                                  clock, UTC_OFFSETS),
                        text)
    escape = st.builds(lambda line, at, code: line[:at] + f"\\u{code:04x}" + line[at:],
                       valid, st.integers(8, 60), st.integers(0, 0xFFFF))
    nesting = st.builds(lambda opener, n: opener * n, st.sampled_from(["[", '{"a":']),
                        st.sampled_from([10, 5_000, 200_000]))
    line = st.one_of(valid.map(str.encode), extreme.map(str.encode),
                     escape.map(str.encode),
                     nesting.map(str.encode), st.binary(max_size=40),
                     st.text(max_size=40).map(str.encode))
    good = draw(st.lists(valid, max_size=30))
    lines = [g.encode() for g in good] + draw(st.lists(line, max_size=8))
    return b"\n".join(draw(st.permutations(lines))) + b"\n"


def test_any_tweet_lines_end_in_exit_zero_or_two(tmp_path_factory):
    """Whole-program fuzz of the tweet file, through the label and keyword stages."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    tweets = root / "tweets.jsonl"
    label = ["label", "--tweets", str(tweets), "--aspects", str(root / "aspects.txt"),
             "--positive-terms", str(root / "positive_terms.txt"),
             "--negative-terms", str(root / "negative_terms.txt"),
             "--out", str(root / "labels.csv")]
    keywords = ["keywords", "--tweets", str(tweets), "--min-count", "1",
                "--out", str(root / "keywords.csv")]
    good = b"".join(tweet_json(f"g{i}", "2022-10-03T12:00:00Z", "inflation gains").encode()
                    + b"\n" for i in range(20))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(tweet_lines())
    @example(good + b"".join(line.encode() + b"\n" for line in BROKEN_TWEET_LINES[:2]))
    @example(good + BROKEN_TWEET_LINES[2].encode() + b"\n")
    @example(good + b"".join(line.encode() + b"\n" for line in BROKEN_TWEET_LINES[3:]))
    def check(data):
        tweets.write_bytes(data)
        assert main(label) in (0, 2)
        assert main(keywords) in (0, 2)

    check()


def csv_line(fields) -> bytes:
    """One row as the CSV writer writes it, quoting line breaks."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue().encode()


LABEL_HEADER = b"tweet_id,date,aspect,polarity"

#: Date and polarity fields that a label row may not hold.
BAD_LABEL_DATES = ["", "2022-13-01", "10/03/2022", "2022-10-03T12:00", "0000-01-01", "٣"]
BAD_POLARITIES = ["", "Positive", "pos", "1", "neutral\n"]


@st.composite
def label_lines(draw) -> bytes:
    """A label file: valid rows among random bytes, short and long rows,
    quoted line breaks, blank rows, bad dates and bad polarities."""
    tweet_id = st.from_regex(r"t[0-9]{1,4}", fullmatch=True)
    aspect = st.sampled_from(["inflation", "energy", " energy ", "not listed", 'a "q"',
                              "two\nlines", "a,b"])
    polarity = st.sampled_from(["positive", "negative", "neutral", " neutral "])
    day = FUZZ_DAYS | st.sampled_from(["0001-01-01", "9999-12-31", " 2022-10-03 ", "20221003"])
    valid = st.tuples(tweet_id, day, aspect, polarity)
    field = st.one_of(tweet_id, day, aspect, polarity, st.sampled_from(BAD_LABEL_DATES),
                      st.sampled_from(BAD_POLARITIES), st.text(max_size=12))
    row = st.one_of(st.tuples(tweet_id, st.sampled_from(BAD_LABEL_DATES), aspect, polarity),
                    st.tuples(tweet_id, day, aspect, st.sampled_from(BAD_POLARITIES)),
                    st.tuples(st.sampled_from(["", " "]), day, aspect, polarity),
                    st.tuples(tweet_id, day, st.sampled_from(["", " "]), polarity),
                    st.lists(field, max_size=7))
    line = st.one_of(row.map(csv_line), st.binary(max_size=40),
                     st.sampled_from([b"\n", b"  \n", b",,,\n", b'"open quote\n']))
    header = draw(st.sampled_from([LABEL_HEADER + b"\n"] * 4
                                  + [b"", b"\n", b"tweet_id,date,aspect\n",
                                     b" tweet_id , date , aspect , polarity \r\n"]))
    lines = [csv_line(v) for v in draw(st.lists(valid, max_size=40))]
    lines += draw(st.lists(line, max_size=4))
    return header + b"".join(draw(st.permutations(lines)))


def test_any_label_rows_end_in_exit_zero_or_two(tmp_path_factory):
    """Whole-program fuzz of an external label file, through ``score`` and ``run``."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    labels = root / "labels.csv"
    config = root / "labels.ini"
    config.write_text((root / "config.ini").read_text(encoding="utf-8").replace(
        "tweets = tweets.jsonl\n", "labels = labels.csv\n"), encoding="utf-8")
    score = ["score", "--labels", str(labels), "--out", str(root / "scores.csv")]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(label_lines())
    @example(LABEL_HEADER + b"\n" + csv_line(["t1", "2022-10-03", "inflation", "positive"]))
    @example(LABEL_HEADER + b"\n" + csv_line(["t1", "2022-10-03", "two\nlines", "positive"])
             + b't2,2022-10-04,"open quote\n')
    def check(data):
        labels.write_bytes(data)
        assert main(score) in (0, 2)
        assert main(["run", "--config", str(config)]) in (0, 2)

    check()


@st.composite
def mutated_csv(draw, path: Path, bad_fields: list[str]) -> bytes:
    """A run of up to 150 rows of the CSV file at ``path``, which the
    program wrote, with up to four of them mutated (a field set to a bad
    value or any text, a field dropped or added, the row repeated, blanked
    or replaced by random bytes), under a valid, missing, short or padded
    CRLF header."""
    header, *lines = path.read_bytes().splitlines(keepends=True)
    start = draw(st.integers(0, len(lines) - 1))
    rows = [next(csv.reader([line.decode()])) for line in lines[start:start + 150]]
    out = [csv_line(row) for row in rows]
    field = st.sampled_from(bad_fields) | st.text(max_size=10)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        how = draw(st.sampled_from(["field", "field", "drop", "add", "repeat", "blank",
                                    "bytes"]))
        if how == "repeat":
            out[i] *= 2
            continue
        if how == "blank":
            out[i] = b"\n"
            continue
        if how == "bytes":
            out[i] = draw(st.binary(max_size=40)) + b"\n"
            continue
        if how == "field":
            row[draw(st.integers(0, len(row) - 1))] = draw(field)
        elif how == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.append(draw(field))
        out[i] = csv_line(row)
    padded = b",".join(b" " + f + b" " for f in header.rstrip(b"\n").split(b",")) + b"\r\n"
    return draw(st.sampled_from([header] * 4 + [b"", b"a,b\n", padded])) + b"".join(out)


#: Score-file fields that a row may not hold, or that only some kinds may.
BAD_SCORE_FIELDS = ["", " ", "fx", "FP", "fs", "nfp", "-1.0", "0.5", "1.5", "nan", "inf",
                    "1e400", "-0.0", "2022-13-01", "20221003", "0001-01-01", "9999-12-31",
                    "a,b", 'q"', "two\nlines", "new aspect"]

#: Cell-file fields that a row may not hold, or that only some columns may.
BAD_CELL_FIELDS = ["", " ", "-1", "1.5", "99999999999999999999", "nan", "inf", "-inf",
                   "-0.0", "1e309", "0x1p-2", "true", "false", "True", "1", "fp", "fx",
                   "InsufficientData", "Unknown", "a,b", 'q"', "two\nlines", "new"]


@st.composite
def calendar_lines(draw, days: list[str]) -> bytes:
    """A calendar file: a run of the trading days among bad dates,
    comments, blank lines, repeated days and random bytes, in any order."""
    start = draw(st.integers(0, len(days) - 1))
    lines = [d.encode() for d in days[start:start + draw(st.integers(0, len(days)))]]
    extra = (st.sampled_from(["2022-13-01", "# note", "", "   ", "20221003", "0001-01-01",
                              "9999-12-31", "2022-10-03 x", "2022-10-03", " 2022-10-04 "])
             .map(str.encode) | st.binary(max_size=20))
    lines += draw(st.lists(extra, max_size=4))
    return b"\n".join(draw(st.permutations(lines))) + draw(st.sampled_from([b"\n", b""]))


def fixture_run(root: Path) -> Path:
    """A fixture run into ``root / "out"`` and a config of two tickers and
    three top aspects over the same inputs, for quicker analyses."""
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    assert main(["run", "--config", str(root / "config.ini")]) == 0
    small = root / "small.ini"
    text = (root / "config.ini").read_text(encoding="utf-8")
    text = text.replace("top_n_aspects = 20", "top_n_aspects = 3")
    small.write_text("".join(line for line in text.splitlines(keepends=True)
                             if not line.startswith(("XOM", "BEPC", "CWEN", "NEE"))),
                     encoding="utf-8")
    return small


def test_any_score_or_calendar_rows_end_in_exit_zero_or_two(tmp_path_factory):
    """Whole-program fuzz of ``analyze``'s score file and trading calendar."""
    root = tmp_path_factory.mktemp("fuzz")
    small = fixture_run(root)
    written = root / "out" / "scores.csv"
    scores = root / "scores.csv"
    analyze = ["analyze", "--config", str(small), "--scores", str(scores),
               "--out", str(root / "cells.csv")]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mutated_csv(written, BAD_SCORE_FIELDS))
    @example(written.read_bytes())
    def check_scores(data):
        scores.write_bytes(data)
        assert main(analyze) in (0, 2)

    check_scores()
    scores.write_bytes(written.read_bytes())
    days = [row[0] for row in csv.reader(io.StringIO(
        (root / "prices_SHEL.csv").read_text(encoding="utf-8")))][1:]
    calendar = add_calendar(small, days)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(calendar_lines(days))
    @example(b"2022-10-03\n")
    @example(b"# no day\n\n")
    def check_calendar(data):
        calendar.write_bytes(data)
        assert main(analyze) in (0, 2)

    check_calendar()


def test_any_cell_rows_end_in_exit_zero_or_two(tmp_path_factory):
    """Whole-program fuzz of ``report``'s cell file."""
    root = tmp_path_factory.mktemp("fuzz")
    fixture_run(root)
    written = root / "out" / "cells.csv"
    cells = root / "cells.csv"
    report = ["report", "--cells", str(cells), "--out-dir", str(root / "report")]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mutated_csv(written, BAD_CELL_FIELDS))
    @example(written.read_bytes())
    @example((CELL_HEADER + CAUSAL_ROW + HALF_FILLED_ROW).encode())
    @example((CELL_HEADER + REPEATED_CELL_ROWS).encode())
    def check(data):
        cells.write_bytes(data)
        assert main(report) in (0, 2)

    check()


#: Lines of an aspect or term file: the tweet tree's own terms, overlapping,
#: repeated and cased ones, comments and blanks, punctuation, quotes,
#: commas, a NUL, a byte-order mark and a 5,000-character term.
LEXICON_LINES = ["tax", "bank", "good", "bad", "strong", "weak", "Tax", "TAX", "tax outlook",
                 "the tax outlook", "outlook is", "today", "good bad", "", "   ", "# note",
                 "tax # note", "!!!", "'", '"', '"tax"', ",", "tax,bank", "\x00", "ta\x00x",
                 "\ufeff", "\ufefftax", "x" * 5000, "tax\tbank", "ß", "İ"]


@st.composite
def lexicon_file(draw, original: bytes) -> bytes:
    """An aspect or term file: some of the lines of ``original`` among up
    to three lines drawn from LEXICON_LINES, any text or random bytes, in
    any order, joined by LF or CRLF."""
    kept = [line for line in original.splitlines() if draw(st.integers(0, 4))]
    line = st.one_of(st.sampled_from(LEXICON_LINES).map(str.encode),
                     st.text(max_size=10).map(str.encode), st.binary(max_size=8))
    lines = draw(st.permutations(kept + draw(st.lists(line, max_size=3))))
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(lines) + draw(
        st.sampled_from([b"\n", b""]))


LEXICON_FILES = ("aspects.txt", "pos.txt", "neg.txt")


def test_any_lexicon_and_term_files_end_in_exit_zero_or_two(tmp_path_factory):
    """Whole-program fuzz of the aspect lexicon and the two term files."""
    root = tmp_path_factory.mktemp("fuzz")
    argv = ["run", "--config", str(build_tweet_tree(root))]
    originals = [(root / name).read_bytes() for name in LEXICON_FILES]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.tuples(*map(lexicon_file, originals)))
    @example(originals)
    @example([b"tax\nta\x00x\n", "\ufeffgood\nstrong\n".encode(), b"bad\n" + b"x" * 5000 + b"\n"])
    def check(files):
        for name, data in zip(LEXICON_FILES, files):
            (root / name).write_bytes(data)
        assert main(argv) in (0, 2)

    check()


#: Values a config key is set to in the fuzz: bad numbers and booleans,
#: paths relative to the config file (to no file, a directory, an input of
#: another kind), an embedded NUL, interpolation syntax and a line break.
FUZZ_CONFIG_VALUES = [
    "", "0", "-1", "1", "2", "20", "21", "0.5", "1.5", "1e3", "nan", "inf", "-0", "0x10",
    "1_0", "\u0661\u0662", "9" * 30, "yes", "no", "On", "maybe", ".", "out", "nope.txt",
    "tweets.jsonl", "AAA.csv", "aspects.txt", "days.txt", "labels.csv", "config.ini",
    "a\x00b", "%(x)s", "x\n  y",
]

#: The paths of :func:`full_config`, relative to the config file.
FULL_CONFIG_PATHS = {"aspects": "aspects.txt", "tweets": "tweets.jsonl",
                     "positive_terms": "pos.txt", "negative_terms": "neg.txt",
                     "calendar": "days.txt", "output_dir": "out"}


def full_config() -> list[str]:
    """The lines of a config of the tweet tree that sets every key, with a
    calendar, each value its default."""
    lines, section = [], None
    for key in sentdep.pipeline.CONFIG_KEYS:
        if key.section != section:
            section = key.section
            lines.append(f"[{section}]\n")
        if key.kind is dict:
            lines.append("AAA = AAA.csv\n")
        elif key.name != "labels":
            value = FULL_CONFIG_PATHS.get(key.name, key.default)
            lines.append(f"{key.key} = {str(value).lower() if key.kind is bool else value}\n")
    return lines


@st.composite
def config_files(draw) -> bytes:
    """A full config with up to five mutations: a value, key or section
    name replaced, a known key added, a line dropped or repeated, or a
    line of random text or bytes inserted."""
    lines = full_config()
    # Without "/", "\\" or ".", a drawn path stays inside the config's directory.
    text = st.text(st.characters(blacklist_characters="/\\.", blacklist_categories=("Cs",)),
                   max_size=10)
    value = st.sampled_from(FUZZ_CONFIG_VALUES) | text
    keys = [key.key for key in sentdep.pipeline.CONFIG_KEYS] + ["AAA", "BBB"]
    sections = sorted({key.section for key in sentdep.pipeline.CONFIG_KEYS}) + ["DEFAULT"]
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["value", "value", "key", "section", "add", "drop",
                                    "repeat", "text", "bytes"]))
        name, sep, old = lines[i].partition(" = ")
        if how == "value" and sep:
            lines[i] = f"{name} = {draw(value)}\n"
        elif how == "key" and sep:
            lines[i] = f"{draw(st.sampled_from(keys) | text)} = {old}"
        elif how == "section":
            lines[i] = f"[{draw(st.sampled_from(sections) | text)}]\n"
        elif how == "add":
            lines.insert(i, f"{draw(st.sampled_from(keys))} = {draw(value)}\n")
        elif how == "drop":
            del lines[i]
        elif how == "repeat":
            lines.insert(i, lines[i])
        elif how == "text":
            lines.insert(i, draw(text) + "\n")
        elif how == "bytes":
            lines.insert(i, draw(st.binary(max_size=20)).decode("utf-8", "surrogateescape")
                         + "\n")
    return "".join(lines).encode("utf-8", "surrogateescape")


def test_any_config_file_ends_in_exit_zero_one_or_two(tmp_path_factory):
    """Whole-program fuzz of the config file, through ``run`` and ``analyze``."""
    root = tmp_path_factory.mktemp("fuzz")
    ini = build_tweet_tree(root)
    add_calendar(ini, [d.isoformat() for d in DAYS])
    assert main(["run", "--config", str(ini)]) == 0
    for produced in ("labels.csv", "scores.csv"):
        (root / produced).write_bytes((root / "out" / produced).read_bytes())
    config = root / "fuzzed.ini"
    run = ["run", "--config", str(config)]
    analyze = ["analyze", "--config", str(config), "--scores", str(root / "scores.csv"),
               "--out", str(root / "cells.csv")]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config_files())
    @example("".join(full_config()).encode())
    @example("".join(full_config()).replace("dir = out", "dir = a\x00b").encode())
    # a lag longer than the calendar, but not twice as long
    @example("".join(full_config()).replace("\nlag = 1\n", f"\nlag = {len(DAYS) + 1}\n")
             .encode())
    def check(data):
        config.write_bytes(data)
        assert main(run) in (0, 1, 2)
        assert main(analyze) in (0, 1, 2)

    check()


@pytest.mark.parametrize("broken", BROKEN_TWEET_LINES,
                         ids=["year_0", "year_10000", "nesting", "surrogate_id",
                              "surrogate_text"])
def test_a_broken_tweet_line_is_one_malformed_line_of_a_run(tmp_path, caplog, broken):
    assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    lineno = append_line(tmp_path / "tweets.jsonl", broken.encode())
    with caplog.at_level("WARNING"):
        assert main(["run", "--config", str(tmp_path / "config.ini")]) == 0
    assert f"skipped 1 malformed line(s), first at line {lineno}" in caplog.text


#: ``sentdep run`` of the config argv[1] with file descriptor 2 joined to 1,
#: so that the stdout of ``run_python`` holds every process's stderr.
MERGED_STDERR_RUN = (
    "import os, sys\n"
    "os.dup2(1, 2)\n"
    "from sentdep.cli import main\n"
    "sys.exit(main(['run', '--config', sys.argv[1]]))\n"
)


def run_interpreter(*args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` and this checkout's package on
    its path; it must exit 0."""
    src = str(Path(sentdep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, *map(str, args)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def run_python(code: str, *args, cwd=None) -> str:
    """stdout of a fresh interpreter running ``code`` with this checkout's
    package on its path; it must exit 0."""
    return run_interpreter("-c", code, *args, cwd=cwd).stdout


#: Validates the config named by argv[1], then prints the loaded modules
#: named argv[2] or below it.
VALIDATE_AND_LIST = (
    "import sys, sentdep.cli\n"
    "from sentdep.pipeline import load_config\n"
    "load_config(sys.argv[1]).validate()\n"
    "top = sys.argv[2]\n"
    "print(sorted(m for m in sys.modules if m == top or m.startswith(top + '.')))\n"
)


def test_cli_import_and_config_validation_load_no_scipy(tmp_path):
    ini = build_tweet_tree(tmp_path)
    assert run_python(VALIDATE_AND_LIST, ini, "scipy").strip() == "[]"


#: numpy submodules that SciPy's array-API layer would load through its
#: clone of numpy's namespace, and no process of a run uses.
UNUSED_NUMPY_SUBMODULES = ("numpy.f2py", "numpy.testing", "numpy.random", "numpy.ma",
                           "numpy.polynomial")

#: What ``import scipy.special`` runs besides the compiled ufuncs: the
#: package itself, SciPy's array-API layer and its docstring parser. No
#: process of a run loads them (see ``pipeline._import_scipy_special``).
UNUSED_SCIPY_MODULES = ("scipy.special", "scipy.special._support_alternative_backends",
                        "scipy._lib._array_api", "scipy._lib._docscrape")


def test_no_process_of_a_fixture_run_loads_scipy_spatial(tmp_path):
    # -X importtime logs each module a process loads to stderr, which the
    # forked ingest child and analysis worker inherit. Nor does any of
    # them load numpy's unused submodules, the scipy.special package or
    # SciPy's array-API layer: only the package's compiled ufuncs.
    assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    ini = tmp_path / "config.ini"
    unused = ("scipy.spatial", "scipy._lib.array_api_compat", *UNUSED_NUMPY_SUBMODULES)
    below_unused = tuple(f"{top}." for top in unused)
    for argv in (["run", "--config", ini],
                 ["analyze", "--config", ini, "--scores", tmp_path / "out" / "scores.csv",
                  "--out", tmp_path / "cells.csv"]):
        log = run_interpreter("-X", "importtime", "-m", "sentdep.cli", *argv,
                              cwd=tmp_path).stderr
        modules = [line.split("|")[-1].strip() for line in log.splitlines()
                   if line.startswith("import time:")]
        assert "scipy.special._ufuncs" in modules
        assert not [m for m in modules if m in unused or m.startswith(below_unused)]
        assert not [m for m in modules if m in UNUSED_SCIPY_MODULES]
    package = Path(sentdep.__file__).parent
    assert not [path for path in package.rglob("*.py")
                if "scipy.spatial" in (text := path.read_text(encoding="utf-8"))
                or "cKDTree" in text]


#: In a fresh process: blocks ``scipy.special._ufuncs`` when argv[1] is
#: "blocked" or imports ``scipy.special`` plainly first when it is
#: "plain", calls ``_import_analysis`` and prints whether it raised
#: ImportError; then whether ``scipy.special`` and its ufunc module are
#: loaded, and which of the modules argv[2:] are. Unless the ufuncs are
#: blocked, it then imports ``scipy.special`` plainly and prints whether
#: its ``digamma`` and ``fdtrc`` are the loaded ufuncs, and last the
#: results of ``scipy.stats`` and ``scipy.special`` routines.
UFUNC_IMPORT = (
    "import sys\n"
    "if sys.argv[1] == 'blocked':\n"
    "    sys.modules['scipy.special._ufuncs'] = None\n"
    "if sys.argv[1] == 'plain':\n"
    "    import scipy.special\n"
    "import sentdep.pipeline\n"
    "try:\n"
    "    sentdep.pipeline._import_analysis()\n"
    "    print('imported')\n"
    "except ImportError:\n"
    "    print('ImportError')\n"
    "print('scipy.special' in sys.modules,\n"
    "      sys.modules.get('scipy.special._ufuncs') is not None)\n"
    "print(sorted(m for m in sys.argv[2:] if m in sys.modules))\n"
    "if sys.argv[1] != 'blocked':\n"
    "    from scipy.special._ufuncs import fdtrc, psi\n"
    "    import numpy, scipy.special, scipy.stats\n"
    "    print(scipy.special.digamma is psi, scipy.special.fdtrc is fdtrc)\n"
    "    x = numpy.array([0.5, 1.5, 2.0, 3.25, 4.0, 4.5])\n"
    "    y = numpy.array([1.0, 1.25, 2.5, 2.0, 5.0, 4.75])\n"
    "    print(scipy.stats.pearsonr(x, y), scipy.stats.ttest_ind(x, y),\n"
    "          scipy.stats.describe(x), scipy.stats.zscore(x).tolist(),\n"
    "          scipy.special.logsumexp(x))\n"
)


@pytest.mark.parametrize("load", ["imported", "ImportError"])
def test_import_analysis_loads_only_scipys_ufuncs(load):
    case = "blocked" if load == "ImportError" else "fresh"
    out = run_python(UFUNC_IMPORT, case, *UNUSED_NUMPY_SUBMODULES,
                     *UNUSED_SCIPY_MODULES).splitlines()
    # No stand-in for scipy.special is left, also where the import fails.
    assert out[:3] == [load, f"False {load == 'imported'}", "[]"]
    if load == "imported":
        # A later plain import runs the real package around the same
        # ufuncs, and SciPy's routines give what they give in a process
        # that imported scipy.special plainly first.
        plain = run_python(UFUNC_IMPORT, "plain").splitlines()
        assert plain[:4] == ["imported", "True True", "[]", "True True"]
        assert out[3:] == plain[3:] and len(out) == 5


#: Runs ``sentdep.cli.main`` on argv[2:] and, at exit, prints whether the
#: cyclic garbage collector is enabled and how many objects are frozen.
#: With argv[1] == "1" the process is first confined to one CPU, so the
#: analysis forks no worker.
GC_AT_EXIT = (
    "import atexit, gc, os, sys\n"
    "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count()))\n"
    "if sys.argv[1] == '1':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "from sentdep.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


@pytest.mark.parametrize("one_cpu", [False, True], ids=["default", "one_cpu"])
def test_a_fixture_run_ends_with_the_imports_frozen_and_the_collector_on(tmp_path, one_cpu):
    if one_cpu and not hasattr(os, "sched_setaffinity"):
        pytest.skip("the process cannot be confined to one CPU here")
    assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    ini = tmp_path / "config.ini"
    for argv in (["run", "--config", ini],
                 ["analyze", "--config", ini, "--scores", tmp_path / "out" / "scores.csv",
                  "--out", tmp_path / "cells.csv"]):
        out = run_python(GC_AT_EXIT, int(one_cpu), *argv, cwd=tmp_path)
        enabled, frozen = out.splitlines()[-1].split()
        assert enabled == "True"
        assert int(frozen) > 30_000


def test_cli_import_and_config_validation_load_no_numpy(tmp_path):
    ini = build_tweet_tree(tmp_path)
    assert run_python(VALIDATE_AND_LIST, ini, "numpy").strip() == "[]"


@pytest.mark.parametrize("module", ["sentdep.prepare", "sentdep.labeler", "hashlib", "platform",
                                    "array"])
def test_cli_import_and_config_validation_leave_the_run_inputs_unloaded(tmp_path, module):
    # The analysis inputs are prepared, and the inputs hashed, in the ingest
    # child of a run (or by `analyze`): the start of every command pays
    # nothing for them.
    ini = build_tweet_tree(tmp_path)
    assert run_python(VALIDATE_AND_LIST, ini, module).strip() == "[]"


@pytest.mark.parametrize("command", ["keywords", "label", "score", "report"])
def test_text_commands_load_no_numpy_or_scipy(tmp_path, capsys, monkeypatch, command):
    clean_run_tree(tmp_path, capsys, monkeypatch)
    code = (
        "import sys\n"
        "from sentdep.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    out = run_python(code, command, *STAGE_ARGV[command], cwd=tmp_path)
    assert out.splitlines()[-1] == "0 []"


#: Hand-written external labels for the tweet tree: out of date order,
#: with stray spaces, repeated rows and an aspect outside the lexicon.
EXTERNAL_LABELS = "tweet_id,date,aspect,polarity\n" + "".join(
    f"e{i}, {DAYS[(7 * i) % 10].isoformat()} ,{aspect},{polarity}\n"
    for i, (aspect, polarity) in enumerate(
        [("tax", "positive"), ("tax", "negative"), ("bank", "neutral"), ("tax", "positive"),
         ("zinc", "negative"), ("bank", "positive"), ("tax", "neutral")] * 4)
)

SHARED_FLAGS = ["--absent-as-zero", "--granger-difference", "--granger-reverse"]


class TestStageComposition:
    def test_manual_stages_match_run_byte_for_byte(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        (tmp_path / "external.csv").write_text(EXTERNAL_LABELS, encoding="utf-8")
        labeled_ini = tmp_path / "labeled.ini"
        labeled_ini.write_text(
            ini.read_text(encoding="utf-8").replace("[prices]", "labels = external.csv\n[prices]"),
            encoding="utf-8")
        cases = [(ini, []), (ini, SHARED_FLAGS), (labeled_ini, []), (labeled_ini, SHARED_FLAGS)]
        for case, (config, flags) in enumerate(cases):
            auto = tmp_path / f"auto{case}"
            assert main(["run", "--config", str(config), "--output-dir", str(auto), *flags]) == 0

            manual = tmp_path / f"manual{case}"
            manual.mkdir()
            steps = [
                ["keywords", "--tweets", str(tmp_path / "tweets.jsonl"),
                 "--out", str(manual / "keywords.csv"), "--min-count", "2"],
            ]
            expected = EXPECTED_ARTIFACTS - {"run_manifest.json"}
            if config == ini:
                labels = manual / "labels.csv"
                steps.append(["label", "--tweets", str(tmp_path / "tweets.jsonl"),
                              "--aspects", str(tmp_path / "aspects.txt"),
                              "--positive-terms", str(tmp_path / "pos.txt"),
                              "--negative-terms", str(tmp_path / "neg.txt"),
                              "--out", str(labels)])
            else:
                labels = tmp_path / "external.csv"
                expected -= {"labels.csv"}
            steps += [
                ["score", "--labels", str(labels), "--out", str(manual / "scores.csv")],
                ["analyze", "--config", str(config), "--scores", str(manual / "scores.csv"),
                 "--out", str(manual / "cells.csv"), *flags],
                ["report", "--cells", str(manual / "cells.csv"), "--out-dir", str(manual)],
            ]
            for argv in steps:
                assert main(argv) == 0, f"stage failed: {argv[0]} in case {case}"

            assert {p.name for p in auto.iterdir()} == expected | {"run_manifest.json"}
            for name in sorted(expected):
                assert (manual / name).read_bytes() == (auto / name).read_bytes(), (
                    f"{name} differs between `run` and the manual composition "
                    f"(config {config.name}, flags {flags})"
                )


    @pytest.mark.parametrize("argv, printed", [
        (STAGE_ARGV["score"], r"(\d+) score rows \((\d+) aspect-days\) -> new_scores\.csv"),
        (STAGE_ARGV["label"], r"(\d+) aspect labels -> new_labels\.csv"),
    ], ids=["score", "label"])
    def test_printed_row_count_is_the_files(self, tmp_path, capsys, monkeypatch, argv,
                                            printed):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        command = "score" if "--labels" in argv else "label"
        assert main([command, *argv]) == 0
        counts = re.fullmatch(printed + "\n", capsys.readouterr().out).groups()
        header, *rows = (tmp_path / argv[-1]).read_text(encoding="utf-8").splitlines()
        assert int(counts[0]) == len(rows) > 0
        if command == "score":
            days = {tuple(row.split(",")[:2]) for row in rows}
            assert int(counts[1]) == len(days) < len(rows)


def linked(link: Path, target: Path) -> Path:
    """Make ``link`` a symbolic link to ``target``; skip where none can be made."""
    try:
        link.symlink_to(target)
    except (OSError, NotImplementedError):
        pytest.skip("no symbolic links here")
    return link


class TestOutputLinks:
    """A symbolic link at an output path is written through: the link stays
    and its target gets the bytes, with no part file left beside either."""

    def test_label_out_writes_through_a_link(self, tmp_path, capsys, monkeypatch):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        argv = ["label", *STAGE_ARGV["label"][:-1]]
        assert main([*argv, "plain.csv"]) == 0
        (tmp_path / "l").mkdir()
        link = linked(tmp_path / "l" / "link.csv", tmp_path / "target.csv")
        assert main([*argv, "l/link.csv"]) == 0
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert not [p for d in (tmp_path, tmp_path / "l") for p in d.glob(".*")]

    def test_a_runs_labels_write_through_a_link(self, tmp_path, capsys, monkeypatch):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        (tmp_path / "kept").mkdir()
        (tmp_path / "linked").mkdir()
        link = linked(tmp_path / "linked" / "labels.csv", tmp_path / "kept" / "labels.csv")
        assert main(["run", "--config", "config.ini", "--output-dir", "linked"]) == 0
        assert link.is_symlink()
        assert ((tmp_path / "kept" / "labels.csv").read_bytes()
                == (tmp_path / "out" / "labels.csv").read_bytes())
        assert not [p for d in ("kept", "linked") for p in (tmp_path / d).glob(".*")]

    def test_a_loop_of_links_is_an_output_error(self, tmp_path, capsys, monkeypatch):
        clean_run_tree(tmp_path, capsys, monkeypatch)
        loop = linked(tmp_path / "loop.csv", tmp_path / "loop.csv")
        for argv in (["label", *STAGE_ARGV["label"][:-1], "loop.csv"],
                     ["score", "--labels", "labels.csv", "--out", "loop.csv"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: loop.csv: cannot write file: {os.strerror(errno.ELOOP)}\n")
        assert loop.is_symlink()
        assert not list(tmp_path.glob(".*"))


class TestOverrides:
    def test_top_n_override_shrinks_the_cell_grid(self, tmp_path):
        ini = build_tweet_tree(tmp_path)
        assert main(["run", "--config", str(ini), "--top-n-aspects", "1"]) == 0
        rows = (tmp_path / "out" / "cells.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) - 1 == 1 * 4 * 1

    def test_threshold_override_reaches_the_statistics(self, tmp_path):
        ini = build_tweet_tree(tmp_path)
        assert main(["run", "--config", str(ini),
                     "--pearson-threshold", "0.999999"]) == 0
        cells = read_cells(tmp_path / "out" / "cells.csv")
        assert cells
        assert not any(c.r_significant for c in cells)

    def test_output_dir_override(self, tmp_path):
        ini = build_tweet_tree(tmp_path)
        target = tmp_path / "elsewhere"
        assert main(["run", "--config", str(ini), "--output-dir", str(target)]) == 0
        assert (target / "cells.csv").is_file()

    def test_a_lag_past_the_calendar_leaves_every_pair_out(self, tmp_path):
        # The fixture's calendar has 62 trading days; lags of 63 to 123
        # once ended in a ValueError of mismatched shapes.
        assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
        written = {}
        for lag in (62, 63, 100):
            out = tmp_path / f"lag{lag}"
            assert main(["run", "--config", str(tmp_path / "config.ini"), "--lag", str(lag),
                         "--output-dir", str(out)]) == 0
            written[lag] = (out / "cells.csv").read_bytes()
        assert written[63] == written[100] == written[62]
        cells = read_cells(tmp_path / "lag62" / "cells.csv")
        assert all(c.n == 0 and c.r is None and c.u is None for c in cells)

    def test_boolean_override_has_negative_form(self, tmp_path):
        ini = build_tweet_tree(tmp_path)
        assert main(["run", "--config", str(ini), "--no-absent-as-zero"]) == 0


class TestPackagedDefaults:
    def test_label_falls_back_to_bundled_lexicons(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(
            json.dumps({"id": "t0", "created_at": "2022-10-03T09:00:00Z",
                        "text": "inflation gains look strong", "lang": "en"}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "labels.csv"
        assert main(["label", "--tweets", str(tweets), "--out", str(out)]) == 0
        content = out.read_text(encoding="utf-8")
        assert "inflation" in content and "positive" in content
