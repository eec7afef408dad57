"""Exit codes, stage composition, and override flags of the `sentdep` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentdep
from sentdep.cli import main
from sentdep.report import read_cells
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

    @pytest.mark.parametrize("command, option, message", [
        ("label", ["--window", "-1"], "window must be >= 0, got -1"),
        ("keywords", ["--malformed-cap", "-1"],
         "max_malformed_fraction must lie in [0, 1], got -1.0"),
        ("keywords", ["--min-count", "-3"], "min_keyword_count must be >= 1, got -3"),
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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "sentdep" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def run_python(code: str, *args, cwd=None) -> str:
    """stdout of a fresh interpreter running ``code`` with this checkout's
    package on its path; it must exit 0."""
    src = str(Path(sentdep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


def test_cli_import_and_config_validation_load_no_numpy(tmp_path):
    ini = build_tweet_tree(tmp_path)
    assert run_python(VALIDATE_AND_LIST, ini, "numpy").strip() == "[]"


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
