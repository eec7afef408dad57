"""Exit codes, stage composition, and override flags of the `sentdep` CLI."""

import json

import pytest

from sentdep.cli import main
from sentdep.report import read_cells
from test_pipeline import EXPECTED_ARTIFACTS, build_tweet_tree


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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "sentdep" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestStageComposition:
    def test_manual_stages_match_run_byte_for_byte(self, tmp_path, capsys):
        ini = build_tweet_tree(tmp_path)
        assert main(["run", "--config", str(ini)]) == 0
        auto = tmp_path / "out"

        manual = tmp_path / "manual"
        manual.mkdir()
        steps = [
            ["keywords", "--tweets", str(tmp_path / "tweets.jsonl"),
             "--out", str(manual / "keywords.csv"), "--min-count", "2"],
            ["label", "--tweets", str(tmp_path / "tweets.jsonl"),
             "--aspects", str(tmp_path / "aspects.txt"),
             "--positive-terms", str(tmp_path / "pos.txt"),
             "--negative-terms", str(tmp_path / "neg.txt"),
             "--out", str(manual / "labels.csv")],
            ["score", "--labels", str(manual / "labels.csv"),
             "--out", str(manual / "scores.csv")],
            ["analyze", "--config", str(ini), "--scores", str(manual / "scores.csv"),
             "--out", str(manual / "cells.csv")],
            ["report", "--cells", str(manual / "cells.csv"),
             "--out-dir", str(manual)],
        ]
        for argv in steps:
            assert main(argv) == 0, f"stage failed: {argv[0]}"

        for name in sorted(EXPECTED_ARTIFACTS - {"run_manifest.json"}):
            assert (manual / name).read_bytes() == (auto / name).read_bytes(), (
                f"{name} differs between `run` and the manual composition"
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
