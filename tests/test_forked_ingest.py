"""`sentdep run` ingests in a forked child: logs, errors, reaping, fallback."""

import logging
import os
import pickle
import signal
import sys
import time
from ast import literal_eval

import pytest

import sentdep.analysis
import sentdep.pipeline
from sentdep import errors
from sentdep.cli import main
from sentdep.pipeline import load_config, run_pipeline
from test_cli import run_python
from test_pipeline import EXPECTED_ARTIFACTS, build_tweet_tree, write_min_inputs


def label_tree(tmp_path):
    """Config over external labels (one ticker) with its output in ``out``."""
    write_min_inputs(tmp_path)
    ini = tmp_path / "config.ini"
    ini.write_text(
        "[inputs]\naspects = aspects.txt\nlabels = labels.csv\n"
        "[prices]\nAAA = AAA.csv\n[output]\ndir = out\n",
        encoding="utf-8",
    )
    return ini


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


#: One instance per SentdepError subclass, with every constructor argument set.
ERROR_CASES = {
    errors.FormatError: errors.FormatError("bad date", "labels.csv", 7),
    errors.HeaderMismatch: errors.HeaderMismatch("wrong header", "cells.csv", 1),
    errors.OutputError: errors.OutputError("cannot write file: x", "out/s.csv"),
    sentdep.analysis._PartFailed: sentdep.analysis._PartFailed("DegenerateSample"),
}


class TestErrorsPickle:
    @pytest.mark.parametrize("cls", sorted(all_subclasses(errors.SentdepError),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_subclass_round_trips(self, cls):
        exc = ERROR_CASES.get(cls) or cls("too few observations")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        for name in ("path", "line_number", "reason"):
            assert getattr(copy, name, None) == getattr(exc, name, None)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedIngest:
    def test_child_warning_is_logged_before_the_parents(self, tmp_path, caplog):
        ini = build_tweet_tree(tmp_path)
        with open(tmp_path / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        with open(tmp_path / "AAA.csv", "a", encoding="utf-8") as fh:
            fh.write("2022-11-30,null\n")
        with caplog.at_level(logging.WARNING):
            run_pipeline(load_config(ini))
        messages = caplog.messages
        malformed = next(i for i, m in enumerate(messages) if "malformed" in m)
        price = next(i for i, m in enumerate(messages) if "non-numeric Close" in m)
        assert malformed < price
        assert caplog.records[malformed].name == "sentdep.ingest"
        assert caplog.records[malformed].levelno == logging.WARNING

    def test_verbose_run_logs_the_overlap(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="sentdep.pipeline"):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        messages = caplog.messages
        overlap = [m for m in messages if "scipy.special import" in m]
        assert len(overlap) == 1 and overlap[0].startswith("ingest ")
        # after the child's own lines, before the analysis
        assert messages.index(overlap[0]) == messages.index(
            next(m for m in messages if m.startswith("scores: "))) + 1

    def test_bad_label_row_exits_two_and_leaves_no_scores(self, tmp_path, capsys,
                                                          monkeypatch):
        ini = label_tree(tmp_path)
        with open(tmp_path / "labels.csv", "a", encoding="utf-8") as fh:
            fh.write("t2,2022-10-04,tax,sideways\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "config.ini"]) == 2
        assert capsys.readouterr().err == (
            "error: labels.csv:3: unknown polarity 'sideways'\n")
        assert not (tmp_path / "out" / "scores.csv").exists()
        assert_no_child_left()

    def test_unwritable_scores_exits_two(self, tmp_path, capsys, monkeypatch):
        ini = label_tree(tmp_path)
        (tmp_path / "out" / "scores.csv").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'out' / 'scores.csv'}: cannot write file")
        assert_no_child_left()

    def test_no_child_is_left_after_a_run(self, tmp_path):
        run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert_no_child_left()

    def test_child_is_killed_when_the_parent_raises(self, tmp_path, monkeypatch):
        # The parent's import fails while the child is still scoring; the
        # parent must kill the child, not wait the minute out.
        monkeypatch.setattr(sentdep.pipeline, "stage_score", lambda *a, **k: time.sleep(60))
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        start = time.monotonic()
        with pytest.raises(ImportError):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_other_child_exception_carries_its_traceback(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(sentdep.pipeline, "stage_score", broken)
        with pytest.raises(RuntimeError, match=r"(?s)Traceback.*ValueError: boom"):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert_no_child_left()

    @pytest.mark.parametrize("end, words", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal SIGKILL"),
    ], ids=["exit", "signal"])
    def test_child_ending_without_a_message_is_named(self, tmp_path, monkeypatch,
                                                     end, words):
        monkeypatch.setattr(sentdep.pipeline, "stage_score", lambda *a, **k: end())
        with pytest.raises(RuntimeError, match=f"without a result: {words}$"):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert_no_child_left()

    def test_forks_before_numpy_loads(self, tmp_path):
        # A fresh process: the parent forks with one thread and no numpy
        # loaded, and the child scores without ever loading numpy.
        code = (
            "import os, sys\n"
            "import sentdep.pipeline as pipeline\n"
            "from sentdep.cli import main\n"
            "def observe(name):\n"
            "    task = '/proc/self/task'\n"
            "    threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
            "    with open(name, 'w') as fh:\n"
            "        fh.write(repr(('numpy' in sys.modules, threads)))\n"
            "fork, stage_score = os.fork, pipeline.stage_score\n"
            "def observed_fork():\n"
            "    observe('fork.seen')\n"
            "    return fork()\n"
            "def observed_score(*args, **kwargs):\n"
            "    scores = stage_score(*args, **kwargs)\n"
            "    observe('child.seen')\n"
            "    return scores\n"
            "os.fork, pipeline.stage_score = observed_fork, observed_score\n"
            "assert main(['run', '--config', sys.argv[1]]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        ini = build_tweet_tree(tmp_path)
        assert run_python(code, ini, cwd=tmp_path).splitlines()[-1] == "True"
        numpy_at_fork, threads_at_fork = literal_eval((tmp_path / "fork.seen").read_text())
        numpy_in_child, _ = literal_eval((tmp_path / "child.seen").read_text())
        assert not numpy_at_fork and not numpy_in_child
        assert threads_at_fork in (1, None)

    def test_without_fork_the_artifacts_are_the_same(self, tmp_path, monkeypatch, caplog):
        ini = build_tweet_tree(tmp_path)
        with caplog.at_level(logging.INFO):
            run_pipeline(load_config(ini))
        forked_log = [m for m in caplog.messages if "scipy.special import" not in m]
        caplog.clear()
        monkeypatch.delattr(os, "fork")
        config = load_config(ini)
        config.output_dir = tmp_path / "inline"
        with caplog.at_level(logging.INFO):
            run_pipeline(config)
        assert caplog.messages == forked_log
        for name in sorted(EXPECTED_ARTIFACTS):
            assert ((tmp_path / "inline" / name).read_bytes()
                    == (tmp_path / "out" / name).read_bytes()), name
