"""The cell grid on two CPUs: a forked worker takes the odd-indexed aspects."""

import logging
import os
import time
from ast import literal_eval

import pytest

import sentdep.analysis
from sentdep.analysis import analyze_cells
from sentdep.cli import main
from sentdep.errors import FormatError
from sentdep.ingest import load_aspects, parse_prices
from sentdep.pipeline import (
    build_calendar,
    load_config,
    run_pipeline,
    select_top_aspects,
    stage_analyze,
)
from sentdep.scores import read_scores
from test_cli import run_python
from test_forked_ingest import (  # noqa: F401  (placed_run is a fixture)
    assert_no_child_left,
    needs_two_cpus,
    placed_run,
    verbose_run,
)
from test_pipeline import EXPECTED_ARTIFACTS, build_tweet_tree

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def analysis_lines(messages):
    """The analysis's timing lines among ``messages``."""
    return [m for m in messages if "analysis: " in m and " s wall, " in m]


@pytest.fixture(scope="module")
def fixture_scores(tmp_path_factory):
    """The config of fixture seed 0, after a run has written its scores.csv."""
    root = tmp_path_factory.mktemp("fixture")
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    run_pipeline(load_config(root / "config.ini"))
    return root / "config.ini"


@needs_two_cpus
@pytest.mark.parametrize("top_n", [20, 7, 1])
@pytest.mark.parametrize("flags", [False, True], ids=["default", "flags"])
def test_split_cells_equal_inline_cells(fixture_scores, tmp_path, caplog, flags, top_n):
    # 20 is every fixture aspect, 7 leaves the worker one aspect fewer, and
    # one aspect is computed here alone.
    config = load_config(fixture_scores)
    config.top_n_aspects = top_n
    if flags:
        config.absent_as_zero = config.granger_difference = config.granger_reverse = True
    scores_path = config.output_dir / "scores.csv"
    with caplog.at_level(logging.INFO, logger="sentdep.pipeline"):
        cells = stage_analyze(config, scores_path, tmp_path / "cells.csv")

    series, totals = read_scores(scores_path)
    prices = {t: parse_prices(p, t) for t, p in config.prices.items()}
    top = select_top_aspects(load_aspects(config.aspects), totals, top_n)
    assert len(top) == top_n
    inline = analyze_cells(config, top, series, prices, build_calendar(config, prices))
    assert len(cells) == top_n * 4 * len(prices)
    assert [repr(c) for c in cells] == [repr(c) for c in inline]

    [line] = analysis_lines(caplog.messages)
    shares = [part.split(" cells in ")[0] for part in line[len("analysis: "):].split("; ")]
    if top_n == 1:
        assert shares == ["1 aspects, 24"] and "a worker" not in line
    else:
        here, there = (top_n + 1) // 2, top_n // 2
        assert shares == [f"{here} aspects, {here * 24}", f"{there} aspects, {there * 24}"]
        assert "in this process on CPUs" in line and "in a worker on CPUs" in line


#: ``sentdep run`` of the config argv[1] in a fresh process that records, for
#: each ``analyze_cells`` call, the pid, aspects and CPU set that computed it
#: (a line of ``analyze.seen`` each); prints its own pid and CPU set before,
#: the exit code and its CPU set after.
OBSERVED_ANALYSIS = (
    "import os, sys\n"
    "import sentdep.pipeline as pipeline\n"
    "from sentdep.cli import main\n"
    "stage_analyze = pipeline.stage_analyze\n"
    "def observed_stage(*args, **kwargs):\n"
    "    import sentdep.analysis as analysis\n"
    "    analyze_cells = analysis.analyze_cells\n"
    "    def observed(config, aspects, *rest, **more):\n"
    "        cells = analyze_cells(config, aspects, *rest, **more)\n"
    "        with open('analyze.seen', 'a') as fh:\n"
    "            seen = (os.getpid(), list(aspects), os.sched_getaffinity(0))\n"
    "            fh.write(repr(seen) + '\\n')\n"
    "        return cells\n"
    "    analysis.analyze_cells = observed\n"
    "    return stage_analyze(*args, **kwargs)\n"
    "pipeline.stage_analyze = observed_stage\n"
    "before = os.sched_getaffinity(0)\n"
    "code = main(['run', '--config', sys.argv[1]])\n"
    "print(repr((os.getpid(), before, code, os.sched_getaffinity(0))))\n"
)


@needs_two_cpus
def test_worker_and_parent_run_on_disjoint_cpus(tmp_path):
    ini = build_tweet_tree(tmp_path)
    out = run_python(OBSERVED_ANALYSIS, ini, cwd=tmp_path)
    pid, before, code, after = literal_eval(out.splitlines()[-1])
    assert code == 0 and after == before
    seen = [literal_eval(line) for line in
            (tmp_path / "analyze.seen").read_text().splitlines()]
    [(_, own_aspects, own_cpus)] = [s for s in seen if s[0] == pid]
    [(_, worker_aspects, worker_cpus)] = [s for s in seen if s[0] != pid]
    assert own_aspects == ["tax"] and worker_aspects == ["bank"]
    assert own_cpus and worker_cpus and not own_cpus & worker_cpus
    assert own_cpus | worker_cpus <= before


def run_split(monkeypatch, in_worker=None, in_parent=None):
    """Have ``analyze_cells`` call ``in_worker()`` first in the analysis
    worker and ``in_parent()`` first in this process."""
    parent = os.getpid()
    analyze = sentdep.analysis.analyze_cells

    def split(*args, **kwargs):
        side = in_parent if os.getpid() == parent else in_worker
        if side is not None:
            side()
        return analyze(*args, **kwargs)

    monkeypatch.setattr(sentdep.analysis, "analyze_cells", split)


def raising(exc):
    def call():
        raise exc
    return call


@needs_two_cpus
def test_worker_sentdep_error_is_raised_here(tmp_path, monkeypatch, capsys):
    error = FormatError("bad close", "prices.csv", 4)
    run_split(monkeypatch, in_worker=raising(error))
    ini = build_tweet_tree(tmp_path)
    with pytest.raises(FormatError) as caught:
        run_pipeline(load_config(ini))
    assert type(caught.value) is FormatError and str(caught.value) == str(error)
    assert (caught.value.path, caught.value.line_number) == ("prices.csv", 4)
    assert_no_child_left()
    capsys.readouterr()
    assert main(["run", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == "error: prices.csv:4: bad close\n"
    assert_no_child_left()


@needs_two_cpus
def test_other_worker_exception_carries_its_traceback(tmp_path, monkeypatch):
    run_split(monkeypatch, in_worker=raising(ValueError("boom")))
    with pytest.raises(RuntimeError, match=r"(?s)forked process failed:\n"
                                           r"Traceback.*ValueError: boom"):
        run_pipeline(load_config(build_tweet_tree(tmp_path)))
    assert_no_child_left()


@needs_two_cpus
def test_worker_is_killed_when_the_parent_raises(tmp_path, monkeypatch):
    run_split(monkeypatch, in_worker=lambda: time.sleep(60),
              in_parent=raising(ValueError("parent")))
    before = os.sched_getaffinity(0)
    start = time.monotonic()
    with pytest.raises(ValueError, match="parent"):
        run_pipeline(load_config(build_tweet_tree(tmp_path)))
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert os.sched_getaffinity(0) == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("fallback", ["one_cpu", "refused", "missing", "no_fork"])
def test_unplaced_analysis_stays_here_and_writes_the_same(placed_run, fallback):
    root, placed_log = placed_run
    timing, log = verbose_run(root, fallback)
    [line] = analysis_lines(timing)
    assert line.startswith("INFO sentdep.pipeline: analysis: "
                           "2 aspects, 8 cells in this process on CPUs ")
    assert ";" not in line
    overlap = [m for m in timing if "scipy.special import" in m]
    assert len(overlap) == (0 if fallback == "no_fork" else 1)
    assert len(timing) == len(overlap) + 1
    assert log == [line.replace("placed", fallback) for line in placed_log]
    for name in sorted(EXPECTED_ARTIFACTS):
        assert ((root / fallback / name).read_bytes()
                == (root / "placed" / name).read_bytes()), name
