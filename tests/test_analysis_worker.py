"""The cell grid on two CPUs: this process and a forked worker claim aspects
from one pipe."""

import logging
import os
import re
import signal
import time
from ast import literal_eval

import pytest

import sentdep.analysis
import sentdep.fork
from sentdep.analysis import analyze_cells, price_matrix
from sentdep.cli import main
from sentdep.errors import FormatError
from sentdep.pipeline import load_config, run_pipeline, stage_analyze
from sentdep.prepare import prepare_analysis
from test_cli import run_python
from test_forked_ingest import (  # noqa: F401  (hang_guard and placed_run are fixtures)
    OBSERVED_FORKS,
    assert_no_child_left,
    forks_seen,
    hang_guard,
    needs_two_cpus,
    placed_run,
    verbose_run,
    wait_for,
)
from test_pipeline import EXPECTED_ARTIFACTS, build_tweet_tree

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def analysis_lines(messages):
    """The analysis's timing lines among ``messages``."""
    return [m for m in messages if "analysis: " in m and " s wall, " in m]


def shares(line):
    """(aspects, cells, who, CPU set) of each process an analysis line names."""
    return [(int(aspects), int(cells), who, set(map(int, cpus.split(","))))
            for aspects, cells, who, cpus in re.findall(
                r"(\d+) aspects, (\d+) cells in (this process|a worker) on CPUs ([\d,]+):",
                line)]


@pytest.fixture(scope="module")
def fixture_scores(tmp_path_factory):
    """The config of fixture seed 0, after a run has written its scores.csv."""
    root = tmp_path_factory.mktemp("fixture")
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    run_pipeline(load_config(root / "config.ini"))
    return root / "config.ini"


def inline_cells(config):
    """(the top aspects, their cells computed in this process alone)."""
    inputs = prepare_analysis(config, config.output_dir / "scores.csv")
    return inputs.aspects, analyze_cells(config, inputs.aspects, inputs.series,
                                         inputs.tickers, price_matrix(inputs.closes))


def same_cells(cells, inline):
    return [repr(c) for c in cells] == [repr(c) for c in inline]


@needs_two_cpus
@pytest.mark.parametrize("top_n", [20, 7, 1])
@pytest.mark.parametrize("flags", [False, True], ids=["default", "flags"])
def test_split_cells_equal_inline_cells(fixture_scores, tmp_path, caplog, flags, top_n):
    # 20 is every fixture aspect, 7 an odd count, and one aspect is computed
    # here alone.
    config = load_config(fixture_scores)
    config.top_n_aspects = top_n
    if flags:
        config.absent_as_zero = config.granger_difference = config.granger_reverse = True
    with caplog.at_level(logging.INFO, logger="sentdep.pipeline"):
        cells = stage_analyze(config, config.output_dir / "scores.csv", tmp_path / "cells.csv")

    top, inline = inline_cells(config)
    assert len(top) == top_n
    assert len(cells) == top_n * 4 * len(config.prices)
    assert same_cells(cells, inline)

    # Which process claims how many aspects varies between runs. The counts
    # sum to the whole grid and the merged cells equal one process's, so
    # every aspect was computed by exactly one process.
    [line] = analysis_lines(caplog.messages)
    parts = shares(line)
    assert sum(aspects for aspects, *_ in parts) == top_n
    assert sum(n for _, n, *_ in parts) == top_n * 4 * len(config.prices)
    if top_n == 1:
        assert [who for *_, who, _ in parts] == ["this process"]
    else:
        [(*_, here, own_cpus), (*_, there, worker_cpus)] = parts
        assert (here, there) == ("this process", "a worker")
        assert not own_cpus & worker_cpus


def test_the_analysis_line_counts_the_stacked_fit_calls(fixture_scores, tmp_path, caplog):
    """The fixture's six tickers share their mask groups, so each process
    that fits makes its least-squares fits in fewer stacked calls."""
    config = load_config(fixture_scores)
    with caplog.at_level(logging.INFO, logger="sentdep.pipeline"):
        stage_analyze(config, config.output_dir / "scores.csv", tmp_path / "cells.csv")
    [line] = analysis_lines(caplog.messages)
    counts = [(int(fits), int(calls)) for fits, calls in
              re.findall(r"(\d+) least-squares fits in (\d+) stacked calls, ", line)]
    assert len(counts) == len(shares(line))
    assert sum(fits for fits, _ in counts) == 600
    assert all(0 < calls < fits for fits, calls in counts if fits)


def hook_claims(monkeypatch, in_worker=None, in_parent=None):
    """Have each process call its hook as ``hook(taken, finished)`` when it
    claims an aspect, before computing it, and once more, with ``finished``
    true, when no claim is left: ``taken`` lists the aspects it has claimed
    so far."""
    parent = os.getpid()
    analyze = sentdep.analysis.analyze_cells

    def hooked(config, aspects, *args, **kwargs):
        hook = (in_parent if os.getpid() == parent else in_worker) or (lambda *_: None)

        def claims():
            taken = []
            for aspect in aspects:
                taken.append(aspect)
                hook(taken, False)
                yield aspect
            hook(taken, True)

        return analyze(config, claims(), *args, **kwargs)

    monkeypatch.setattr(sentdep.analysis, "analyze_cells", hooked)


@needs_two_cpus
def test_a_stalled_parent_leaves_the_rest_to_the_worker(fixture_scores, tmp_path,
                                                        monkeypatch, caplog):
    # This process holds its first aspect until the worker has found no
    # claim left: a fixed split would have let the worker stop at its share.
    done = tmp_path / "worker.done"

    def stall(taken, finished):
        if len(taken) == 1 and not finished:
            wait_for(done)

    hook_claims(monkeypatch, in_worker=lambda _, finished: finished and done.touch(),
                in_parent=stall)
    config = load_config(fixture_scores)
    with caplog.at_level(logging.INFO, logger="sentdep.pipeline"):
        cells = stage_analyze(config, config.output_dir / "scores.csv", tmp_path / "cells.csv")
    top, inline = inline_cells(config)
    assert same_cells(cells, inline)
    [(own, *_), (worker, *_)] = shares(*analysis_lines(caplog.messages))
    assert own + worker == len(top) == 20
    assert worker >= len(top) - 2  # all but at most one of those left


@needs_two_cpus
def test_a_worker_killed_mid_claim_leaves_the_rest_here(fixture_scores, tmp_path,
                                                         monkeypatch):
    claimed = tmp_path / "worker.claimed"
    drained = []

    def die(taken, finished):
        if len(taken) == 1 and not finished:
            claimed.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    def parent(taken, finished):
        if len(taken) == 1 and not finished:
            wait_for(claimed)
        if finished:
            drained.append(len(taken))

    hook_claims(monkeypatch, in_worker=die, in_parent=parent)
    config = load_config(fixture_scores)
    before = os.sched_getaffinity(0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="without a result: killed by signal SIGKILL$"):
        stage_analyze(config, config.output_dir / "scores.csv", tmp_path / "cells.csv")
    assert time.monotonic() - start < 30
    assert drained == [config.top_n_aspects - 1]
    assert_no_child_left()
    assert os.sched_getaffinity(0) == before


@needs_two_cpus
@pytest.mark.parametrize("top_n", [7, 20])
def test_blocks_of_aspects_are_each_claimed_once(fixture_scores, tmp_path, monkeypatch,
                                                 top_n):
    # With room for three records, each names a block of consecutive aspects.
    monkeypatch.setattr(sentdep.fork, "MAX_CLAIMS", 3)
    config = load_config(fixture_scores)
    config.top_n_aspects = top_n
    top, inline = inline_cells(config)
    seen = tmp_path / "claims.seen"

    def record(taken, finished):
        if finished:
            with open(seen, "a", encoding="utf-8") as fh:
                fh.write(repr((os.getpid(), taken)) + "\n")

    hook_claims(monkeypatch, in_worker=record, in_parent=record)
    cells = stage_analyze(config, config.output_dir / "scores.csv", tmp_path / "cells.csv")
    assert same_cells(cells, inline)
    claims = dict(literal_eval(line) for line in seen.read_text().splitlines())
    assert len(claims) == 2 and os.getpid() in claims
    assert sorted(a for taken in claims.values() for a in taken) == sorted(top)
    blocks = [top[i * top_n // 3:(i + 1) * top_n // 3] for i in range(3)]
    for taken in claims.values():
        assert [a for block in blocks if block[0] in taken for a in block] == taken


#: ``sentdep run`` of the config argv[1] in a fresh process that records, for
#: each ``analyze_cells`` call, the pid, the aspects it claimed, its cell count
#: and its CPU set (a line of ``analyze.seen`` each); prints its own pid and
#: CPU set before, the exit code and its CPU set after.
OBSERVED_ANALYSIS = (
    "import os, sys\n"
    "import sentdep.pipeline as pipeline\n"
    "from sentdep.cli import main\n"
    "stage_analyze = pipeline.stage_analyze\n"
    "def observed_stage(*args, **kwargs):\n"
    "    import sentdep.analysis as analysis\n"
    "    analyze_cells = analysis.analyze_cells\n"
    "    def observed(config, aspects, *rest, **more):\n"
    "        taken = []\n"
    "        def claims():\n"
    "            for aspect in aspects:\n"
    "                taken.append(aspect)\n"
    "                yield aspect\n"
    "        cells = analyze_cells(config, claims(), *rest, **more)\n"
    "        with open('analyze.seen', 'a') as fh:\n"
    "            seen = (os.getpid(), taken, len(cells), os.sched_getaffinity(0))\n"
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
    [(_, own_aspects, own_cells, own_cpus)] = [s for s in seen if s[0] == pid]
    [(_, worker_aspects, worker_cells, worker_cpus)] = [s for s in seen if s[0] != pid]
    # Either process may claim either aspect, but each is claimed once.
    assert sorted(own_aspects + worker_aspects) == ["bank", "tax"]
    assert own_cells + worker_cells == 2 * 4  # two aspects, four kinds, one ticker
    assert own_cpus and worker_cpus and not own_cpus & worker_cpus
    assert own_cpus | worker_cpus <= before


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts /proc/self/task")
def test_analyze_forks_its_worker_with_one_thread(tmp_path):
    # `analyze` loads numpy and SciPy itself, on one pinned CPU, so their
    # OpenBLAS pools start no thread before the worker is forked.
    ini = build_tweet_tree(tmp_path)
    assert main(["run", "--config", str(ini)]) == 0
    run_python(OBSERVED_FORKS, "analyze", "--config", ini,
               "--scores", tmp_path / "out" / "scores.csv", "--out", tmp_path / "cells.csv",
               cwd=tmp_path)
    assert forks_seen(tmp_path) == [(True, 1)]
    assert ((tmp_path / "cells.csv").read_bytes()
            == (tmp_path / "out" / "cells.csv").read_bytes())


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
    overlap = [m for m in timing if "SciPy ufunc import" in m]
    assert len(overlap) == (0 if fallback == "no_fork" else 1)
    assert len(timing) == len(overlap) + 1
    assert log == [line.replace("placed", fallback) for line in placed_log]
    for name in sorted(EXPECTED_ARTIFACTS):
        assert ((root / fallback / name).read_bytes()
                == (root / "placed" / name).read_bytes()), name
