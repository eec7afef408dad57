"""`sentdep run` ingests in a forked child: logs, errors, reaping, fallback.

The same fork helper runs the analysis worker; tests of the worker itself
are in ``test_analysis_worker.py``.
"""

import array
import faulthandler
import fcntl
import hashlib
import json
import logging
import os
import pickle
import re
import signal
import sys
import termios
import time
from ast import literal_eval

import pytest

import sentdep.blocks
import sentdep.fork
import sentdep.pipeline
from sentdep import errors
from sentdep.blocks import line_blocks
from sentdep.cli import main
from sentdep.fork import Handoff
from sentdep.pipeline import load_config, run_pipeline
from test_cli import add_calendar, run_python
from test_pipeline import DAYS, EXPECTED_ARTIFACTS, build_tweet_tree, write_min_inputs


@pytest.fixture(scope="module", autouse=True)
def hang_guard(session_stderr):
    """Ends the session with every thread's traceback if the module's tests
    and fixtures run 300 s, so a pipe read that blocks fails the suite
    instead of stalling it."""
    faulthandler.dump_traceback_later(300, exit=True, file=session_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def wait_for(path, timeout=60):
    """Return once ``path`` exists; fail after ``timeout`` seconds."""
    end = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < end, f"{path} never appeared"
        time.sleep(0.01)


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


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two allowed CPUs and sched_setaffinity")


def is_timing(line):
    """Whether a log line is one of the two that hold timings: the ingest
    overlap's and the analysis's."""
    return "SciPy ufunc import" in line or " s wall, " in line


#: ``sentdep -v run`` of the config argv[1] into the directory argv[2], whose
#: name says how the CPU placement or the fork is prevented, if at all; logs
#: to stdout.
VERBOSE_RUN = (
    "import os, sys\n"
    "sys.stderr = sys.stdout\n"
    "from sentdep.cli import main\n"
    "name = sys.argv[2]\n"
    "if name == 'one_cpu':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "elif name == 'refused':\n"
    "    def refuse(pid, cpus):\n"
    "        raise OSError(22, 'Invalid argument')\n"
    "    os.sched_setaffinity = refuse\n"
    "elif name == 'missing':\n"
    "    del os.sched_setaffinity\n"
    "elif name == 'no_fork':\n"
    "    del os.fork\n"
    "sys.exit(main(['-v', 'run', '--config', sys.argv[1], '--output-dir', name]))\n"
)


def verbose_run(root, name):
    """(the timing lines, every other line) of a run into ``root / name``."""
    lines = run_python(VERBOSE_RUN, root / "config.ini", name, cwd=root).splitlines()
    timing = [line for line in lines if is_timing(line)]
    return timing, [line for line in lines if line not in timing]


def overlap_cpus(timing):
    """The CPU sets that the ingest overlap's timing line names."""
    overlap = [line for line in timing if "SciPy ufunc import" in line]
    assert len(overlap) == 1
    cpus = re.findall(r" on CPUs (\S+);", overlap[0])
    assert len(cpus) == 2
    return cpus


#: ``sentdep`` with the arguments argv[1:] in a fresh process that records,
#: at each fork, whether numpy is loaded and its thread count (a line of
#: ``fork.seen`` each), and whether the ingest child loaded numpy by the end
#: of ``write_scores`` (``child.seen``); prints whether numpy ended up loaded.
OBSERVED_FORKS = (
    "import os, sys\n"
    "import sentdep.pipeline as pipeline\n"
    "from sentdep.cli import main\n"
    "def observe(name):\n"
    "    task = '/proc/self/task'\n"
    "    threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    "    with open(name, 'a') as fh:\n"
    "        fh.write(repr(('numpy' in sys.modules, threads)) + '\\n')\n"
    "fork, write_scores = os.fork, pipeline.write_scores\n"
    "def observed_fork():\n"
    "    observe('fork.seen')\n"
    "    return fork()\n"
    "def observed_score(*args, **kwargs):\n"
    "    scores = write_scores(*args, **kwargs)\n"
    "    observe('child.seen')\n"
    "    return scores\n"
    "os.fork, pipeline.write_scores = observed_fork, observed_score\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print('numpy' in sys.modules)\n"
)


def forks_seen(root):
    """(numpy loaded, thread count) at each fork of an ``OBSERVED_FORKS`` run."""
    return [literal_eval(line) for line in (root / "fork.seen").read_text().splitlines()]


#: ``sentdep run`` of the config argv[1], then ``sentdep analyze`` of its
#: scores into ``analyzed.csv``, with spies on the price and score readers
#: that write the pid of each call as a line of ``<reader>.pids``; prints
#: this process's pid and whether the run loaded ``sentdep.prepare`` here.
SPIED_READERS = (
    "import os, sys\n"
    "import sentdep.ingest, sentdep.scores\n"
    "from sentdep.cli import main\n"
    "def spy(module, name):\n"
    "    real = getattr(module, name)\n"
    "    def spied(*args, **kwargs):\n"
    "        with open(name + '.pids', 'a') as fh:\n"
    "            fh.write(f'{os.getpid()}\\n')\n"
    "        return real(*args, **kwargs)\n"
    "    setattr(module, name, spied)\n"
    "spy(sentdep.ingest, 'parse_prices')\n"
    "spy(sentdep.scores, 'read_scores')\n"
    "assert main(['run', '--config', sys.argv[1], '--output-dir', 'out']) == 0\n"
    "loaded = 'sentdep.prepare' in sys.modules\n"
    "assert main(['analyze', '--config', sys.argv[1], '--scores', 'out/scores.csv',\n"
    "             '--out', 'analyzed.csv']) == 0\n"
    "print(os.getpid(), loaded)\n"
)


#: ``sentdep run`` of the config argv[1]; prints which of hashlib and its
#: OpenSSL module this process loaded.
RUN_AND_LIST = (
    "import sys\n"
    "from sentdep.cli import main\n"
    "assert main(['run', '--config', sys.argv[1]]) == 0\n"
    "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
)


#: A fault that ``sentdep run`` now meets in its ingest child: the file it
#: is in, and the line appended to it (or, for ``days.txt``, its lines).
ANALYSIS_INPUT_FAULTS = {
    "broken price file": ("AAA.csv", b"\xff\xfe"),
    "repeated price Date": ("AAA.csv", f"{DAYS[3].isoformat()},12.5".encode()),
    "bad calendar file": ("days.txt", f"{DAYS[0].isoformat()}\nnot-a-date".encode()),
}


@pytest.fixture(scope="module")
def placed_run(tmp_path_factory):
    """(input tree, log lines but the timing lines) of a run into ``placed``."""
    root = tmp_path_factory.mktemp("runs")
    build_tweet_tree(root)
    return root, verbose_run(root, "placed")[1]


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
        overlap = [m for m in messages if "SciPy ufunc import" in m]
        assert len(overlap) == 1 and overlap[0].startswith("ingest ")
        # The child's timeline in order, the parent's import split in two,
        # one block of 19 lines, taken by one of the two processes, and the
        # parent's wait split in two.
        timeline = re.search(r" ([\d.]+) s in a child process on CPUs \S+; the child had the "
                             r"label counts at ([\d.]+) s, scores.csv at ([\d.]+) s, the "
                             r"analysis inputs at ([\d.]+) s and the digests at ([\d.]+) s; ",
                             overlap[0])
        assert timeline is not None
        child_s, *marks = map(float, timeline.groups())
        assert marks == sorted(marks) and marks[-1] <= child_s
        blocks = re.search(r"; numpy and statistics import [\d.]+ s and SciPy ufunc import "
                           r"[\d.]+ s meanwhile on CPUs \S+; "
                           r"tweet blocks \(lines\): (\d+) \((\d+)\) in the child, "
                           r"(\d+) \((\d+)\) here in [\d.]+ s; then waited [\d.]+ s for "
                           r"the child's message and [\d.]+ s to take it; froze \d+ objects; "
                           r"peak RSS [\d.]+ MiB in the child, [\d.]+ MiB here$", overlap[0])
        assert blocks is not None
        child_blocks, child_lines, own_blocks, own_lines = map(int, blocks.groups())
        assert (child_blocks + own_blocks, child_lines + own_lines) == (1, 19)
        # after the child's own lines, before the analysis
        assert messages.index(overlap[0]) == messages.index(
            next(m for m in messages if m.startswith("scores: "))) + 1

    @pytest.mark.parametrize("labels, how, tweets, calendar", [
        ("t1,2022-10-03,tax,positive\nt2,2022-10-03,tax,neutral\nt3,2022-10-04,bank,negative\n",
         "in bulk", False, False),
        ('t1,2022-10-03,tax,positive\nt2,2022-10-03,tax,neutral\n"t3",2022-10-04,bank,negative\n',
         "row by row", False, False),
        ("t1,2022-10-03,tax,positive\nt2,2022-10-03,tax,neutral\nt3,2022-10-04,bank,negative\n",
         "in bulk", True, False),
        (None, None, True, False),
        ("t1,2022-10-03,tax,positive\nt2,2022-10-03,tax,neutral\nt3,2022-10-04,bank,negative\n",
         "in bulk", False, True),
    ], ids=["in bulk", "row by row", "in bulk beside tweets", "tweets only", "with a calendar"])
    def test_external_labels_are_counted_and_hashed_in_the_child(self, tmp_path, caplog,
                                                                  labels, how, tweets, calendar):
        # Every input file is hashed in the ingest child, whichever reader
        # took it, and the manifest holds each file's SHA-256.
        if labels is None:
            ini = build_tweet_tree(tmp_path)
        else:
            ini = label_tree(tmp_path)
            (tmp_path / "labels.csv").write_text("tweet_id,date,aspect,polarity\n" + labels,
                                                 encoding="utf-8")
        if tweets and labels is not None:
            # A tweet file beside the labels feeds only keywords.csv, and
            # its digest is the manifest's too.
            (tmp_path / "tweets.jsonl").write_text(
                '{"id": "t1", "created_at": "2022-10-03T12:00:00Z", "text": "tax up", '
                '"lang": "en"}\n', encoding="utf-8")
            ini.write_text(ini.read_text("utf-8").replace(
                "[inputs]\n", "[inputs]\ntweets = tweets.jsonl\n"), encoding="utf-8")
        if calendar:
            add_calendar(ini, [d.isoformat() for d in DAYS])
        config = load_config(ini)
        with caplog.at_level(logging.INFO):
            run_pipeline(config)
        if labels is not None:
            assert f"labels: 3 rows counted {how}, 3 distinct (day, aspect, polarity) keys" in (
                caplog.messages)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text("utf-8"))
        assert manifest["inputs_sha256"] == {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in config.input_files()}
        assert ("tweets" in manifest["inputs_sha256"]) == tweets
        assert ("labels" in manifest["inputs_sha256"]) == (labels is not None)
        assert ("calendar" in manifest["inputs_sha256"]) == calendar
        assert (tmp_path / "out" / "keywords.csv").exists() == tweets

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

    @pytest.mark.parametrize("tree", [build_tweet_tree, label_tree],
                             ids=["tweets", "labels"])
    def test_the_parent_never_imports_hashlib(self, tmp_path, tree):
        # hashlib loads OpenSSL, which adds about 3.7 MiB to a process that
        # holds numpy; the inputs are hashed in the ingest child, so the
        # parent, whose peak is the run's, never maps it.
        ini = tree(tmp_path)
        assert run_python(RUN_AND_LIST, ini, cwd=tmp_path).splitlines()[-1] == "[]"

    def test_the_parent_reads_no_price_or_score_file(self, tmp_path):
        # The ingest child reads every price file and hands over the rows;
        # the parent of a run calls neither reader and never loads the
        # module that prepares them. `analyze` prepares the same inputs
        # inline and writes the same cells.
        assert main(["fixture", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
        pid, loaded = run_python(SPIED_READERS, "config.ini", cwd=tmp_path).split()[-2:]
        prices = (tmp_path / "parse_prices.pids").read_text().split()
        tickers = len(load_config(tmp_path / "config.ini").prices)
        assert len(prices) == 2 * tickers
        assert pid not in prices[:tickers] and prices[tickers:] == [pid] * tickers
        assert (tmp_path / "read_scores.pids").read_text().split() == [pid]
        assert loaded == "False"
        assert ((tmp_path / "analyzed.csv").read_bytes()
                == (tmp_path / "out" / "cells.csv").read_bytes())

    @pytest.mark.parametrize("fault", sorted(ANALYSIS_INPUT_FAULTS))
    def test_bad_analysis_input_exits_two_like_analyze(self, tmp_path, capsys,
                                                       monkeypatch, fault):
        name, data = ANALYSIS_INPUT_FAULTS[fault]
        ini = build_tweet_tree(tmp_path)
        if name == "days.txt":
            add_calendar(ini, [d.isoformat() for d in DAYS])
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "config.ini", "--output-dir", "clean"]) == 0
        with open(tmp_path / name, "wb" if name == "days.txt" else "ab") as fh:
            fh.write(data + b"\n")
        capsys.readouterr()

        assert main(["run", "--config", "config.ini"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {name}:\d+: [^\n]+\n", err)
        assert_no_child_left()
        # the text stages wrote what they write today, and nothing after them
        written = {"keywords.csv", "labels.csv", "scores.csv"}
        assert {p.name for p in (tmp_path / "out").iterdir()} == written
        for produced in sorted(written):
            assert ((tmp_path / "out" / produced).read_bytes()
                    == (tmp_path / "clean" / produced).read_bytes()), produced

        assert main(["analyze", "--config", "config.ini", "--scores", "out/scores.csv",
                     "--out", "cells.csv"]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "cells.csv").exists()

    def test_no_child_is_left_after_a_run(self, tmp_path):
        run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert_no_child_left()

    def test_child_is_killed_when_the_parent_raises(self, tmp_path, monkeypatch):
        # The parent's import fails while the child is still scoring; the
        # parent must kill the child, not wait the minute out.
        monkeypatch.setattr(sentdep.pipeline, "write_scores", lambda *a, **k: time.sleep(60))
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
        start = time.monotonic()
        with pytest.raises(ImportError):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_other_child_exception_carries_its_traceback(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(sentdep.pipeline, "write_scores", broken)
        with pytest.raises(RuntimeError, match=r"(?s)Traceback.*ValueError: boom"):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert_no_child_left()

    @pytest.mark.parametrize("end, words", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal SIGKILL"),
    ], ids=["exit", "signal"])
    def test_child_ending_without_a_message_is_named(self, tmp_path, monkeypatch,
                                                     end, words):
        monkeypatch.setattr(sentdep.pipeline, "write_scores", lambda *a, **k: end())
        with pytest.raises(RuntimeError, match=f"without a result: {words}$"):
            run_pipeline(load_config(build_tweet_tree(tmp_path)))
        assert_no_child_left()

    def test_child_killed_while_it_writes_its_message_is_named(self, monkeypatch):
        # A 4 MiB message fills the pipe, which this process reads only once
        # its own work is done; the child is killed in its blocked write,
        # so the pipe holds a cut pickle. (The child's wchar counter does not
        # move while a write blocks, so the pipe's fill level is watched.)
        pipes, pids = [], []
        pipe, fork = os.pipe, os.fork
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])

        def kill_once_the_pipe_is_full():
            read_fd = pipes[0][0]
            held, capacity = array.array("i", [0]), fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ)
            end = time.monotonic() + 60
            while held[0] < capacity:
                assert time.monotonic() < end, "the pipe never filled"
                time.sleep(0.001)
                fcntl.ioctl(read_fd, termios.FIONREAD, held)
            os.kill(pids[0], signal.SIGKILL)

        with pytest.raises(RuntimeError, match="without a result: killed by signal SIGKILL$"):
            sentdep.fork.beside(lambda: b"x" * (4 << 20), kill_once_the_pipe_is_full)
        assert_no_child_left()

    def test_forks_before_numpy_loads(self, tmp_path):
        # A fresh process: the parent forks with one thread and no numpy
        # loaded, and the child scores without ever loading numpy.
        ini = build_tweet_tree(tmp_path)
        out = run_python(OBSERVED_FORKS, "run", "--config", ini, cwd=tmp_path)
        assert out.splitlines()[-1] == "True"
        numpy_at_fork, threads_at_fork = forks_seen(tmp_path)[0]
        numpy_in_child, _ = literal_eval((tmp_path / "child.seen").read_text())
        assert not numpy_at_fork and not numpy_in_child
        assert threads_at_fork in (1, None)

    @needs_two_cpus
    def test_analysis_worker_forks_with_one_thread(self, tmp_path):
        # The second fork comes after numpy and SciPy loaded on one pinned
        # CPU, so their OpenBLAS pools started no thread.
        ini = build_tweet_tree(tmp_path)
        run_python(OBSERVED_FORKS, "run", "--config", ini, cwd=tmp_path)
        forks = forks_seen(tmp_path)
        assert len(forks) == 2
        numpy_at_fork, threads_at_fork = forks[1]
        assert numpy_at_fork and threads_at_fork in (1, None)

    @needs_two_cpus
    @pytest.mark.parametrize("case", ["clean", "bad_label", "parent_raises"])
    def test_child_and_parent_run_on_different_cpus(self, tmp_path, case):
        # The child's set is seen as it counts external labels or writes
        # the scores, the parent's while it imports the analysis; the
        # parent's own set is back after main.
        code = (
            "import os, sys, time\n"
            "import sentdep.pipeline as pipeline\n"
            "from sentdep.cli import main\n"
            "case = sys.argv[2]\n"
            "def observe(name):\n"
            "    with open(name, 'w') as fh:\n"
            "        fh.write(repr(os.sched_getaffinity(0)))\n"
            "class ImportObserver:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'sentdep.analysis':\n"
            "            observe('parent.seen')\n"
            "sys.meta_path.insert(0, ImportObserver())\n"
            "def observed(stage):\n"
            "    def call(*args, **kwargs):\n"
            "        observe('child.seen')\n"
            "        if case == 'parent_raises':\n"
            "            time.sleep(60)\n"
            "        return stage(*args, **kwargs)\n"
            "    return call\n"
            "pipeline.parse_labeled = observed(pipeline.parse_labeled)\n"
            "pipeline.write_scores = observed(pipeline.write_scores)\n"
            "if case == 'parent_raises':\n"
            "    sys.modules['scipy.special._ufuncs'] = None\n"
            "before = os.sched_getaffinity(0)\n"
            "try:\n"
            "    code = main(['run', '--config', sys.argv[1]])\n"
            "except ImportError:\n"
            "    code = 'ImportError'\n"
            "print(repr((before, code, os.sched_getaffinity(0))))\n"
        )
        if case == "bad_label":
            ini = label_tree(tmp_path)
            with open(tmp_path / "labels.csv", "a", encoding="utf-8") as fh:
                fh.write("t2,2022-10-04,tax,sideways\n")
        else:
            ini = build_tweet_tree(tmp_path)
        out = run_python(code, ini, case, cwd=tmp_path)
        before, code, after = literal_eval(out.splitlines()[-1])
        assert code == {"clean": 0, "bad_label": 2, "parent_raises": "ImportError"}[case]
        assert after == before
        child = literal_eval((tmp_path / "child.seen").read_text())
        parent = literal_eval((tmp_path / "parent.seen").read_text())
        assert child and parent and not child & parent
        assert child | parent <= before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs sched_setaffinity")
    @pytest.mark.parametrize("fallback", ["one_cpu", "refused", "missing"])
    def test_unplaced_run_writes_the_same(self, placed_run, fallback):
        root, placed_log = placed_run
        timing, log = verbose_run(root, fallback)
        cpus = overlap_cpus(timing)
        assert cpus[0] == cpus[1]
        assert log == [line.replace("placed", fallback) for line in placed_log]
        for name in sorted(EXPECTED_ARTIFACTS):
            assert ((root / fallback / name).read_bytes()
                    == (root / "placed" / name).read_bytes()), name

    def test_without_fork_the_artifacts_are_the_same(self, tmp_path, monkeypatch, caplog):
        ini = build_tweet_tree(tmp_path)
        with caplog.at_level(logging.INFO):
            run_pipeline(load_config(ini))
        forked_log = [m for m in caplog.messages if not is_timing(m)]
        caplog.clear()
        monkeypatch.delattr(os, "fork")
        config = load_config(ini)
        config.output_dir = tmp_path / "inline"
        with caplog.at_level(logging.INFO):
            run_pipeline(config)
        # Inline, the ingest logs no overlap line: only the analysis's
        # timing line is left out of the comparison.
        analysis = [m for m in caplog.messages if " s wall, " in m]
        assert len(analysis) == 1 and analysis[0].startswith("analysis: ")
        assert [m for m in caplog.messages if m not in analysis] == forked_log
        for name in sorted(EXPECTED_ARTIFACTS):
            assert ((tmp_path / "inline" / name).read_bytes()
                    == (tmp_path / "out" / name).read_bytes()), name


def logged_run(config):
    """(every log message of ``run_pipeline(config)`` but the timing lines,
    the ingest overlap's line)."""
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    messages = []
    root = logging.getLogger()
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        run_pipeline(config)
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    overlap = [m for m in messages if "SciPy ufunc import" in m]
    return [m for m in messages if not is_timing(m)], overlap


def broken_fixture(root):
    """Fixture seed 0, its tweet file with a line that is not JSON, a line
    that is not UTF-8, blank lines and CRLF line ends inserted at file
    positions far apart; returns its config path."""
    assert main(["fixture", "--out-dir", str(root), "--seed", "0"]) == 0
    tweets = root / "tweets.jsonl"
    lines = tweets.read_bytes().splitlines(keepends=True)
    lines[2000:2000] = [b"{broken\n", b"  \n"]
    lines[5000] = lines[5000].replace(b"\n", b"\r\n")
    lines[9000:9000] = [b"\xff\xfe\n", b"\n"]
    tweets.write_bytes(b"".join(lines))
    return root / "config.ini"


def label_argv(root, out):
    return ["label", "--tweets", str(root / "tweets.jsonl"),
            "--aspects", str(root / "aspects.txt"),
            "--positive-terms", str(root / "positive_terms.txt"),
            "--negative-terms", str(root / "negative_terms.txt"), "--out", str(out)]


@pytest.fixture(scope="module")
def one_block_run(tmp_path_factory):
    """(config, log but the timing lines) of a :func:`broken_fixture` run
    in one process, which reads its tweet file as one block."""
    root = tmp_path_factory.mktemp("one_block")
    config = load_config(broken_fixture(root))
    config.output_dir = root / "one_block"
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        patch.setattr(sentdep.blocks, "BLOCK_BYTES", 1 << 30)
        log, overlap = logged_run(config)
    assert not overlap
    return config, log


def hook_blocks(monkeypatch, in_child=None, in_parent=None):
    """Have each process call its hook as ``hook(n)`` before it reads its
    n-th tweet block."""
    parent = os.getpid()
    read = sentdep.blocks.parse_tweets
    taken = []  # each process appends to its own copy

    def hooked(*args, span=None, **kwargs):
        if span is not None:
            taken.append(span)
            hook = in_parent if os.getpid() == parent else in_child
            if hook is not None:
                hook(len(taken))
        return read(*args, span=span, **kwargs)

    monkeypatch.setattr(sentdep.blocks, "parse_tweets", hooked)


def parts_left(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("."))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestTweetBlocks:
    def test_tiny_blocks_write_and_log_what_one_block_does(self, one_block_run, tmp_path,
                                                           monkeypatch, capsys):
        # A block of one byte ends after the line it starts in, so up to
        # MAX_CLAIMS blocks of a few lines each are shared by two processes;
        # each process waits for the other's first block before its second.
        config, one_block_log = one_block_run
        monkeypatch.setattr(sentdep.blocks, "BLOCK_BYTES", 1)
        spans = line_blocks(config.tweets, 1, sentdep.fork.MAX_CLAIMS)
        assert sentdep.fork.MAX_CLAIMS // 2 < len(spans) <= sentdep.fork.MAX_CLAIMS
        started = {side: tmp_path / f"{side}.started" for side in ("child", "parent")}

        def take_turns(side, other):
            def hook(n):
                if n == 1:
                    started[side].touch()
                elif n == 2:
                    wait_for(started[other])
            return hook

        hook_blocks(monkeypatch, in_child=take_turns("child", "parent"),
                    in_parent=take_turns("parent", "child"))
        one_block = config.output_dir
        config.output_dir = tmp_path / "tiny"
        log, [overlap] = logged_run(config)
        assert log == one_block_log
        assert any("first at line 2001" in m for m in log)
        for name in sorted(EXPECTED_ARTIFACTS):
            assert ((tmp_path / "tiny" / name).read_bytes()
                    == (one_block / name).read_bytes()), name
        assert parts_left(tmp_path / "tiny") == []
        child_blocks, child_lines, own_blocks, own_lines = map(int, re.search(
            r"tweet blocks \(lines\): (\d+) \((\d+)\) in the child, (\d+) \((\d+)\) here",
            overlap).groups())
        assert child_blocks >= 1 and own_blocks >= 1
        assert child_blocks + own_blocks == len(spans)
        assert child_lines + own_lines == len(config.tweets.read_bytes().splitlines())

        # `sentdep label` by hand reads the same blocks in one process.
        assert main(label_argv(config.tweets.parent, tmp_path / "labels.csv")) == 0
        assert ((tmp_path / "labels.csv").read_bytes()
                == (one_block / "labels.csv").read_bytes())
        assert parts_left(tmp_path) == []
        capsys.readouterr()

    def test_a_child_killed_mid_claim_leaves_the_rest_here(self, one_block_run, tmp_path,
                                                           monkeypatch):
        config, _ = one_block_run
        monkeypatch.setattr(sentdep.blocks, "BLOCK_BYTES", 1)
        claimed = tmp_path / "child.claimed"
        taken = []

        def die(n):
            claimed.touch()
            os.kill(os.getpid(), signal.SIGKILL)

        def parent(n):
            if n == 1:
                wait_for(claimed)
            taken.append(n)

        hook_blocks(monkeypatch, in_child=die, in_parent=parent)
        config.output_dir = tmp_path / "out"
        before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="without a result: killed by signal SIGKILL$"):
            run_pipeline(config)
        assert time.monotonic() - start < 30
        spans = line_blocks(config.tweets, 1, sentdep.fork.MAX_CLAIMS)
        assert len(taken) == len(spans) - 1
        assert_no_child_left()
        if before is not None:
            assert os.sched_getaffinity(0) == before
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("block_bytes", [1, 1 << 30], ids=["tiny blocks", "one block"])
    def test_a_file_over_the_cap_leaves_no_output(self, tmp_path, monkeypatch, capsys,
                                                  block_bytes):
        ini = build_tweet_tree(tmp_path)
        with open(tmp_path / "tweets.jsonl", "ab") as fh:
            fh.write(b"{broken\n" * 2 + b"\xff\n" + b"[1]\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sentdep.blocks, "BLOCK_BYTES", block_bytes)
        message = ("error: tweets.jsonl: 4 of 23 lines malformed (cap 10%); "
                   "first bad line 20\n")
        assert main(["run", "--config", "config.ini"]) == 2
        assert capsys.readouterr().err == message
        assert list((tmp_path / "out").iterdir()) == []
        assert_no_child_left()
        assert main(["label", "--tweets", "tweets.jsonl", "--aspects", "aspects.txt",
                     "--positive-terms", "pos.txt", "--negative-terms", "neg.txt",
                     "--out", "labels.csv"]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "labels.csv").exists()
        assert parts_left(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_handoff_never_sent_ends_the_receiver():
    # A child waiting for a value that its parent ends without sending must
    # get an error, not wait forever.
    handoff = Handoff()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            handoff.receive()
        except EOFError:
            code = 3
        finally:
            os._exit(code)
    handoff.close()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 3
