"""End-to-end and per-layer benchmark of ``sentdep run``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {fixture,corpus,universe} --seed N \\
        --seconds S --trace {0,1}

One invocation generates (or reuses) the seeded inputs of one workload,
then runs ``sentdep run`` as one child process at a time for about ``S``
seconds, checking every repetition's outputs. The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it starts with ``details:`` and holds the
artifact digests, the failures and the median ``host.ref_loop_s``.

``--trace 0`` also times ``SETUP_REPS`` fresh set-up processes, spread
between the repetitions, and reports the end-to-end metrics:

* ``run_s``            wall seconds of one ``sentdep run`` process, at the
                       reference host speed (see below);
* ``setup_s``          wall seconds of a fresh process that imports
                       ``sentdep.cli`` and loads and validates the config,
                       at the reference host speed;
* ``peak_rss_mb``      peak resident MiB of the run child (median). This is
                       one process's ``ru_maxrss``, so it would undercount a
                       later process pool;
* ``cells_per_s``      ``cells.csv`` rows / ``run_s``;
* ``input_rows_per_s`` input records / ``run_s``: tweet lines where the
                       workload reads tweets, label rows where it reads labels.

The host's speed changes by up to 60% for stretches of seconds to
minutes, longer than a whole invocation. So each timed child runs between
two probes of host speed, ``PROBE_LOOPS`` timings of a fixed pure-Python
reference loop before it and as many after it, and ``run_s`` and
``setup_s`` are the median over the repetitions of wall seconds scaled by
``REF_LOOP_S`` / (median probe) (see :func:`at_reference_speed`).
Repetitions that failed a check are left out of them but counted in
``failed``. The raw wall seconds and probes of every repetition are
printed above the result line.

``--trace 1`` follows each untraced repetition with a traced one (see
``tracer.py``), then times ``IMPORTTIME_REPS`` ``-X importtime`` imports,
and reports the per-layer metrics: per traced layer its busy seconds,
calls and self seconds (medians over the traced runs),
``entropy.u_useful_ratio``, the import times, ``trace.overhead_s`` (median
over pairs of traced wall - untraced wall), ``trace.coverage`` (median
share of the ``run_pipeline`` call spent in top-level stage spans) and
``host.ref_loop_s``. Metric names, their order and units are those of
``BENCHMARK.json``.

Every child's exit code and outputs are checked (see ``checks.py``); a
failed child counts in ``failed``, which makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from checks import check_repetition
from inputs import WORKLOADS, WorkloadSpec, prepare_inputs
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: Fresh set-up processes timed per ``--trace 0`` invocation.
SETUP_REPS = 6
#: Repetitions made even when they overrun the time window.
MIN_REPS = 3
#: Reference-loop timings just before, and as many just after, each timed child.
PROBE_LOOPS = 3
#: Probe seconds of the reference host speed, to which run_s and setup_s are
#: scaled: the loop's time in the fast state of the 2-core shared x86 VM
#: the benchmark was written on. It sets only the scale, which is the same
#: for every commit measured with this benchmark.
REF_LOOP_S = 0.021
IMPORTTIME_REPS = 3
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Start of the stdout line, just before the result line, that holds the
#: artifact digests, failures and median ``host.ref_loop_s`` as JSON.
DETAILS_PREFIX = "details: "

SETUP_CODE = (
    "import sys, sentdep.cli\n"
    "from sentdep.pipeline import load_config\n"
    "load_config(sys.argv[1]).validate()\n"
)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a probe of current host speed."""
    start = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def time_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MiB).

    The child is reaped with ``wait4`` so its own ``ru_maxrss`` is read;
    its stderr goes to ``log``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def import_times(log: Path) -> tuple[int, float, float]:
    """Exit code, import.sentdep_s and import.scipy_s of one ``-X importtime`` child.

    sentdep: cumulative time of the top-level ``sentdep*`` imports, i.e.
    everything ``import sentdep.cli`` pulls in; scipy: summed self time of
    ``scipy`` and its submodules.
    """
    _, code, _ = time_child([sys.executable, "-X", "importtime", "-c", "import sentdep.cli"],
                            log)
    sentdep_us = scipy_us = 0
    for line in log.read_text(encoding="utf-8", errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cumulative_us = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        top_level = len(parts[2]) - len(parts[2].lstrip()) == 1
        if top_level and (name == "sentdep" or name.startswith("sentdep.")):
            sentdep_us += cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return code, sentdep_us / 1e6, scipy_us / 1e6


def probed_child(argv: list[str], log: Path) -> tuple[float, int, float, float]:
    """:func:`time_child` between two host probes.

    Returns (wall seconds, exit code, peak RSS MiB, probe seconds), the probe
    being the median of the reference-loop timings around the child.
    """
    before = [reference_loop() for _ in range(PROBE_LOOPS)]
    wall, code, rss = time_child(argv, log)
    after = [reference_loop() for _ in range(PROBE_LOOPS)]
    return wall, code, rss, statistics.median(before + after)


def at_reference_speed(samples: list[tuple[float, float]]) -> float:
    """Median of wall * REF_LOOP_S / probe over (wall, probe) samples.

    The host slows the program and the probe loop alike for stretches
    that can outlast a whole invocation, so neither the median nor the
    fastest of the raw wall times is steady from one invocation to the
    next; the ratio to the probe taken around the same child is.
    """
    return statistics.median(wall * REF_LOOP_S / probe for wall, probe in samples)


class Run:
    """One benchmark invocation: its children, checks and measurements."""

    def __init__(self, inputs_dir: Path, spec: WorkloadSpec):
        self.config = inputs_dir / spec.config
        self.spec = spec
        self.dir = WORK / "runs" / f"{spec.workload}-{spec.seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.setups: list[tuple[float, float]] = []  # (wall, probe)
        self.reps: list[dict] = []
        self.traces: list[dict] = []

    def _count(self, what: str, problems: list[str]) -> bool:
        """Count one checked child; returns whether it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)
        return not problems

    def time_setup(self, timed: bool = True) -> None:
        """One fresh set-up process; its times are kept when ``timed``."""
        wall, code, _, probe = probed_child(
            [sys.executable, "-c", SETUP_CODE, str(self.config)], self.dir / "setup.log")
        self._count(f"setup {len(self.setups)}", [f"exit code {code}"] if code else [])
        if timed:
            self.setups.append((wall, probe))

    def check(self, what: str, out: Path, code: int) -> bool:
        """Check one pipeline child's outputs; returns whether they passed."""
        problems, digests = check_repetition(out, self.spec, code, self.reference)
        if self.reference is None and not problems:
            self.reference = digests
        if self._count(what, problems):
            shutil.rmtree(out)
            return True
        return False

    def measure_runs(self, seconds: float, traced: bool, setup_reps: int) -> None:
        """Repetitions of ``sentdep run`` for about ``seconds``.

        With ``traced``, each is paired with a traced run of the same config
        right after it. ``setup_reps`` set-up processes are timed after one
        untimed warm-up (which also compiles bytecode in a new checkout);
        they are spread over the window, so that they meet the same phases
        of the host as the repetitions.
        """
        start = perf_counter()
        if setup_reps:
            self.time_setup(timed=False)
        while True:
            while len(self.setups) < setup_reps * min(1.0, (perf_counter() - start) / seconds):
                self.time_setup()
            i = len(self.reps)
            rep = {}
            out = self.dir / f"rep{i}"
            rep["run_s"], code, rep["peak_rss_mb"], rep["ref_loop_s"] = probed_child(
                [sys.executable, "-m", "sentdep.cli", "run", "--config", str(self.config),
                 "--output-dir", str(out)], self.dir / f"rep{i}.log")
            rep["passed"] = self.check(f"rep {i}", out, code)
            if traced:
                out = self.dir / f"traced{i}"
                summary = self.dir / f"trace{i}.json"
                rep["traced_s"], code, _ = time_child(
                    [sys.executable, str(TRACER), str(SRC), str(self.config), str(out),
                     str(summary)], self.dir / f"traced{i}.log")
                rep["traced_passed"] = self.check(f"traced run {i}", out, code)
                if rep["traced_passed"]:
                    self.traces.append(json.loads(summary.read_text(encoding="utf-8")))
            self.reps.append(rep)
            elapsed = perf_counter() - start
            typical = elapsed / len(self.reps)
            if len(self.reps) >= MIN_REPS and elapsed + typical > seconds:
                break
        while len(self.setups) < setup_reps:
            self.time_setup()

    def end_to_end(self) -> dict[str, float]:
        passed = [r for r in self.reps if r["passed"]] or self.reps
        run_s = at_reference_speed([(r["run_s"], r["ref_loop_s"]) for r in passed])
        input_rows = self.spec.tweet_lines or self.spec.label_rows
        return {
            "run_s": run_s,
            "setup_s": at_reference_speed(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passed),
            "cells_per_s": self.spec.expected_cells / run_s,
            "input_rows_per_s": input_rows / run_s,
        }

    def per_layer(self, names: list[str]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the traced runs; returns (metrics, absent names).

        A metric named ``<traced layer>.<statistic>`` (``s``, ``calls`` or
        ``self_s``) is the median of that statistic over the traced runs;
        the others are computed here.
        """
        def median_of(values) -> float:
            values = list(values)
            return statistics.median(values) if values else 0.0

        def stat(layer: str, key: str) -> float:
            return median_of(t["layers"].get(layer, {}).get(key, 0) for t in self.traces)

        imports = []
        for i in range(IMPORTTIME_REPS):
            code, sentdep_s, scipy_s = import_times(self.dir / f"importtime{i}.log")
            self._count(f"importtime {i}", [f"exit code {code}"] if code else [])
            imports.append((sentdep_s, scipy_s))
        pairs = [r for r in self.reps if r["passed"] and r["traced_passed"]]
        u_calls = stat("entropy.uncertainty_coefficient", "calls")
        metrics = {
            "import.sentdep_s": statistics.median(s for s, _ in imports),
            "import.scipy_s": statistics.median(s for _, s in imports),
            "entropy.u_useful_ratio": (
                stat("entropy.uncertainty_coefficient", "completed") / u_calls
                if u_calls else 0.0),
            "trace.overhead_s": median_of(r["traced_s"] - r["run_s"] for r in pairs),
            "trace.coverage": median_of(t["top_level_s"] / t["run_s"] for t in self.traces),
            "host.ref_loop_s": statistics.median(r["ref_loop_s"] for r in self.reps),
        }
        for name in names:
            layer, _, key = name.rpartition(".")
            if layer in LAYERS:
                metrics[name] = stat(layer, key)
        absent = self.traces[0]["absent"] if self.traces else list(LAYERS)
        return {name: metrics[name] for name in names}, absent


def _print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sentdep" / "cli.py").is_file():
        print(f"error: no sentdep sources under {SRC}", file=sys.stderr)
        return 2

    # The fixture's spec is read back with the program's own load_config.
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    inputs_dir, spec = prepare_inputs(args.workload, args.seed, SRC, WORK)
    run = Run(inputs_dir, spec)
    if args.trace:
        run.measure_runs(args.seconds, traced=True, setup_reps=0)
        metrics, absent = run.per_layer([m["name"] for m in bench["per_layer"]])
    else:
        run.measure_runs(args.seconds, traced=False, setup_reps=SETUP_REPS)
        e2e = run.end_to_end()
        metrics, absent = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}, []

    print(f"workload {args.workload} seed {args.seed}: {len(run.reps)} runs, "
          f"{len(run.traces)} traced, {len(run.setups)} set-ups, {run.attempted} children, "
          f"{run.failed} failed (failed_frac {run.failed / run.attempted:.3g})")
    print("wall s per repetition: " + " ".join(f"{r['run_s']:.3f}" for r in run.reps))
    print("probe ms per repetition: " + " ".join(f"{r['ref_loop_s'] * 1e3:.1f}"
                                                  for r in run.reps))
    if args.trace:
        _print_table("per layer (medians over traced runs):", metrics, units)
        if absent:
            print(f"absent traced names: {', '.join(absent)}")
    else:
        _print_table("end to end (times at the reference host speed):", metrics, units)
        if spec.tweet_lines:
            print(f"  {'tweets_per_s':40s} {spec.tweet_lines / metrics['run_s']:14.6g} 1/s")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if not run.failures:
        shutil.rmtree(run.dir)

    # Read by prove.py: artifact digests (so another commit's outputs can
    # be compared byte for byte) and the host probe.
    print(DETAILS_PREFIX + json.dumps({
        "digests": run.reference, "failures": run.failures,
        "ref_loop_s": statistics.median(r["ref_loop_s"] for r in run.reps),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
