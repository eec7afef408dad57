"""Run every workload over several seeds and report medians and spreads.

Usage, from the root of a source checkout::

    python3 perfbench/prove.py [--seeds 1-10] [--out FILE] [--baseline FILE]

Every workload of ``BENCHMARK.json`` is run with its ``run_seconds`` and
tracing off, once per seed (at least two seeds). Workloads are interleaved seed by seed (fixture, corpus, universe, then
the next seed), so a slow phase of the host slows every workload a little
instead of one workload a lot; each run's ``host.ref_loop_s`` is printed
beside it to make such phases visible. For each workload and metric the
summary gives the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and their distance as a share of the median, next to the
metric's bound from ``BENCHMARK.json``; the exit status is 1 when a
spread exceeds its bound or a run failed. ``failed_frac`` is the share of
checked child processes that failed, over all runs of the workload.

``--out`` writes every run's metrics, failures and artifact digests as
JSON; ``--baseline`` compares the medians with such a file from another
commit, flags a metric that got worse by more than its bound, and counts
the runs whose artifacts are byte-identical to the baseline's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DETAILS_PREFIX

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric: dict, new: float, old: float) -> float:
    """Relative worsening of ``new`` against ``old`` (negative: better)."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    workloads = [w["name"] for w in bench["workloads"]]
    metric_defs = {m["name"]: m for m in bench["end_to_end"]}

    runs: list[dict] = []
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            details = json.loads(lines[-2].removeprefix(DETAILS_PREFIX))
            runs.append({"workload": workload, "seed": seed, **details, **result})
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in ("run_s", "setup_s"))
            print(f"{workload:9s} seed {seed:3d}  ref_loop {details['ref_loop_s'] * 1e3:6.2f} ms  "
                  f"failed {result['failed']}/{result['attempted']}  {shown}", flush=True)

    baseline = None
    if args.baseline is not None:
        old = json.loads(args.baseline.read_text(encoding="utf-8"))
        baseline = old["summary"]
        old_digests = {(r["workload"], r["seed"]): r["digests"] for r in old["runs"]}
        paired = [r for r in runs if (r["workload"], r["seed"]) in old_digests]
        same = sum(r["digests"] == old_digests[(r["workload"], r["seed"])] for r in paired)
        print(f"\noutputs byte-identical to the baseline in {same} of {len(paired)} "
              f"runs with a common (workload, seed)")
    summary: dict[str, dict] = {}
    worst_ok = True
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        refs = spread([r["ref_loop_s"] for r in mine])
        print(f"\n{workload}: {len(mine)} runs, failed_frac {failed / attempted:.3g} "
              f"({failed}/{attempted}), host.ref_loop_s median {refs[0]:.4g} s "
              f"spread {refs[3]:.3f}")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
              f"{'bound':>6s}")
        summary[workload] = {"failed_frac": failed / attempted}
        for name, metric in metric_defs.items():
            values = [r["metrics"][name]["value"] for r in mine]
            med, q1, q3, rel = spread(values)
            bound = metric["bound"]
            flag = ""
            if rel > bound / 3:
                flag = "  above bound/3" if rel <= bound else "  ABOVE BOUND"
                worst_ok = worst_ok and rel <= bound
            if baseline is not None:
                change = worse_by(metric, med, baseline[workload][name]["median"])
                flag += f"  vs baseline {change:+.3f}" + (" WORSE" if change > bound else "")
                worst_ok = worst_ok and change <= bound
            print(f"  {name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.3f} "
                  f"{bound:>6}{flag}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                       "unit": metric["unit"]}

    if args.out is not None:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1,
                                       sort_keys=True) + "\n", encoding="utf-8")
    return 0 if worst_ok and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
