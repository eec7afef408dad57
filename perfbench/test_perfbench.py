"""Fast checks of the benchmark itself.

Run with ``python3 -m pytest perfbench``. Inputs are kept small: the
properties tested do not depend on size.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import artifact_digests, check_repetition
from inputs import generate_corpus, generate_universe

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL = {
    "corpus": lambda out, seed: generate_corpus(out, seed, SRC, n_tweets=1500, n_days=40),
    "universe": lambda out, seed: generate_universe(out, seed, SRC, n_trading_days=60,
                                                    n_tickers=6),
}


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generators_are_byte_deterministic_per_seed(workload, tmp_path):
    trees = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        out = tmp_path / name
        out.mkdir()
        SMALL[workload](out, seed)
        trees[name] = _tree_bytes(out)
    assert trees["a"] == trees["b"]
    assert trees["a"] != trees["c"]


@pytest.fixture(scope="module")
def universe_run(tmp_path_factory):
    """A small universe input tree and one real run's output directory."""
    inputs = tmp_path_factory.mktemp("inputs")
    spec = SMALL["universe"](inputs, 1)
    out = tmp_path_factory.mktemp("out")
    proc = subprocess.run(
        [sys.executable, "-m", "sentdep.cli", "run", "--config", str(inputs / spec.config),
         "--output-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, timeout=120,
    )
    return spec, out, proc.returncode


def test_checker_accepts_a_correct_run(universe_run):
    spec, out, code = universe_run
    problems, digests = check_repetition(out, spec, code, reference=None)
    assert problems == []
    assert check_repetition(out, spec, code, reference=digests)[0] == []


def test_checker_fails_a_run_with_one_corrupted_artifact(universe_run, tmp_path):
    spec, out, code = universe_run
    reference = artifact_digests(out)
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    heatmap = copy / "heatmap_r_fp.csv"
    data = bytearray(heatmap.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    heatmap.write_bytes(bytes(data))
    problems, _ = check_repetition(copy, spec, code, reference)
    assert problems and "heatmap_r_fp.csv" in problems[-1]


def test_checker_fails_missing_rows_and_planted_cells(universe_run, tmp_path):
    spec, out, code = universe_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    cells = copy / "cells.csv"
    lines = cells.read_text(encoding="utf-8").splitlines(keepends=True)
    aspect, kind, ticker = spec.planted[0]
    kept = [ln for ln in lines if not ln.startswith(f"{aspect},{kind},{ticker},")]
    assert len(kept) == len(lines) - 1
    cells.write_text("".join(kept), encoding="utf-8")
    problems, _ = check_repetition(copy, spec, code, reference=None)
    assert any("rows" in p for p in problems)
    assert any("planted" in p for p in problems)


def test_checker_fails_nonzero_exit(universe_run):
    spec, out, _ = universe_run
    problems, _ = check_repetition(out, spec, 2, reference=None)
    assert problems == ["exit code 2"]
