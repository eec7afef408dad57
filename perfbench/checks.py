"""Output checks for one benchmark repetition.

A repetition passes when the run exited 0, ``cells.csv`` has one row per
(top-N aspect, score kind, ticker), every planted cell is r-significant
and Granger-causal, and every artifact's SHA-256 equals the first
repetition's. Columns are looked up by name, so columns added later are
tolerated.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from inputs import WorkloadSpec


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the run wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir()) if p.is_file()
    }


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out_dir: Path, spec: WorkloadSpec) -> list[str]:
    """Problems with one run's artifacts; empty when they are correct."""
    out_dir = Path(out_dir)
    cells_path = out_dir / "cells.csv"
    if not cells_path.is_file():
        return ["cells.csv missing"]
    problems = []
    try:
        rows = _read_rows(cells_path)
        if len(rows) != spec.expected_cells:
            problems.append(f"cells.csv has {len(rows)} rows, "
                            f"expected {spec.expected_cells}")
        cells = {(r["aspect"], r["kind"], r["ticker"]): r for r in rows}
        for aspect, kind, ticker in spec.planted:
            cell = cells.get((aspect, kind, ticker))
            if cell is None:
                problems.append(f"planted cell {aspect}/{kind}/{ticker} missing")
                continue
            r = float(cell["r"]) if cell["r"] else 0.0
            if cell["r_significant"] != "true" or abs(r) <= spec.planted_min_r:
                problems.append(f"planted cell {aspect}/{kind}/{ticker} r={cell['r']!r} "
                                f"not significant above {spec.planted_min_r}")
            if cell["granger_causal"] != "true":
                problems.append(f"planted cell {aspect}/{kind}/{ticker} not causal")
        if spec.planted_first_for is not None:
            first = next((r for r in _read_rows(out_dir / "granger.csv")
                          if r["ticker"] == spec.planted_first_for), None)
            wanted = next([a, k] for a, k, t in spec.planted
                          if t == spec.planted_first_for)
            if first is None or [first["aspect"], first["kind"]] != wanted:
                problems.append(f"granger.csv: first row for {spec.planted_first_for} "
                                f"is not {wanted}")
    except (OSError, KeyError, ValueError, csv.Error) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def check_repetition(out_dir: Path, spec: WorkloadSpec, exit_code: int,
                     reference: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """All checks for one repetition; returns (problems, its digests).

    ``reference`` holds the first repetition's digests (None for the first).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems = check_outputs(out_dir, spec)
    digests = artifact_digests(out_dir)
    if reference is not None and digests != reference:
        changed = sorted(n for n in set(digests) | set(reference)
                         if digests.get(n) != reference.get(n))
        problems.append(f"artifacts differ from the first repetition: {changed}")
    return problems, digests
