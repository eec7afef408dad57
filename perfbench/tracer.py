"""Traced single run of the pipeline, for the per-layer metrics.

Run as a child process::

    python3 perfbench/tracer.py SRC CONFIG OUT_DIR SUMMARY_JSON

It wraps each traced function at the module attribute its caller looks
up (``sentdep.pipeline.align_lagged``, not ``sentdep.core.align_lagged``),
runs ``run_pipeline`` once with ``OUT_DIR`` as the output directory, and
keeps every span (layer, start, end, parent, completed) in memory until
the run ends. Only then are the spans reduced to per-layer call counts,
busy time and self time, and written to ``SUMMARY_JSON`` together with
the wall seconds of the ``run_pipeline`` call itself (``run_s``), which
leaves out interpreter start-up and imports.

A traced name that the program no longer has is reported as absent and
not wrapped; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: (layer, module whose attribute the caller looks up, attribute name).
#: A layer listed twice (``ingest.tokenize``) is wrapped at both call sites.
TRACED = (
    ("pipeline.stage_keywords", "sentdep.pipeline", "stage_keywords"),
    ("pipeline.stage_label", "sentdep.pipeline", "stage_label"),
    ("pipeline.stage_score", "sentdep.pipeline", "stage_score"),
    ("pipeline.stage_analyze", "sentdep.pipeline", "stage_analyze"),
    ("pipeline.stage_report", "sentdep.pipeline", "stage_report"),
    ("report.write_manifest", "sentdep.pipeline", "write_manifest"),
    ("ingest.parse_tweets", "sentdep.pipeline", "parse_tweets"),
    ("ingest.tokenize", "sentdep.ingest", "tokenize"),
    ("ingest.tokenize", "sentdep.labeler", "tokenize"),
    ("ingest.keyword_frequencies", "sentdep.pipeline", "keyword_frequencies"),
    ("labeler.label_corpus", "sentdep.pipeline", "label_corpus"),
    ("labeler.find_aspect_occurrences", "sentdep.labeler", "find_aspect_occurrences"),
    ("ingest.write_labeled", "sentdep.pipeline", "write_labeled"),
    ("ingest.parse_labeled", "sentdep.pipeline", "parse_labeled"),
    ("ingest.parse_prices", "sentdep.pipeline", "parse_prices"),
    ("scores.aggregate_daily", "sentdep.pipeline", "aggregate_daily"),
    ("scores.write_scores", "sentdep.pipeline", "write_scores"),
    ("scores.read_scores", "sentdep.pipeline", "read_scores"),
    ("core.align_lagged", "sentdep.pipeline", "align_lagged"),
    ("core.paired_on_common_days", "sentdep.pipeline", "paired_on_common_days"),
    ("pearson.correlate", "sentdep.pipeline", "correlate"),
    ("granger.granger_causes", "sentdep.pipeline", "granger_causes"),
    ("granger.ols", "sentdep.granger", "ols"),
    ("entropy.uncertainty_coefficient", "sentdep.pipeline", "uncertainty_coefficient"),
    ("entropy.kl_entropy", "sentdep.entropy", "kl_entropy"),
    ("report.write_cells", "sentdep.pipeline", "write_cells"),
    ("report.emit_heatmap", "sentdep.pipeline", "emit_heatmap"),
    ("report.emit_granger_table", "sentdep.pipeline", "emit_granger_table"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACED))


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, layers: tuple[str, ...]):
        self.layers = layers
        self.layer = array("i")
        self.parent = array("i")
        self.completed = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, fn, layer_index: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.layer)
            self.layer.append(layer_index)
            self.parent.append(self._stack[-1])
            self.completed.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                self.completed[i] = 1
                return result
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
        return traced

    def install(self, table) -> list[str]:
        """Wrap every (layer, module, attribute); returns the absent names."""
        absent = []
        for layer, module_name, attr in table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, self.layers.index(layer)))
        return absent

    def summary(self) -> dict:
        """Per layer: calls, completed calls, busy and self seconds."""
        n = len(self.layer)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        top_level = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
            else:
                top_level += duration[i]
        per_layer = {layer: {"calls": 0, "completed": 0, "s": 0.0, "self_s": 0.0}
                     for layer in self.layers}
        for i in range(n):
            stats = per_layer[self.layers[self.layer[i]]]
            stats["calls"] += 1
            stats["completed"] += self.completed[i]
            stats["s"] += duration[i]
            stats["self_s"] += duration[i] - child_time[i]
        return {"spans": n, "top_level_s": top_level, "layers": per_layer}


def main(argv: list[str]) -> int:
    src, config_path, out_dir, summary_path = argv
    sys.path.insert(0, src)
    from sentdep.pipeline import load_config, run_pipeline

    tracer = Tracer(LAYERS)
    absent = tracer.install(TRACED)
    config = load_config(config_path)
    config.output_dir = Path(out_dir)
    start = perf_counter()
    run_pipeline(config)
    run_s = perf_counter() - start
    summary = tracer.summary()
    summary["run_s"] = run_s
    summary["absent"] = absent
    Path(summary_path).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
