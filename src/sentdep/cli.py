"""Command-line interface.

Subcommands mirror the pipeline stages and compose through files::

    sentdep keywords --tweets tweets.jsonl --out keywords.csv
    sentdep label    --tweets tweets.jsonl --out labels.csv
    sentdep score    --labels labels.csv --out scores.csv
    sentdep analyze  --config run.ini --scores scores.csv --out cells.csv
    sentdep report   --cells cells.csv --out-dir out/
    sentdep run      --config run.ini            # all of the above
    sentdep fixture  --out-dir demo/ --seed 7    # synthetic demo corpus

``run`` is byte-identical to executing the stages by hand. Exit codes:
0 success (warnings possible), 1 configuration error, 2 fatal input-file
error, an output path that cannot be written or any other error the
program reports.
"""

from __future__ import annotations

import argparse
import logging
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import ConfigError, FormatError, SentdepError
from .ingest import make_output_dir
from .pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    check_values,
    load_config,
    run_pipeline,
    stage_analyze,
    stage_keywords,
    stage_label,
    stage_report,
    stage_score,
)
from .report import read_cells
from .scores import ROWS_PER_DAY, aspect_days

logger = logging.getLogger(__name__)

def _config_help() -> str:
    """The ``run``/``analyze`` epilog: every config key, grouped by section."""
    lines = ["config file keys (INI syntax; relative paths resolve against the file):", ""]
    previous = None
    for key in CONFIG_KEYS:
        label = f"[{key.section}]" if key.section != previous else ""
        previous = key.section
        if key.kind is dict:
            lines.append(f"  {label:<10} {key.doc}")
            continue
        notes = [key.doc]
        if key.kind is not Path:
            default = str(key.default).lower() if key.kind is bool else key.default
            notes.append(f"default {default}")
        lines.append(f"  {label:<10} {key.key:<28} ({', '.join(notes)})")
    return "\n".join(lines) + "\n"


def _packaged_data(name: str) -> Path:
    return Path(str(resources.files("sentdep").joinpath("data", name)))


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides")
    for key in CONFIG_KEYS:
        if not key.override:
            continue
        flag = "--" + key.name.replace("_", "-")
        if key.kind is bool:
            group.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=None, help=key.doc)
        else:
            group.add_argument(flag, type=key.kind, default=None, help=key.doc)


def _load_config_with_overrides(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config)
    for key in CONFIG_KEYS:
        value = getattr(args, key.name, None)
        if key.override and value is not None:
            setattr(config, key.name, value)
    if getattr(args, "output_dir", None) is not None:
        config.output_dir = Path(args.output_dir)
    return config


def _cmd_keywords(args: argparse.Namespace) -> int:
    check_values(min_keyword_count=args.min_count, max_malformed_fraction=args.malformed_cap)
    n = stage_keywords(args.tweets, args.out,
                       min_count=args.min_count, malformed_cap=args.malformed_cap)
    print(f"{n} keywords with >= {args.min_count} tweets -> {args.out}")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    check_values(window=args.window, max_malformed_fraction=args.malformed_cap)
    n = stage_label(args.tweets, args.aspects, args.positive_terms, args.negative_terms,
                    args.out, window=args.window, malformed_cap=args.malformed_cap)
    print(f"{n} aspect labels -> {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    days = aspect_days(stage_score(args.labels, args.out))
    print(f"{days * ROWS_PER_DAY} score rows ({days} aspect-days) -> {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config_with_overrides(args)
    config.validate()
    cells = stage_analyze(config, args.scores, args.out)
    print(f"{len(cells)} dependence cells -> {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cells = read_cells(args.cells)
    if not cells:
        raise FormatError("no cell rows to report", path=args.cells)
    out_dir = make_output_dir(args.out_dir)
    written = stage_report(cells, out_dir)
    print(f"{len(written)} report files -> {out_dir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_with_overrides(args)
    cells = run_pipeline(config)
    causal = sum(1 for c in cells if c.granger_causal)
    significant = sum(1 for c in cells if c.r_significant)
    print(f"{len(cells)} cells ({significant} r-significant, {causal} causal) "
          f"-> {config.output_dir}")
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    from .fixture import generate_fixture

    check_values(seed=args.seed)
    config_path = generate_fixture(args.out_dir, seed=args.seed)
    print(f"synthetic corpus -> {args.out_dir}")
    print(f"run it with: sentdep run --config {config_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentdep",
        description="Dependence statistics between aspect sentiment and stock closes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log stage progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keywords", help="count tweets per token (collection-query tuning)")
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=PipelineConfig.min_keyword_count,
                   help="keep tokens appearing in at least this many tweets")
    p.add_argument("--malformed-cap", type=float,
                   default=PipelineConfig.max_malformed_fraction)
    p.set_defaults(func=_cmd_keywords)

    p = sub.add_parser("label", help="detect and label aspect occurrences")
    p.add_argument("--tweets", required=True)
    p.add_argument("--aspects", default=_packaged_data("aspects_default.txt"),
                   help="aspect lexicon (default: bundled top-20 financial aspects)")
    p.add_argument("--positive-terms", default=_packaged_data("positive_terms.txt"))
    p.add_argument("--negative-terms", default=_packaged_data("negative_terms.txt"))
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=PipelineConfig.window)
    p.add_argument("--malformed-cap", type=float,
                   default=PipelineConfig.max_malformed_fraction)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("score", help="aggregate labels into daily score series")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser(
        "analyze", help="compute dependence cells from scores and prices",
        epilog=_config_help(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    _add_override_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="emit heatmaps and the causality table")
    p.add_argument("--cells", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "run", help="run the whole pipeline from a config file",
        epilog=_config_help(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None, help="override [output] dir")
    _add_override_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fixture", help="write a seeded synthetic demo corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SentdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
