"""Command-line interface.

Subcommands mirror the pipeline stages and compose through files::

    sentdep keywords --tweets tweets.jsonl --out keywords.csv
    sentdep label    --tweets tweets.jsonl --out labels.csv
    sentdep score    --labels labels.csv --out scores.csv
    sentdep analyze  --config run.ini --scores scores.csv --out cells.csv
    sentdep report   --cells cells.csv --out-dir out/
    sentdep run      --config run.ini            # all of the above
    sentdep fixture  --out-dir demo/ --seed 7    # synthetic demo corpus

Every option that sets a config key is built from the key's
``CONFIG_KEYS`` row and checked before any file is read.

``run`` is byte-identical to executing the stages by hand. Exit codes:
0 success (warnings possible), 1 configuration error, 2 fatal input-file
error, an output path that cannot be written or any other error the
program reports.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, FormatError, SentdepError
from .ingest import make_output_dir, packaged_data
from .pipeline import (
    CONFIG_COMMANDS,
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


def _add_key_options(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Add to each command the options that set a config key, from the
    key's ``CONFIG_KEYS`` row: a command that reads a config file defaults
    them to None, which keeps the file's value."""
    for key in CONFIG_KEYS:
        for command in key.options:
            kind = ({"action": argparse.BooleanOptionalAction} if key.kind is bool
                    else {"type": key.kind})
            parsers[command].add_argument(
                key.flag or "--" + key.name.replace("_", "-"), dest=key.name, help=key.doc,
                default=None if command in CONFIG_COMMANDS else key.default, **kind)


def _load_config_with_overrides(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config)
    for key in CONFIG_KEYS:
        value = getattr(args, key.name, None)
        if args.command in key.options and value is not None:
            setattr(config, key.name, value)
    return config


def _cmd_keywords(args: argparse.Namespace) -> int:
    n = stage_keywords(args.tweets, args.out, min_count=args.min_keyword_count,
                       malformed_cap=args.max_malformed_fraction)
    print(f"{n} keywords with >= {args.min_keyword_count} tweets -> {args.out}")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    n = stage_label(args.tweets, args.aspects, args.positive_terms, args.negative_terms,
                    args.out, window=args.window, malformed_cap=args.max_malformed_fraction)
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
    parsers = {}

    p = parsers["keywords"] = sub.add_parser(
        "keywords", help="count tweets per token (collection-query tuning)")
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_keywords)

    p = parsers["label"] = sub.add_parser("label", help="detect and label aspect occurrences")
    p.add_argument("--tweets", required=True)
    p.add_argument("--aspects", default=packaged_data("aspects_default.txt"),
                   help="aspect lexicon (default: bundled top-20 financial aspects)")
    p.add_argument("--positive-terms", default=packaged_data("positive_terms.txt"))
    p.add_argument("--negative-terms", default=packaged_data("negative_terms.txt"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("score", help="aggregate labels into daily score series")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = parsers["analyze"] = sub.add_parser(
        "analyze", help="compute dependence cells from scores and prices",
        epilog=_config_help(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="emit heatmaps and the causality table")
    p.add_argument("--cells", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    p = parsers["run"] = sub.add_parser(
        "run", help="run the whole pipeline from a config file",
        epilog=_config_help(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = parsers["fixture"] = sub.add_parser(
        "fixture", help="write a seeded synthetic demo corpus")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fixture)

    _add_key_options(parsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        check_values(**{name: value for name, value in vars(args).items() if value is not None})
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SentdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
