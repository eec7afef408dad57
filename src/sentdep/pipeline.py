"""Pipeline configuration and file-to-file stage orchestration.

The pipeline is a fixed composition of stages, each of which reads and
writes plain files so they can also be driven individually from the CLI:

    keywords  tweets.jsonl            -> keywords.csv
    label     tweets.jsonl            -> labels.csv
    score     labels.csv              -> scores.csv
    analyze   scores.csv + prices     -> cells.csv
    report    cells.csv               -> heatmap_*.csv, granger.csv

:func:`run_pipeline` is exactly this composition plus a reproducibility
manifest; running the stages by hand yields byte-identical artifacts.
Nothing in the pipeline draws random numbers, so identical inputs and
configuration always produce identical outputs.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, field, make_dataclass
from datetime import date
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .core import (
    PriceSeries,
    ScoreKind,
    SentimentSeries,
    TradingCalendar,
    align_lagged,
    paired_on_common_days,
)
from .entropy import DEFAULT_K, MAX_K, uncertainty_coefficient
from .errors import (
    ConfigError,
    EmptyAlignment,
    InsufficientData,
    SentdepError,
)
from .granger import DEFAULT_ALPHA, first_differences, granger_causes
from .ingest import (
    DEFAULT_MALFORMED_CAP,
    AspectLexicon,
    keyword_frequencies,
    load_aspects,
    parse_labeled,
    parse_prices,
    parse_tweets,
    write_keyword_frequencies,
    write_labeled,
)
from .labeler import DEFAULT_WINDOW, LexiconWindowLabeler, PolarityLexicon, label_corpus
from .pearson import DEFAULT_THRESHOLD, correlate
from .report import (
    DependenceCell,
    emit_granger_table,
    emit_heatmap,
    heatmap_filename,
    write_cells,
    write_manifest,
)
from .scores import aggregate_daily, fill_absent_zero, read_scores, write_scores

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its INI place, type, default, rule and CLI exposure.

    ``kind`` is the value's type: ``Path``, ``int``, ``float``, ``bool``, or
    ``dict`` for the free-form ``[prices]`` section (``TICKER = path``,
    kept in file order). A value for which ``check`` is False fails
    validation with ``"<name> <rule>, got <value>"``. ``override`` adds a
    ``--name-with-dashes`` flag to ``sentdep run`` and ``analyze``;
    ``doc`` is its help text and the key's note in the config help.
    """

    name: str
    section: str
    kind: type
    default: object = None
    check: Callable[[Any], bool] | None = None
    rule: str = ""
    override: bool = False
    doc: str = ""
    ini_key: str | None = None  # when the INI key differs from ``name``

    @property
    def key(self) -> str:
        return self.ini_key or self.name


#: Every pipeline config key, in field order. ``PipelineConfig``, the INI
#: schema, validation, the manifest echo and the CLI overrides and help
#: are all derived from this table.
CONFIG_KEYS: tuple[ConfigKey, ...] = (
    ConfigKey("aspects", "inputs", Path, doc="aspect lexicon, required"),
    ConfigKey("tweets", "inputs", Path, doc="JSON Lines posts; this or labels"),
    ConfigKey("labels", "inputs", Path, doc="aspect labels; skips the built-in labeler"),
    ConfigKey("positive_terms", "inputs", Path, doc="required when labeling tweets"),
    ConfigKey("negative_terms", "inputs", Path, doc="required when labeling tweets"),
    ConfigKey("calendar", "inputs", Path, doc="trading days; default: union of price dates"),
    ConfigKey("prices", "prices", dict,
              doc="one `TICKER = path.csv` per stock (order = report column order)"),
    ConfigKey("window", "label", int, DEFAULT_WINDOW, lambda v: v >= 0, "must be >= 0",
              doc="tokens each side"),
    ConfigKey("min_keyword_count", "ingest", int, 100, lambda v: v >= 1, "must be >= 1",
              doc="tweets a keyword needs"),
    ConfigKey("max_malformed_fraction", "ingest", float, DEFAULT_MALFORMED_CAP,
              lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]",
              doc="malformed tweet lines tolerated"),
    ConfigKey("lag", "analysis", int, 1, lambda v: v >= 1, "must be >= 1", True,
              doc="sentiment lag in trading days"),
    ConfigKey("pearson_threshold", "analysis", float, DEFAULT_THRESHOLD,
              lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)", True,
              doc="|r| significance cut"),
    ConfigKey("granger_alpha", "analysis", float, DEFAULT_ALPHA,
              lambda v: 0.0 < v < 1.0, "must lie in (0, 1)", True,
              doc="F-test significance level"),
    ConfigKey("granger_lag", "analysis", int, 1, lambda v: v >= 1, "must be >= 1", True,
              doc="lag order of the F-test"),
    ConfigKey("granger_reverse", "analysis", bool, False, override=True,
              doc="test the price -> sentiment direction"),
    ConfigKey("granger_difference", "analysis", bool, False, override=True,
              doc="first-difference both series before testing"),
    ConfigKey("entropy_k", "analysis", int, DEFAULT_K, lambda v: 1 <= v <= MAX_K,
              f"must lie in 1..{MAX_K}", True, doc=f"neighbor order 1..{MAX_K}"),
    ConfigKey("top_n_aspects", "analysis", int, 20, lambda v: v >= 1, "must be >= 1", True,
              doc="most-mentioned aspects reported"),
    ConfigKey("absent_as_zero", "analysis", bool, False, override=True,
              doc="treat days without labels as zero counts"),
    ConfigKey("output_dir", "output", Path, Path("out"), ini_key="dir",
              doc="artifact directory"),
    ConfigKey("seed", "output", int, 0, lambda v: v >= 0, "must be >= 0", True,
              doc="recorded in the manifest"),
)

#: Rules spanning several keys, checked before the per-key rules.
_REQUIREMENTS: tuple[tuple[Callable[[Any], bool], str], ...] = (
    (lambda c: c.aspects is not None, "an aspect lexicon file is required"),
    (lambda c: c.tweets is not None or c.labels is not None,
     "either a tweet file or a label file is required"),
    (lambda c: c.labels is not None
     or (c.positive_terms is not None and c.negative_terms is not None),
     "labeling tweets internally requires positive and negative term files"),
    (lambda c: bool(c.prices), "at least one ticker price file is required"),
)


def _config_dataclass(cls):
    """Make ``cls`` a dataclass with one field per CONFIG_KEYS row."""
    fields = [
        (key.name, key.kind,
         field(default_factory=dict) if key.kind is dict else field(default=key.default))
        for key in CONFIG_KEYS
    ]
    # Rebuild rather than subclass, so the class keeps its methods and
    # docstring without a second PipelineConfig in its MRO.
    namespace = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    return make_dataclass(cls.__name__, fields, namespace=namespace)


@_config_dataclass
class PipelineConfig:
    """Everything one pipeline run needs: one field per ``CONFIG_KEYS`` row.

    Either ``tweets`` (with both polarity term files, for the built-in
    labeler) or ``labels`` (externally produced) must be set; both is fine
    — imported labels then take precedence and tweets feed only the
    keyword stage.
    """

    def validate(self) -> None:
        """Raise ConfigError on any invalid value or missing input file."""
        for holds, message in _REQUIREMENTS:
            if not holds(self):
                raise ConfigError(message)
        for name, p in self._input_files():
            if not Path(p).is_file():
                raise ConfigError(f"{name} file does not exist: {p}")
        for key in CONFIG_KEYS:
            value = getattr(self, key.name)
            if key.check is not None and not key.check(value):
                raise ConfigError(f"{key.name} {key.rule}, got {value}")

    def _input_files(self) -> list[tuple[str, Path]]:
        """(logical name, path) for every configured input file."""
        out: list[tuple[str, Path]] = []
        for key in CONFIG_KEYS:
            value = getattr(self, key.name)
            if key.kind is dict:
                out.extend((f"{key.name}:{ticker}", p) for ticker, p in value.items())
            elif key.section == "inputs" and value is not None:
                out.append((key.name, value))
        return out

    def manifest_echo(self) -> dict:
        """Config as recorded in the manifest.

        Paths are reduced to basenames and the ``[output]`` keys are
        omitted (the seed is recorded separately), so a rerun into a
        different directory (or from a copied input tree) still writes
        identical manifest bytes.
        """
        echo: dict[str, object] = {}
        for key in CONFIG_KEYS:
            if key.section == "output":
                continue
            value = getattr(self, key.name)
            if key.kind is Path and value is not None:
                value = Path(value).name
            elif key.kind is dict:
                value = {t: Path(p).name for t, p in value.items()}
            echo[key.name] = value
        return echo


_INI_KEYS = {(key.section, key.key): key for key in CONFIG_KEYS}
_FREE_FORM_SECTIONS = {key.section: key for key in CONFIG_KEYS if key.kind is dict}

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _convert(section: str, key: str, kind: type, text: str, base: Path):
    text = text.strip()
    try:
        if kind is bool:
            low = text.lower()
            if low in _TRUE_WORDS:
                return True
            if low in _FALSE_WORDS:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind is Path:
            return base / text
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def load_config(path) -> PipelineConfig:
    """Read an INI-style config file into a PipelineConfig.

    Relative paths are resolved against the config file's directory.
    Unknown sections or keys are rejected (typo safety); tickers in
    ``[prices]`` keep their case and file order.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # tickers are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    base = path.parent
    config = PipelineConfig()
    sections = {section for section, _ in _INI_KEYS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        free_form = _FREE_FORM_SECTIONS.get(section)
        for key, text in parser.items(section):
            if free_form is not None:
                getattr(config, free_form.name)[key] = base / text.strip()
                continue
            # configparser lowercases nothing here (optionxform=str), so
            # compare case-sensitively against the documented keys.
            row = _INI_KEYS.get((section, key))
            if row is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            setattr(config, row.name, _convert(section, key, row.kind, text, base))
    return config


def load_calendar(path) -> TradingCalendar:
    """Read an explicit trading calendar: one ISO date per line, '#' comments."""
    days: list[date] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            days.append(date.fromisoformat(line))
    return TradingCalendar.from_dates(days)


def build_calendar(config: PipelineConfig, prices: Mapping[str, PriceSeries]) -> TradingCalendar:
    """The run's trading calendar: explicit file, or union of price dates."""
    if config.calendar is not None:
        return load_calendar(config.calendar)
    all_days: set[date] = set()
    for series in prices.values():
        all_days.update(series.values)
    return TradingCalendar.from_dates(all_days)


def select_top_aspects(
    lexicon: AspectLexicon, frequencies: Mapping[str, int], top_n: int
) -> list[str]:
    """The ``top_n`` most-mentioned aspects, in presentation order.

    Candidates are the lexicon entries plus any aspect appearing in the
    labels; ranking is by total label count descending, ties broken
    lexicographically. The returned list is reordered for presentation:
    lexicon order first, remaining aspects alphabetical.
    """
    candidates = set(lexicon.aspects) | set(frequencies)
    ranked = sorted(candidates, key=lambda a: (-frequencies.get(a, 0), a))
    chosen = set(ranked[:top_n])
    ordered = [a for a in lexicon.aspects if a in chosen]
    ordered.extend(sorted(chosen.difference(lexicon.aspects)))
    return ordered


# --- stages ---------------------------------------------------------------


def stage_keywords(
    tweets_path,
    out_path,
    min_count: int = PipelineConfig.min_keyword_count,
    malformed_cap: float = PipelineConfig.max_malformed_fraction,
) -> int:
    """tweets.jsonl -> keywords.csv; returns the number of keywords kept."""
    tweets = parse_tweets(tweets_path, malformed_cap)
    freqs = keyword_frequencies(tweets, min_count=min_count)
    write_keyword_frequencies(freqs, out_path)
    return len(freqs)


def stage_label(
    tweets_path,
    aspects_path,
    positive_path,
    negative_path,
    out_path,
    window: int = PipelineConfig.window,
    malformed_cap: float = PipelineConfig.max_malformed_fraction,
) -> int:
    """tweets.jsonl -> labels.csv; returns the number of labels written."""
    tweets = parse_tweets(tweets_path, malformed_cap)
    aspects = load_aspects(aspects_path)
    labeler = LexiconWindowLabeler(
        PolarityLexicon.from_files(positive_path, negative_path), window=window
    )
    labels = label_corpus(tweets, aspects, labeler)
    write_labeled(labels, out_path)
    return len(labels)


def stage_score(labels_path, out_path) -> int:
    """labels.csv -> scores.csv; returns the number of (aspect, day) cells."""
    labels = parse_labeled(labels_path)
    counts = aggregate_daily(labels)
    write_scores(counts, out_path)
    return len(counts)


def _failure_reason(exc: SentdepError) -> str:
    """Reason code stored in null cells: the failure's name.

    An empty lag alignment is just the zero-observation flavor of too few
    observations, so it shares the InsufficientData code.
    """
    if isinstance(exc, (EmptyAlignment, InsufficientData)):
        return "InsufficientData"
    return type(exc).__name__


def compute_cell(
    sentiment: SentimentSeries,
    price: PriceSeries,
    calendar: TradingCalendar,
    config: PipelineConfig,
) -> DependenceCell:
    """All three dependence statistics for one (aspect, kind, ticker).

    Statistic failures never abort the run; the failing statistic is
    nulled with a reason code and the others still computed. The Pearson
    and uncertainty statistics consume pre-lagged pairs; the Granger test
    consumes same-date pairs and applies its own lag internally.
    """
    cell = dict(
        aspect=sentiment.aspect, kind=sentiment.kind, ticker=price.ticker, n=0
    )
    aligned = None
    try:
        aligned = align_lagged(sentiment, price, calendar, config.lag)
        cell["n"] = aligned.n
    except EmptyAlignment as exc:
        reason = _failure_reason(exc)
        cell["r_reason"] = reason
        cell["u_reason"] = reason

    if aligned is not None:
        try:
            res = correlate(aligned, config.pearson_threshold)
            cell["r"] = res.r
            cell["r_significant"] = res.significant
        except SentdepError as exc:
            cell["r_reason"] = _failure_reason(exc)
        try:
            uc = uncertainty_coefficient(aligned, config.entropy_k)
            cell["u"] = uc.u
            cell["u_valid"] = uc.valid
            cell["u_mi"] = uc.mi
        except SentdepError as exc:
            cell["u_reason"] = _failure_reason(exc)

    try:
        xs, ys = paired_on_common_days(sentiment, price, calendar)
        if config.granger_difference:
            xs, ys = first_differences(xs), first_differences(ys)
        if config.granger_reverse:
            xs, ys = ys, xs
        g = granger_causes(xs, ys, lag=config.granger_lag, alpha=config.granger_alpha)
        cell["granger_f"] = g.f_stat
        cell["granger_p"] = g.p_value
        cell["granger_causal"] = g.causal
        cell["granger_perfect_fit"] = g.perfect_fit
    except SentdepError as exc:
        cell["granger_reason"] = _failure_reason(exc)
    return DependenceCell(**cell)


def stage_analyze(config: PipelineConfig, scores_path, cells_path) -> list[DependenceCell]:
    """scores.csv + price files -> cells.csv; returns the cell list.

    Emits exactly one cell per (top-N aspect x 4 kinds x ticker), aspects
    in presentation order, kinds in fp/fn/nfp/nfn order, tickers in config
    order.
    """
    aspect_lexicon = load_aspects(config.aspects)
    series, totals = read_scores(scores_path)
    prices = {t: parse_prices(p, t) for t, p in config.prices.items()}
    calendar = build_calendar(config, prices)
    top = select_top_aspects(aspect_lexicon, totals, config.top_n_aspects)

    cells: list[DependenceCell] = []
    for aspect in top:
        for kind in ScoreKind:
            sentiment = series.get(
                (aspect, kind), SentimentSeries(aspect=aspect, kind=kind, values={})
            )
            if config.absent_as_zero and kind.is_absolute:
                sentiment = fill_absent_zero(sentiment, calendar)
            for price in prices.values():
                cells.append(compute_cell(sentiment, price, calendar, config))
    write_cells(cells, cells_path)
    if cells and all(c.r is None and c.granger_f is None and c.u is None for c in cells):
        logger.warning("no cell produced any statistic (no usable label/price overlap)")
    return cells


def stage_report(cells: Sequence[DependenceCell], output_dir) -> list[Path]:
    """cells -> heatmap_{r|u}_{kind}.csv + granger.csv; returns paths written."""
    output_dir = Path(output_dir)
    written: list[Path] = []
    for statistic in ("r", "u"):
        for kind in ScoreKind:
            target = output_dir / heatmap_filename(statistic, kind)
            emit_heatmap(cells, statistic, kind, target)
            written.append(target)
    granger_path = output_dir / "granger.csv"
    emit_granger_table(cells, granger_path)
    written.append(granger_path)
    return written


def run_pipeline(config: PipelineConfig) -> list[DependenceCell]:
    """Run every stage and write all artifacts into ``config.output_dir``.

    Artifacts: keywords.csv (when tweets are configured), labels.csv
    (when labeled internally), scores.csv, cells.csv, eight heatmaps,
    granger.csv, run_manifest.json.
    """
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if config.tweets is not None:
        n_keywords = stage_keywords(
            config.tweets, out / "keywords.csv",
            min_count=config.min_keyword_count,
            malformed_cap=config.max_malformed_fraction,
        )
        logger.info("keywords: %d kept", n_keywords)

    if config.labels is not None:
        labels_path = config.labels
    else:
        labels_path = out / "labels.csv"
        n_labels = stage_label(
            config.tweets, config.aspects, config.positive_terms,
            config.negative_terms, labels_path,
            window=config.window, malformed_cap=config.max_malformed_fraction,
        )
        logger.info("labels: %d occurrences", n_labels)

    scores_path = out / "scores.csv"
    n_cells_scored = stage_score(labels_path, scores_path)
    logger.info("scores: %d aspect-day cells", n_cells_scored)

    cells = stage_analyze(config, scores_path, out / "cells.csv")
    logger.info("analysis: %d dependence cells", len(cells))

    stage_report(cells, out)
    write_manifest(
        out / "run_manifest.json",
        config_echo=config.manifest_echo(),
        input_paths=config._input_files(),
        seed=config.seed,
    )
    return cells
