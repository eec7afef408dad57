"""Pipeline configuration and file-to-file stage orchestration.

The pipeline is a fixed composition of stages, each of which reads and
writes plain files so they can also be driven individually from the CLI:

    keywords  tweets.jsonl            -> keywords.csv
    label     tweets.jsonl            -> labels.csv
    score     labels.csv              -> scores.csv
    analyze   scores.csv + prices     -> cells.csv
    report    cells.csv               -> heatmap_*.csv, granger.csv

:func:`run_pipeline` writes what this composition writes, plus a
reproducibility manifest; running the stages by hand yields
byte-identical artifacts. It reads back nothing it has written: the
label rows and the scores pass from one stage to the next in memory.
When it labels the tweets itself, the label stage also counts the
keywords, so the tweet file is read and tokenized once.
Nothing in the pipeline draws random numbers, so identical inputs and
configuration always produce identical outputs.

The two halves of a run share nothing but the scores. Only the analysis
needs numpy and SciPy; its cell code lives in :mod:`sentdep.analysis`,
which :func:`stage_analyze` imports when it runs, so this module and the
text stages load neither. Where ``os.fork`` exists, :func:`run_pipeline`
forks before the numerical stack is loaded: one child runs the keyword,
label and score stages while the parent imports numpy, the statistics
and ``scipy.special`` on the other core. The child sends its log records
and its scores, or its error, back through a pipe; the parent replays
the records, then re-raises the error or goes on with the analysis and
the report (see :func:`_ingest_beside_import`).
"""

from __future__ import annotations

import configparser
import logging
import os
import pickle
import traceback
from dataclasses import dataclass, field, make_dataclass
from datetime import date
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping, Sequence

from .core import (
    DEFAULT_ALPHA,
    DEFAULT_K,
    DEFAULT_THRESHOLD,
    MAX_K,
    PolarityLabel,
    ScoreKind,
    TradingCalendar,
)
from .errors import ConfigError, FormatError, SentdepError
from .ingest import (
    DEFAULT_MALFORMED_CAP,
    AspectLexicon,
    KeywordCounts,
    comment_lines,
    keyword_frequencies,
    load_aspects,
    make_output_dir,
    parse_labeled,
    parse_prices,
    parse_tweets,
    read_lines,
    write_keyword_frequencies,
    write_labeled,
)
from .labeler import DEFAULT_WINDOW, PolarityLexicon, label_corpus
from .report import (
    DependenceCell,
    emit_granger_table,
    emit_heatmap,
    heatmap_filename,
    write_cells,
    write_manifest,
)
from .scores import Scores, aggregate_daily, aspect_days, read_scores, write_scores

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

def check_values(**values) -> None:
    """Raise ConfigError for the first value, by key name, that breaks its rule."""
    for key in CONFIG_KEYS:
        if key.name in values and key.check is not None and not key.check(values[key.name]):
            raise ConfigError(f"{key.name} {key.rule}, got {values[key.name]}")


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
        check_values(**vars(self))

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
        parser.read_file(read_lines(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    except FormatError as exc:
        raise ConfigError(str(exc)) from None

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
    """Read an explicit trading calendar: one ISO date per line, '#' comments.

    A line that is not an ISO date, or a file without any date, raises
    FormatError.
    """
    days: list[date] = []
    for lineno, line in comment_lines(path):
        try:
            days.append(date.fromisoformat(line))
        except ValueError:
            raise FormatError(f"not an ISO date: {line!r}",
                              path=path, line_number=lineno) from None
    if not days:
        raise FormatError("calendar lists no trading day", path=path)
    return TradingCalendar.from_dates(days)


def build_calendar(
    config: PipelineConfig, prices: Mapping[str, Mapping[date, float]]
) -> TradingCalendar:
    """The run's trading calendar: explicit file, or union of price dates."""
    if config.calendar is not None:
        return load_calendar(config.calendar)
    all_days: set[date] = set()
    for closes in prices.values():
        all_days.update(closes)
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
    keywords_path=None,
    min_count: int = PipelineConfig.min_keyword_count,
) -> list[tuple[str, date, str, PolarityLabel]]:
    """tweets.jsonl -> labels.csv; returns the labels written.

    With ``keywords_path`` it also writes what :func:`stage_keywords` would
    write there, from the same single read of the tweets. Nothing is
    written before the whole tweet file has been read, so a file over the
    malformed-line cap leaves neither output behind.
    """
    aspects = load_aspects(aspects_path)
    lexicon = PolarityLexicon.from_files(positive_path, negative_path)
    tweets = parse_tweets(tweets_path, malformed_cap)
    keywords = None
    if keywords_path is not None:
        keywords = KeywordCounts()
        tweets = keywords.tap(tweets)
    labels = label_corpus(tweets, aspects, lexicon, window)
    if keywords is not None:
        freqs = keywords.frequencies(min_count)
        write_keyword_frequencies(freqs, keywords_path)
        logger.info("keywords: %d kept", len(freqs))
    write_labeled(labels, out_path)
    return labels


def stage_score(labels_path, out_path, labels=None) -> Scores:
    """labels.csv -> scores.csv; returns the series and totals written.

    ``labels`` are the rows of ``labels_path`` when the caller already
    holds them; otherwise the file is counted in one pass by
    :func:`parse_labeled`. Nothing is written before every row has been
    counted, so a bad row leaves no ``scores.csv`` behind.
    """
    counts = parse_labeled(labels_path) if labels is None else aggregate_daily(labels)
    return write_scores(counts, out_path)


def stage_analyze(
    config: PipelineConfig, scores_path, cells_path, scores: Scores | None = None
) -> list[DependenceCell]:
    """scores.csv + price files -> cells.csv; returns the cell list.

    ``scores`` are the series and totals of ``scores_path`` when the caller
    already holds them (as :func:`stage_score` returns them); otherwise
    they are read from the file.

    Emits exactly one cell per (top-N aspect x 4 kinds x ticker), aspects
    in presentation order, kinds in fp/fn/nfp/nfn order, tickers in config
    order (see :func:`~sentdep.analysis.analyze_cells`). numpy and the
    statistics are imported here, on the first call.
    """
    from .analysis import analyze_cells

    aspect_lexicon = load_aspects(config.aspects)
    series, totals = read_scores(scores_path) if scores is None else scores
    prices = {t: parse_prices(p, t) for t, p in config.prices.items()}
    calendar = build_calendar(config, prices)
    top = select_top_aspects(aspect_lexicon, totals, config.top_n_aspects)
    cells = analyze_cells(config, top, series, prices, calendar)
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


def _ingest(config: PipelineConfig, out: Path) -> Scores:
    """The text half of a run: keywords.csv, labels.csv and scores.csv."""
    labels = None
    if config.labels is not None:
        labels_path = config.labels
        if config.tweets is not None:
            n_keywords = stage_keywords(
                config.tweets, out / "keywords.csv",
                min_count=config.min_keyword_count,
                malformed_cap=config.max_malformed_fraction,
            )
            logger.info("keywords: %d kept", n_keywords)
    else:
        labels_path = out / "labels.csv"
        labels = stage_label(
            config.tweets, config.aspects, config.positive_terms,
            config.negative_terms, labels_path,
            window=config.window, malformed_cap=config.max_malformed_fraction,
            keywords_path=out / "keywords.csv", min_count=config.min_keyword_count,
        )
        logger.info("labels: %d occurrences", len(labels))

    scores = stage_score(labels_path, out / "scores.csv", labels)
    logger.info("scores: %d aspect-day cells", aspect_days(scores))
    return scores


class _RecordCollector(logging.Handler):
    """Keeps each record as ``QueueHandler.prepare`` leaves it.

    The message is formatted into ``msg``, and ``args`` and the exception
    are dropped, so the record pickles and prints the same elsewhere.
    """

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        # This is the process's only handler, so the record can be changed
        # in place.
        record.msg = record.message = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def _child_message(ingest: Callable[[], Scores]) -> bytes:
    """Run ``ingest`` in a forked child and pickle what its parent needs.

    The message is (log records, ingest seconds, outcome). The outcome is
    the Scores, the SentdepError raised, or the traceback text of any other
    exception. Every handler of this process is replaced by one collector,
    so the child itself writes nothing.
    """
    loggers = [logging.getLogger(), *logging.Logger.manager.loggerDict.values()]
    for each in loggers:
        if isinstance(each, logging.Logger):
            each.handlers = []
    collector = _RecordCollector()
    logging.getLogger().addHandler(collector)
    start = perf_counter()
    try:
        outcome = ingest()
    except SentdepError as exc:
        outcome = exc
    except BaseException:  # an interrupt too: the child ends in os._exit either way
        outcome = traceback.format_exc()
    ingest_s = perf_counter() - start
    try:
        return pickle.dumps((collector.records, ingest_s, outcome))
    except Exception:  # an error that does not pickle
        return pickle.dumps((collector.records, ingest_s, traceback.format_exc()))


def _ended(status: int) -> str:
    """How a process with wait status ``status`` ended, in words."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal

        return f"killed by signal {signal.Signals(-code).name}"
    return f"exit status {code}"


def _ingest_beside_import(ingest: Callable[[], Scores]) -> Scores:
    """``ingest()``, run in a forked child while this process imports the analysis.

    The two share nothing: the child writes keywords.csv, labels.csv and
    scores.csv and sends back one pickled message (see
    :func:`_child_message`), while the parent loads numpy, the statistics
    and ``scipy.special``, which only the analysis needs, on the other
    core. Nothing numerical is loaded before the fork, so the process
    forks with one thread and the child never loads it. The child's log
    records are handed to this process's loggers before it logs anything
    itself, and its SentdepError is raised here with the same class and
    message. The child is always reaped, and killed first when this
    process raises before its message has arrived. Without ``os.fork``
    the ingest runs inline.
    """
    if not hasattr(os, "fork"):
        return ingest()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_child_message(ingest))
            status = 0
        finally:
            os._exit(status)

    os.close(write_fd)
    message = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            start = perf_counter()
            from . import analysis  # noqa: F401  (numpy and the statistics)
            import scipy.special  # noqa: F401
            imported = perf_counter()
            message = pipe.read()
            received = perf_counter()
    finally:
        if message is None:
            import signal

            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(pid, 0)
    if not message:
        raise RuntimeError(f"the ingest process ended without a result: {_ended(status)}")

    records, ingest_s, outcome = pickle.loads(message)
    for record in records:
        logging.getLogger(record.name).handle(record)
    if isinstance(outcome, SentdepError):
        raise outcome
    if isinstance(outcome, str):
        raise RuntimeError(f"the ingest process failed:\n{outcome}")
    logger.info("ingest %.3f s in a child process; numpy, statistics and "
                "scipy.special import %.3f s meanwhile; then waited %.3f s",
                ingest_s, imported - start, received - imported)
    return outcome


def run_pipeline(config: PipelineConfig) -> list[DependenceCell]:
    """Run every stage and write all artifacts into ``config.output_dir``.

    Artifacts: keywords.csv (when tweets are configured), labels.csv
    (when labeled internally), scores.csv, cells.csv, eight heatmaps,
    granger.csv, run_manifest.json. The keyword, label and score stages
    run in a forked child while this process imports numpy and the
    statistics (see :func:`_ingest_beside_import`).
    """
    config.validate()
    out = make_output_dir(config.output_dir)
    scores = _ingest_beside_import(partial(_ingest, config, out))

    cells = stage_analyze(config, out / "scores.csv", out / "cells.csv", scores)
    logger.info("analysis: %d dependence cells", len(cells))

    stage_report(cells, out)
    write_manifest(
        out / "run_manifest.json",
        config_echo=config.manifest_echo(),
        input_paths=config._input_files(),
        seed=config.seed,
    )
    return cells
