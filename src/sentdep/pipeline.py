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
label counts, one ``(aspect, day) -> [positive, negative, neutral]``
dict from whichever reader made them, and the scores pass from one
stage to the next in memory.
When it labels the tweets itself, it counts the keywords in the same
pass, so the tweet file is read and tokenized once, and it writes the
label rows as they stream, so no list of them is held.
Nothing in the pipeline draws random numbers, so identical inputs and
configuration always produce identical outputs.

The two halves of a run share nothing but the analysis inputs. Only the
analysis needs numpy and SciPy; its cell code lives in
:mod:`sentdep.analysis`, which :func:`stage_analyze` imports when it
runs, so this module and the text stages load neither. What the analysis
reads besides the scores (the aspect lexicon, the price files and the
calendar) is put on the trading calendar as rows of floats without numpy,
by :func:`sentdep.prepare.prepare_analysis`.

A run uses two processes twice, through one helper,
:func:`sentdep.fork.beside`, which :func:`run_pipeline` and
:func:`stage_analyze` import when they run. It forks a child and, with
two or more allowed CPUs, keeps the lowest for the parent and gives the
child the rest, because a cpuset without load balancing never moves a
forked child off its parent's CPU. First, before the numerical stack is
loaded, a child starts the text half of the run while the parent imports
numpy, the statistics and SciPy's special-function ufuncs. Tweets to
label are cut into blocks of whole lines, which the child and then, once
its import is done, the parent claim from one pipe
(:func:`sentdep.fork.claims`). The child merges the blocks, writes the
keyword, label and score files, reads the price files and the calendar,
prepares the analysis inputs and hashes every input file for the
manifest, reading each once more for it (see
:func:`_ingest_beside_import`). The parent then only stacks the rows it
is sent; it never holds the price or score dicts. Then
:func:`stage_analyze` shares the aspects with a forked worker the same
way: both processes claim them, one block at a time, from one pipe that
the parent filled before the fork, so whichever process is free takes
the next block (see :func:`_analyze_beside`).

The numerical stack is loaded once per process, by
:func:`_import_analysis`: numpy, the statistics and, of SciPy, only the
compiled module of its special functions, not the ``scipy.special``
package with its array-API layer (see :func:`_import_scipy_special`). It
is loaded with the cyclic garbage collector disabled, and the objects it
leaves are then frozen (:func:`gc.freeze`) before the analysis worker is
forked. They live until the process ends, so no collection needs to walk
them: not the parent's, not the worker's after the fork, and not the full
collections of the interpreter's exit.
"""

from __future__ import annotations

import configparser
import gc
import logging
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, make_dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import (
    DEFAULT_ALPHA,
    DEFAULT_K,
    DEFAULT_MALFORMED_CAP,
    DEFAULT_MIN_KEYWORD_COUNT,
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    MAX_K,
    AnalysisInputs,
    ScoreKind,
)
from .errors import ConfigError, FormatError
from .ingest import (
    keyword_frequencies,
    make_output_dir,
    parse_labeled,
    parse_tweets,
    read_lines,
    write_keyword_frequencies,
)
from .report import (
    DependenceCell,
    emit_granger_table,
    emit_heatmap,
    heatmap_filename,
    write_cells,
    write_manifest,
)
from .scores import Scores, aspect_days, write_scores

logger = logging.getLogger(__name__)


#: The commands that read a config file: a key option of theirs overrides it.
CONFIG_COMMANDS = ("run", "analyze")


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its INI place, type, default, rule and CLI options.

    ``kind`` is the value's type: ``Path``, ``int``, ``float``, ``bool``, or
    ``dict`` for the free-form ``[prices]`` section (``TICKER = path``,
    kept in file order). A value for which ``check`` is False fails
    validation with ``"<name> <rule>, got <value>"``. ``options`` names
    the ``sentdep`` commands that take the key as an option, spelled
    ``flag`` or ``--name-with-dashes``; ``doc`` is its help text and the
    key's note in the config help.
    """

    name: str
    section: str
    kind: type
    default: object = None
    check: Callable[[Any], bool] | None = None
    rule: str = ""
    options: tuple[str, ...] = ()
    doc: str = ""
    ini_key: str | None = None  # when the INI key differs from ``name``
    flag: str | None = None  # when the option differs from ``--name-with-dashes``

    @property
    def key(self) -> str:
        return self.ini_key or self.name


#: Every pipeline config key, in field order. ``PipelineConfig``, the INI
#: schema, validation, the manifest echo and the CLI options and help are
#: all derived from this table.
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
              ("label",), doc="tokens each side"),
    ConfigKey("min_keyword_count", "ingest", int, DEFAULT_MIN_KEYWORD_COUNT,
              lambda v: v >= 1, "must be >= 1", ("keywords",), doc="tweets a keyword needs",
              flag="--min-count"),
    ConfigKey("max_malformed_fraction", "ingest", float, DEFAULT_MALFORMED_CAP,
              lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]", ("keywords", "label"),
              doc="malformed tweet lines tolerated", flag="--malformed-cap"),
    ConfigKey("lag", "analysis", int, 1, lambda v: v >= 1, "must be >= 1", CONFIG_COMMANDS,
              doc="sentiment lag in trading days"),
    ConfigKey("pearson_threshold", "analysis", float, DEFAULT_THRESHOLD,
              lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)", CONFIG_COMMANDS,
              doc="|r| significance cut"),
    ConfigKey("granger_alpha", "analysis", float, DEFAULT_ALPHA,
              lambda v: 0.0 < v < 1.0, "must lie in (0, 1)", CONFIG_COMMANDS,
              doc="F-test significance level"),
    ConfigKey("granger_lag", "analysis", int, 1, lambda v: v >= 1, "must be >= 1",
              CONFIG_COMMANDS, doc="lag order of the F-test"),
    ConfigKey("granger_reverse", "analysis", bool, False, options=CONFIG_COMMANDS,
              doc="test the price -> sentiment direction"),
    ConfigKey("granger_difference", "analysis", bool, False, options=CONFIG_COMMANDS,
              doc="first-difference both series before testing"),
    ConfigKey("entropy_k", "analysis", int, DEFAULT_K, lambda v: 1 <= v <= MAX_K,
              f"must lie in 1..{MAX_K}", CONFIG_COMMANDS, doc=f"neighbor order 1..{MAX_K}"),
    ConfigKey("top_n_aspects", "analysis", int, 20, lambda v: v >= 1, "must be >= 1",
              CONFIG_COMMANDS, doc="most-mentioned aspects reported"),
    ConfigKey("absent_as_zero", "analysis", bool, False, options=CONFIG_COMMANDS,
              doc="treat days without labels as zero counts"),
    ConfigKey("output_dir", "output", Path, Path("out"), options=("run",), ini_key="dir",
              doc="artifact directory"),
    ConfigKey("seed", "output", int, 0, lambda v: v >= 0, "must be >= 0",
              (*CONFIG_COMMANDS, "fixture"), doc="recorded in the manifest"),
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
        for name, p in self.input_files():
            if not Path(p).is_file():
                raise ConfigError(f"{name} file does not exist: {p}")
        check_values(**vars(self))

    def input_files(self) -> list[tuple[str, Path]]:
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


def _convert(section: str, key: str, kind: type, text: str, base: Path):
    text = text.strip()
    try:
        if kind is bool:
            state = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
            if state is None:
                raise ValueError(f"not a boolean: {text!r}")
            return state
        if kind is Path:
            if "\0" in text:  # no file system takes it
                raise ValueError("a path may not hold a NUL character")
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
    """tweets.jsonl -> labels.csv; returns the number of labels written.

    The file is labeled as :func:`run_pipeline` labels it, block by block
    (see :class:`sentdep.blocks.TweetBlocks`), by this process alone.
    """
    from .blocks import Share, TweetBlocks

    tweets = TweetBlocks(tweets_path, aspects_path, positive_path, negative_path, out_path,
                         window)
    try:
        share = tweets.label(range(len(tweets.spans)), Share(keywords=False))
        tweets.check(share, malformed_cap)
        tweets.join()
    except BaseException:
        tweets.discard()
        raise
    return share.labels()


def stage_score(labels_path, out_path) -> Scores:
    """labels.csv -> scores.csv; returns the series and totals written.

    Nothing is written before every row has been counted, so a bad row
    leaves no ``scores.csv`` behind.
    """
    return write_scores(parse_labeled(labels_path), out_path)


def stage_analyze(
    config: PipelineConfig, scores_path, cells_path, inputs: AnalysisInputs | None = None
) -> list[DependenceCell]:
    """scores.csv + price files -> cells.csv; returns the cell list.

    ``inputs`` are what :func:`sentdep.prepare.prepare_analysis` makes of
    ``scores_path`` and the config's other inputs when the caller already
    holds them; otherwise they are prepared here, before anything
    numerical is loaded.

    Emits exactly one cell per (top-N aspect x 4 kinds x ticker), aspects
    in presentation order, kinds in fp/fn/nfp/nfn order, tickers in config
    order (see :func:`~sentdep.analysis.analyze_cells`). numpy, the
    statistics and SciPy's ufuncs are imported here, on the first call,
    with this thread pinned to one CPU (see :func:`sentdep.fork.lowest_cpu`),
    so their thread pools start no worker thread before the fork. The
    closes are stacked into one matrix before the fork, and a forked
    worker claims aspects beside this process (see :func:`_analyze_beside`).
    """
    if inputs is None:
        from .prepare import prepare_analysis

        inputs = prepare_analysis(config, scores_path)
    if "sentdep.analysis" not in sys.modules:
        from .fork import lowest_cpu

        with lowest_cpu():
            _import_analysis()
    from .analysis import analyze_cells, price_matrix

    cells = _analyze_beside(
        partial(analyze_cells, config, series=inputs.series, tickers=inputs.tickers,
                closes=price_matrix(inputs.closes)), inputs.aspects)
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


def _ingest(config: PipelineConfig, out: Path, tweets=None,
            claimed: Callable[[], Iterable[int]] | None = None, handoff=None
            ) -> tuple[AnalysisInputs, dict[str, str], tuple[int, int], tuple[float, ...]]:
    """The text half of a run and the analysis inputs.

    Writes keywords.csv, labels.csv and scores.csv, then prepares what the
    analysis reads (see :func:`sentdep.prepare.prepare_analysis`) and the
    manifest's input digests. Returns them with how many tweet blocks and
    lines this process labeled, and the seconds from this call's start
    at which it had the label counts, had written scores.csv, had the
    analysis inputs and had the digests. Either way the label counts reach
    :func:`~sentdep.scores.write_scores` as the one ``(aspect, day) ->
    [positive, negative, neutral]`` dict they are counted into.

    With ``tweets``, a :class:`sentdep.blocks.TweetBlocks`, this process
    labels the blocks it claims (``claimed()``, see
    :func:`sentdep.fork.claims`) and, unless it labeled every block
    itself, receives the other process's share from ``handoff`` (a
    :class:`sentdep.fork.Handoff`); it then merges the shares, writes
    keywords.csv and joins labels.csv. Otherwise the labels are an
    external file, counted by :func:`parse_labeled`; a tweet file beside
    it feeds only keywords.csv. Every input file is hashed at the end, by
    :func:`sentdep.prepare.input_digests`, in the process that calls
    this: in a run, the ingest child.
    """
    start = perf_counter()  # the timeline counts the import, which loads hashlib
    from .prepare import input_digests, prepare_analysis

    took = 0, 0
    if tweets is not None:
        from .blocks import Share

        share = tweets.label(claimed(), Share())
        took = len(share.tallies), share.lines()
        if len(share.tallies) < len(tweets.spans):
            share.add(handoff.receive())
        tweets.check(share, config.max_malformed_fraction)
        freqs = share.keywords.frequencies(config.min_keyword_count)
        write_keyword_frequencies(freqs, out / "keywords.csv")
        logger.info("keywords: %d kept", len(freqs))
        tweets.join()
        logger.info("labels: %d occurrences", share.labels())
        cells = share.cells
        del share  # of what it counted, only the cells are still needed
    else:
        if config.tweets is not None:
            n_keywords = stage_keywords(
                config.tweets, out / "keywords.csv",
                min_count=config.min_keyword_count,
                malformed_cap=config.max_malformed_fraction,
            )
            logger.info("keywords: %d kept", n_keywords)
        cells = parse_labeled(config.labels)

    marks = [perf_counter()]
    scores = write_scores(cells, out / "scores.csv")
    marks.append(perf_counter())
    logger.info("scores: %d aspect-day cells", aspect_days(scores))
    del cells  # written into the scores; not held while the prices are read
    inputs = prepare_analysis(config, out / "scores.csv", scores)
    marks.append(perf_counter())
    digests = input_digests(config)
    marks.append(perf_counter())
    return inputs, digests, took, tuple(mark - start for mark in marks)


def _import_analysis() -> tuple[int, float]:
    """Load numpy, the statistics and SciPy's special-function ufuncs: what
    the analysis needs.

    Returns how many objects this call froze and how many seconds of it
    the ufuncs took to load (see :func:`_import_scipy_special`). The call
    that first loads :mod:`sentdep.analysis` imports with the cyclic
    garbage collector disabled, then moves every object the collector
    tracks into its permanent generation (:func:`gc.freeze`): about 35,000
    objects of numpy, the statistics and the ufuncs, which live until the
    process ends. No collection walks them again: not the import's own,
    not those of an analysis worker forked afterwards, and not the full
    collections at the interpreter's exit (see the README for what that
    saves). The caller's collector state is restored however the import
    ends. Later calls find the modules loaded and freeze nothing.

    The freeze reaches every object alive at that first call, the
    caller's too, since Python cannot freeze only the import's objects: a
    long-lived program that runs the analysis keeps its older cycles
    uncollected unless it calls :func:`gc.unfreeze` afterwards.
    """
    first = "sentdep.analysis" not in sys.modules
    enabled = gc.isenabled()
    gc.disable()
    try:
        from . import analysis  # noqa: F401
        from .fork import measured

        ufuncs_s = measured(_import_scipy_special)[1].wall_s
        before = gc.get_freeze_count()
        if first:
            gc.freeze()
        return gc.get_freeze_count() - before, ufuncs_s
    finally:
        if enabled:
            gc.enable()


def _import_scipy_special() -> None:
    """Load ``scipy.special._ufuncs``, SciPy's compiled special functions,
    without running ``scipy.special`` itself.

    The analysis needs two of those ufuncs, ``psi`` (which
    ``scipy.special.digamma`` is) and ``fdtrc``. The package's
    ``__init__`` would also load SciPy's array-API compat layer and parse
    docstrings, which no run uses. So where no ``scipy.special`` is
    loaded, a bare package of that name, whose path is SciPy's
    ``special`` directory, stands in for it during this import and is
    removed however the import ends. A later ``import scipy.special``
    runs the real package, which takes the same ufunc objects from the
    loaded module.
    """
    import scipy

    stub = type(scipy)("scipy.special")  # a bare module: no __init__ runs
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    placed = sys.modules.setdefault("scipy.special", stub) is stub
    try:
        import scipy.special._ufuncs  # noqa: F401
    finally:
        if placed:
            del sys.modules["scipy.special"]


def _ingest_beside_import(config: PipelineConfig, out: Path
                          ) -> tuple[AnalysisInputs, dict[str, str]]:
    """:func:`_ingest`, run in a forked child while this process imports the
    analysis and then labels tweet blocks beside it.

    With tweets to label, this process first reads the aspect lexicon and
    the term files, cuts the tweet file into blocks of whole lines (see
    :class:`sentdep.blocks.TweetBlocks`) and puts one claim for each block
    into a pipe (see :func:`sentdep.fork.claims`). The child claims blocks from
    its start; this process claims the rest once its import is done, and
    hands its share of the counts to the child, which merges the blocks
    in block order and writes keywords.csv, labels.csv and scores.csv. The
    child then reads the price files and the calendar, and sends back the
    analysis inputs and the input digests (see :func:`sentdep.fork.beside`).
    A run that fails leaves no part file behind.

    Nothing numerical is loaded before the fork, so the process forks with
    one thread and the child never loads it. numpy and SciPy first loaded
    here see the one CPU this thread is pinned to, so their OpenBLAS pools
    start no worker thread for the life of the process. With one CPU, or
    where nothing can be pinned, the child still runs beside the import;
    without ``os.fork`` the ingest runs inline and labels every block.
    One ``-v`` line tells what each process did, when the child had the
    label counts, scores.csv, the analysis inputs and the digests, how
    long this one took to import numpy with the statistics and then
    SciPy's ufuncs, and how long it then waited for the child's message
    and took to take it.
    """
    from .fork import Handoff, beside, claims, measured

    tweets = None
    if config.labels is None:
        from .blocks import TweetBlocks

        tweets = TweetBlocks(config.tweets, config.aspects, config.positive_terms,
                             config.negative_terms, out / "labels.csv", config.window)
    handoff = Handoff()
    with claims(len(tweets.spans) if tweets else 0) as claimed:
        def import_then_label():
            (frozen, ufuncs_s), imported = measured(_import_analysis)
            labeled = measured(_label_rest, tweets, claimed, handoff) if tweets else None
            return frozen, ufuncs_s, imported, labeled

        try:
            (prepared, child), (frozen, ufuncs_s, imported, labeled), wait_s, take_s = beside(
                partial(measured, _ingest, config, out, tweets, claimed, handoff),
                import_then_label)
        except BaseException:
            if tweets is not None:
                tweets.discard()
            raise
        finally:
            handoff.close()
    inputs, digests, (child_blocks, child_lines), marks = prepared
    blocks = lines = label_s = 0
    here = imported
    if labeled is not None:
        share, here = labeled
        blocks, lines, label_s = len(share.tallies), share.lines(), here.wall_s
    if child.pid != imported.pid:  # an ingest run inline overlapped nothing
        logger.info("ingest and analysis inputs (%d price files, %d trading days) "
                    "%.3f s in a child process on CPUs %s; the child had the label counts at "
                    "%.3f s, scores.csv at %.3f s, the analysis inputs at %.3f s and the "
                    "digests at %.3f s; numpy and statistics import "
                    "%.3f s and SciPy ufunc import %.3f s meanwhile on CPUs %s; tweet blocks "
                    "(lines): %d (%d) in the child, %d (%d) here in %.3f s; then waited "
                    "%.3f s for the child's message and %.3f s to take it; "
                    "froze %d objects; peak RSS %.1f MiB in the child, %.1f MiB here",
                    len(inputs.tickers), len(inputs.closes[0]), child.wall_s, child.cpus,
                    *marks, imported.wall_s - ufuncs_s, ufuncs_s, imported.cpus, child_blocks,
                    child_lines, blocks, lines, label_s, wait_s, take_s, frozen,
                    child.peak_mib, here.peak_mib)
    return inputs, digests


def _label_rest(tweets, claimed: Callable[[], Iterable[int]], handoff):
    """Label the tweet blocks left to claim and hand the share of them, if
    any, to the process that merges the blocks; returns the share."""
    from .blocks import Share

    share = tweets.label(claimed(), Share())
    if share.tallies:
        handoff.send(share)
    return share


def _tallied(analyze: Callable[..., list[DependenceCell]],
             aspects: Iterable[str]) -> tuple[list[DependenceCell], Counter]:
    """(``analyze(aspects)``, the fits, stacked fit calls and entropy
    estimates it counted)."""
    tally: Counter = Counter()
    return analyze(aspects, tally=tally), tally


def _analyze_beside(analyze: Callable[[Iterable[str]], list[DependenceCell]],
                    aspects: list[str]) -> list[DependenceCell]:
    """``analyze(aspects)``, shared with a forked worker by claims on one pipe.

    No cell depends on another aspect's cells. Before the fork this
    process writes one record per block of consecutive aspects (one block
    per aspect, unless there are more than :data:`sentdep.fork.MAX_CLAIMS`)
    into a pipe in one write, and closes its write end. The worker and this
    process, each on its own CPU (see :func:`sentdep.fork.beside`), then
    read one record at a time and compute that block, until EOF; so the
    process that is free takes the next block, and an aspect with heavier
    cells does not hold up the other process. A worker that dies mid-claim
    cannot block this process, which takes what is left and then raises
    ``beside``'s RuntimeError. The cells are merged by aspect in
    presentation order. One aspect, one allowed CPU, a refused pin or no
    ``os.fork`` leaves every claim to this process. One ``-v`` line tells, for each process,
    its aspects and cells, what it spent, how many least-squares fits it
    made in how many stacked calls, and how many entropy estimates it
    made; how many aspects each took may differ between runs.
    """
    from .fork import MAX_CLAIMS, beside, claims, measured

    n, count = len(aspects), min(len(aspects), MAX_CLAIMS)
    blocks = [aspects[i * n // count:(i + 1) * n // count] for i in range(count)]
    with claims(count) as claimed:
        def claimed_aspects() -> Iterator[str]:
            return (aspect for i in claimed() for aspect in blocks[i])

        here = partial(measured, _tallied, analyze, claimed_aspects())
        if n < 2:
            runs = [here()]
        else:
            worker, own, *_ = beside(
                partial(measured, _tallied, analyze, claimed_aspects()), here, alone=here)
            runs = [own] if worker is None else [own, worker]
    by_aspect: dict[str, list[DependenceCell]] = {}
    for (cells, _), _ in runs:
        for cell in cells:
            by_aspect.setdefault(cell.aspect, []).append(cell)
    logger.info("analysis: %s", "; ".join(
        f"{len({c.aspect for c in cells})} aspects, {len(cells)} cells in "
        f"{'this process' if usage.pid == os.getpid() else 'a worker'} {usage}, "
        f"{tally['fits']} least-squares fits in {tally['fit_stacks']} stacked calls, "
        f"{tally['entropies']} entropy estimates"
        for (cells, tally), usage in runs))
    return [cell for aspect in aspects for cell in by_aspect.get(aspect, ())]


def run_pipeline(config: PipelineConfig) -> list[DependenceCell]:
    """Run every stage and write all artifacts into ``config.output_dir``.

    Artifacts: keywords.csv (when tweets are configured), labels.csv
    (when labeled internally), scores.csv, cells.csv, eight heatmaps,
    granger.csv, run_manifest.json. The keyword, label and score stages,
    the reading of the price files and the calendar, and the hashing of
    the inputs run in a forked child while this process imports numpy and
    the statistics; the tweet file's blocks are labeled by both processes,
    this one once its import is done, and no list of labels is held (see
    :func:`_ingest_beside_import`). The analysis shares its aspects with a
    forked worker (see :func:`_analyze_beside`).
    """
    config.validate()
    out = make_output_dir(config.output_dir)
    inputs, digests = _ingest_beside_import(config, out)

    cells = stage_analyze(config, out / "scores.csv", out / "cells.csv", inputs)
    logger.info("analysis: %d dependence cells", len(cells))

    stage_report(cells, out)
    write_manifest(
        out / "run_manifest.json",
        config_echo=config.manifest_echo(),
        digests=digests,
        seed=config.seed,
    )
    return cells
