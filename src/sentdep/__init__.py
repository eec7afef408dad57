"""Dependence statistics between aspect-level sentiment and stock closes.

The package turns aspect-labeled social-media text and daily closing
prices into three explainable per-(aspect, score kind, ticker) statistics:
lagged Pearson correlation, bivariate Granger causality, and an
entropy-based uncertainty coefficient. See the CLI (``sentdep --help``)
for the file-to-file pipeline; the same stages are importable here.
"""

__version__ = "0.1.0"

from .core import (
    AlignedPairs,
    PolarityLabel,
    PriceSeries,
    ScoreKind,
    SentimentSeries,
    TradingCalendar,
    align_lagged,
    paired_on_common_days,
)
from .entropy import (
    EntropyEstimate,
    UCoeffResult,
    conditional_entropy,
    digamma,
    kl_entropy,
    uncertainty_coefficient,
)
from .errors import (
    ConfigError,
    DegenerateSample,
    DegenerateSeries,
    DomainError,
    EmptyAlignment,
    EmptySeries,
    FormatError,
    HeaderMismatch,
    InsufficientData,
    InsufficientHistory,
    NotTradingDay,
    RankDeficient,
    SentdepError,
)
from .granger import (
    GrangerResult,
    OlsFit,
    f_distribution_sf,
    first_differences,
    granger_causes,
    ols,
)
from .ingest import (
    AspectLexicon,
    KeywordFrequency,
    TweetRecord,
    keyword_frequencies,
    load_aspects,
    parse_labeled,
    parse_prices,
    parse_tweets,
    tokenize,
)
from .labeler import (
    AspectOccurrence,
    LexiconWindowLabeler,
    PolarityLexicon,
    find_aspect_occurrences,
    label_corpus,
    lexicon_window_label,
)
from .pearson import CorrelationResult, classify, correlate, pearson
from .pipeline import (
    PipelineConfig,
    load_config,
    run_pipeline,
    select_top_aspects,
)
from .report import (
    DependenceCell,
    emit_granger_table,
    emit_heatmap,
    read_cells,
    write_cells,
)
from .scores import (
    AspectDayCount,
    aggregate_daily,
    fill_absent_zero,
)

__all__ = [
    "__version__",
    # core
    "AlignedPairs", "PolarityLabel", "PriceSeries", "ScoreKind",
    "SentimentSeries", "TradingCalendar", "align_lagged",
    "paired_on_common_days",
    # errors
    "ConfigError", "DegenerateSample", "DegenerateSeries", "DomainError",
    "EmptyAlignment", "EmptySeries", "FormatError", "HeaderMismatch",
    "InsufficientData", "InsufficientHistory", "NotTradingDay",
    "RankDeficient", "SentdepError",
    # ingest
    "AspectLexicon", "KeywordFrequency", "TweetRecord",
    "keyword_frequencies", "load_aspects", "parse_labeled", "parse_prices",
    "parse_tweets", "tokenize",
    # labeler
    "AspectOccurrence", "LexiconWindowLabeler", "PolarityLexicon",
    "find_aspect_occurrences", "label_corpus", "lexicon_window_label",
    # scores
    "AspectDayCount", "aggregate_daily", "fill_absent_zero",
    # pearson
    "CorrelationResult", "classify", "correlate", "pearson",
    # granger
    "GrangerResult", "OlsFit", "f_distribution_sf", "first_differences",
    "granger_causes", "ols",
    # entropy
    "EntropyEstimate", "UCoeffResult", "conditional_entropy", "digamma",
    "kl_entropy", "uncertainty_coefficient",
    # report / pipeline
    "DependenceCell", "emit_granger_table", "emit_heatmap", "read_cells",
    "write_cells", "PipelineConfig", "load_config", "run_pipeline",
    "select_top_aspects",
]
