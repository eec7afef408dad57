"""Dependence statistics between aspect-level sentiment and stock closes.

The package turns aspect-labeled social-media text and daily closing
prices into three explainable per-(aspect, score kind, ticker) statistics:
lagged Pearson correlation, bivariate Granger causality, and an
entropy-based uncertainty coefficient. See the CLI (``sentdep --help``)
for the file-to-file pipeline; its stages are importable from
:mod:`sentdep.pipeline`. Importing the package, the CLI or the text
stages loads neither numpy nor SciPy; :mod:`sentdep.analysis` and the
statistics modules do.
"""

__version__ = "0.1.0"
