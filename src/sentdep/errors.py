"""Exception types shared across the package."""

from __future__ import annotations


def _rebuilt(cls: type, args: tuple) -> BaseException:
    """An instance of ``cls`` holding ``args``, made without its ``__init__``."""
    exc = cls.__new__(cls)
    exc.args = args
    return exc


class SentdepError(Exception):
    """Base class for all package-specific errors.

    Every subclass survives ``pickle`` with its class, message and
    attributes (such as ``path`` and ``line_number``), whatever its
    ``__init__`` signature: ``sentdep run`` passes the ingest stages'
    errors from a child process back to its parent this way.
    """

    def __reduce__(self):
        return _rebuilt, (type(self), self.args), self.__dict__


class EmptyAlignment(SentdepError):
    """Lag-aligning two series produced zero usable pairs."""


class FormatError(SentdepError):
    """An input file violates its documented format.

    ``line_number`` is 1-based and may be None for file-level problems
    (e.g. too many malformed lines overall).
    """

    def __init__(self, message: str, path=None, line_number: int | None = None):
        self.path = path
        self.line_number = line_number
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
            if line_number is not None:
                prefix = f"{path}:{line_number}: "
        super().__init__(prefix + message)


class HeaderMismatch(FormatError):
    """A CSV file does not carry the expected header columns."""


class OutputError(SentdepError):
    """An output file or directory cannot be written."""

    def __init__(self, message: str, path):
        self.path = path
        super().__init__(f"{path}: {message}")


class EmptySeries(SentdepError):
    """A parsed series contains no usable observations."""


class InsufficientData(SentdepError):
    """Too few observations for the requested statistic."""


class DegenerateSeries(SentdepError):
    """A series is constant, so the statistic is undefined."""


class RankDeficient(SentdepError):
    """The regression design matrix is (numerically) rank deficient."""


class DegenerateSample(SentdepError):
    """Nearest-neighbor distances are dominated by duplicated points."""


class DomainError(SentdepError):
    """A special-function argument lies outside its domain."""


class ConfigError(SentdepError):
    """The pipeline configuration is invalid or references missing files."""
