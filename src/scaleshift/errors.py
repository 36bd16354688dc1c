"""Exception hierarchy for scaleshift.

Every error raised by the library derives from :class:`ScaleShiftError`, so
callers (including the CLI) can catch one type and map it to a machine-readable
category.  Filesystem problems are left to the builtin ``OSError`` family.
"""

__all__ = [
    "ScaleShiftError",
    "EmptySample",
    "InsufficientLength",
    "NonFiniteSample",
    "InvalidParameter",
    "InvalidAlpha",
    "InvalidGamma",
    "DegenerateScale",
    "WindowTooSmall",
    "ZeroTotalSumOfSquares",
    "NonFiniteTrace",
    "IndexOutOfRange",
    "ConfigError",
    "EmptyInput",
    "ParseError",
    "EmptyColumn",
    "NonPositiveForLog",
    "TooShortAfterPreprocess",
]


class ScaleShiftError(Exception):
    """Base class for all scaleshift errors."""


class EmptySample(ScaleShiftError):
    """An estimator received a zero-length sample."""


class InsufficientLength(ScaleShiftError):
    """The sample is too short for the requested operation."""


class NonFiniteSample(ScaleShiftError):
    """The sample contains NaN or infinite values."""


class InvalidParameter(ScaleShiftError):
    """A configuration value is outside its documented domain."""


class InvalidAlpha(InvalidParameter):
    """Stable index alpha outside (0, 2]."""


class InvalidGamma(InvalidParameter):
    """Stable scale gamma is not strictly positive."""


class DegenerateScale(ScaleShiftError):
    """MAD is zero: the biweight midvariance weights are undefined."""


class WindowTooSmall(ScaleShiftError):
    """Fewer than two order statistics fall inside the QCV quantile window."""


class ZeroTotalSumOfSquares(ScaleShiftError):
    """The ICSS statistic is undefined because C_N = 0 (all-zero series)."""


class NonFiniteTrace(ScaleShiftError):
    """A CSS trace holds inf or NaN, e.g. because the squares of a series
    near 1e160 overflow; no detector statistic can be trusted on it."""


class IndexOutOfRange(ScaleShiftError):
    """A change-point index lies outside 1..N."""


class ConfigError(ScaleShiftError):
    """A benchmark or CLI configuration is invalid."""


class EmptyInput(ScaleShiftError):
    """An aggregation received no data points."""


class ParseError(ScaleShiftError):
    """A CSV cell could not be parsed as a finite real number, or the file
    could not be read as CSV text."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyColumn(ScaleShiftError):
    """The selected CSV column contains no data rows."""


class NonPositiveForLog(ScaleShiftError):
    """Log-returns require strictly positive input values."""


class TooShortAfterPreprocess(ScaleShiftError):
    """Preprocessing left fewer points than the detectors require."""
