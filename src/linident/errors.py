"""Exception hierarchy shared across the library.

Error class names are stable: the CLI prints them verbatim as part of its
diagnostics, and the test-suite matches on them.
"""


class LinIdentError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LinIdentError):
    """Operand shapes are inconsistent."""


class InsufficientData(LinIdentError):
    """The time series is too short for the requested window."""


class SingularHankel(LinIdentError):
    """The Hankel window is numerically singular (unobservable system or
    initial state without the A-linear-independence property)."""


class NotObservable(LinIdentError):
    """The observability matrix is numerically rank-deficient."""


class MissingStep(LinIdentError):
    """A sampling step is required but absent."""


class ZeroRoot(LinIdentError):
    """A companion root is (numerically) zero; the matrix logarithm is
    undefined, which signals a mis-specified model order."""


class NoOrderFound(LinIdentError):
    """No order up to n_max satisfies the Hankel rank criterion."""


class NonFinite(LinIdentError):
    """A computed result overflowed to inf or nan."""


class ParseError(LinIdentError):
    """A data file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptySeries(LinIdentError):
    """A series file contained no samples."""
