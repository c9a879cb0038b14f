"""Exception hierarchy shared across the library."""


class UptakecastError(Exception):
    """Base class for all library errors."""


class EmptyOverlap(UptakecastError):
    """Two series share no months."""


class SeriesTooShort(UptakecastError):
    """A series has too few observations for the requested operation."""


class NonConvergence(UptakecastError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class LagMismatch(UptakecastError):
    """The number of supplied lag values does not match the model order."""


class AlignmentError(UptakecastError):
    """Inputs that must share a month range do not."""


class TooFewRows(UptakecastError):
    """Not enough rows for the requested cross-validation split."""


class PanelTooNarrow(UptakecastError):
    """The query panel has fewer queries than the requested subset size."""


class DimensionMismatch(UptakecastError):
    """Vector lengths disagree."""


class TooFewSamples(UptakecastError):
    """Not enough stacking samples to fit a level-1 model."""


class InsufficientHistory(UptakecastError):
    """The input series does not cover the configured warm-up period."""


class EmptyLog(UptakecastError):
    """A prediction log contains no entries."""


class MissingCohort(UptakecastError):
    """A registry month has no matching birth-cohort entry."""


class GapInRegistry(UptakecastError):
    """Registry months for one vaccine are not contiguous."""


class ParseError(UptakecastError):
    """A CSV row could not be parsed; names the file and carries the line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path} line {line}: {message}")
        self.line = line


class SchemaError(UptakecastError):
    """A parsed value violates the documented file schema."""


class GapError(UptakecastError):
    """A loaded time series has missing months."""


class DiagnosticWarning(UserWarning):
    """Non-fatal input repair during loading (e.g. an all-zero query column dropped)."""
