"""Exception hierarchy shared across the toolkit.

Two bases matter for the CLI exit-code contract: ``ConfigError`` maps to
exit code 2 (configuration or usage problems) and ``DataError`` maps to
exit code 3 (the inputs themselves are unusable).
"""

from __future__ import annotations


class PhysioBenchError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PhysioBenchError):
    """Invalid configuration, flags, or requested operation."""


class DataError(PhysioBenchError):
    """Input data violates a precondition or format contract."""


# --- ingest ---------------------------------------------------------------

class MalformedHeader(DataError):
    pass


class _LineError(DataError):
    """A bad input line, named by its number and text. It pickles from
    those two, so a pickle round trip keeps its message."""

    what = ""

    def __init__(self, line_no: int, text: str = ""):
        super().__init__(f"{self.what} at line {line_no}: {text!r}")
        self.line_no = line_no
        self.text = text

    def __reduce__(self):
        return type(self), (self.line_no, self.text)


class NonFiniteSample(_LineError):
    what = "non-finite sample"


class EmptyStream(DataError):
    pass


class RaggedRow(_LineError):
    what = "row with the wrong number of fields"


class NoChannels(DataError):
    pass


class ManifestMismatch(DataError):
    pass


# --- windowing ------------------------------------------------------------

class NoUsableSpan(DataError):
    pass


# --- features -------------------------------------------------------------

class TooFewSamples(DataError):
    pass


class InsufficientBeats(DataError):
    pass


class SchemaMismatch(DataError):
    pass


class MissingRequiredModality(DataError):
    pass


# --- models ---------------------------------------------------------------

class SingleClass(DataError):
    pass


class NonFiniteLoss(DataError):
    pass


class KTooLarge(ConfigError):
    pass


class DimensionMismatch(DataError):
    pass


class NonPositiveSigma(ConfigError):
    pass


class NoConvergence(PhysioBenchError):
    pass


# --- evaluation -----------------------------------------------------------

class TooFewSubjects(DataError):
    pass


class KExceedsSubjects(ConfigError):
    pass


class UnknownLabel(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class SingleClassPresent(DataError):
    pass


# --- stats ----------------------------------------------------------------

class SampleSizeOutOfRange(DataError):
    pass


class AllZeroDifferences(DataError):
    pass


# --- ablation -------------------------------------------------------------

class TooFewModalities(ConfigError):
    pass


class EmptyMask(ConfigError):
    pass


# --- synth ----------------------------------------------------------------

class BlowUp(DataError):
    pass


class UnknownClass(ConfigError):
    pass


class ArityMismatch(ConfigError):
    pass
