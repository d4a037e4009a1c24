"""Exception types shared across the package."""


class RdtuneError(Exception):
    """Base class for all errors raised by this package."""


class QpRangeError(RdtuneError, ValueError):
    """Quantizer parameter outside the codec's valid range."""


class DomainError(RdtuneError, ValueError):
    """Numeric argument outside the mathematical domain of an operation."""


class CurveDataError(RdtuneError, ValueError):
    """RD points that violate curve invariants (ordering, duplicates, signs)."""


class ExtrapolationError(RdtuneError, ValueError):
    """Evaluation requested outside an interpolant's knot span."""


class OverlapError(RdtuneError):
    """Two curves share no quality (or rate) interval."""


class InsufficientPointsError(RdtuneError):
    """Fewer RD points than the configured floor for a metric."""


class MissingPointError(RdtuneError):
    """A requested QP is absent from a curve."""


class LadderMismatchError(RdtuneError):
    """Two curves do not share the same QP ladder."""


class BracketError(RdtuneError):
    """No valid minimum bracket could be established."""


class TemplateError(RdtuneError, ValueError):
    """Malformed command template (missing or repeated placeholders)."""


class EncodeFailure(RdtuneError):
    """An encoder or metric child process failed."""

    def __init__(self, message: str, captured_output: str = ""):
        super().__init__(message)
        self.captured_output = captured_output


class MetricReportError(RdtuneError):
    """A metric report could not be parsed or lacks the MS-SSIM mean."""


class ManifestError(RdtuneError):
    """Clip manifest missing, unreadable, or schema-invalid."""


class SweepError(RdtuneError):
    """An RD sweep failed; the message names the failing (qp, k) job."""
