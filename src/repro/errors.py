"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape or memory layout."""


class NonFiniteInputError(ReproError, ValueError):
    """An input matrix holds a NaN or an infinity.

    Raised before any checksum is encoded: the checksums of such a
    matrix are themselves non-finite, so no detector or recovery tier
    can tell its entries from a soft error. Retrying cannot help.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative algorithm failed to converge within its budget."""


class UncorrectableError(ReproError, RuntimeError):
    """A detected soft-error pattern cannot be corrected.

    Raised by the ABFT location/correction layer when the error positions
    form a rectangle (the paper's stated uncorrectable configuration) or
    when checksum information is internally inconsistent.
    """


class DetectionError(ReproError, RuntimeError):
    """The detector was asked to operate on inconsistent checksum state."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event hybrid-machine simulation reached an invalid state."""


class FaultConfigError(ReproError, ValueError):
    """A fault-injection specification is invalid (bad target, time, or kind)."""


class EscalationExhausted(ConvergenceError):
    """Every tier of the recovery escalation ladder failed or ran out of
    budget. Carries the structured :class:`~repro.resilience.FailureReport`
    instead of leaving callers a bare traceback.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class JournalError(ReproError, RuntimeError):
    """A campaign journal file is unusable (wrong fingerprint or header)."""

