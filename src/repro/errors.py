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


class BackendUnavailableError(ReproError, RuntimeError):
    """A requested array backend cannot be used on this host.

    Raised at submit/CLI time — before any work is queued — when a job
    names a backend whose runtime (``jax``) is not importable.
    Deliberately *not* a :class:`~repro.serve.jobs.JobSpecError`: the
    spec is well-formed, the host is just missing an optional
    dependency, and callers (the CLI maps this to exit code 2) should
    see the distinction.
    """
