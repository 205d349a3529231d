"""Resilience-aware retry policy for served jobs.

The PR 2 robustness work gave driver failures a taxonomy; this module
maps that taxonomy onto *scheduling* decisions. The interesting case is
:class:`~repro.errors.EscalationExhausted` — the recovery ladder inside
the driver ran out of budget. That is not a verdict on the job, only on
the budgets it ran with, so the retry re-submits the job with a
stricter :class:`~repro.resilience.ladder.LadderConfig`
(``LadderConfig.stricter()``: optimistic tier off, unbounded rollback,
one more restart) up to a bounded number of escalation retries.

A plain :class:`~repro.errors.ConvergenceError` (the Francis iteration
stalled past its sweep budget, without the resilience ladder being
involved) retries once with a **doubled sweep budget** — shift
strategies occasionally need more room on adversarial spectra — and
then fails permanently with a structured reason naming the exhausted
budget.

Infrastructure failures are handled by *where* the retry runs rather
than *how*: a timeout or a lost worker gets one retry on a fresh worker
process (the scheduler rebuilds the pool first). Configuration errors —
:class:`~repro.errors.FaultConfigError`, shape/spec validation — are
permanent: no amount of retrying fixes a malformed request.

Backoff is exponential with deterministic jitter: the jitter term is
hashed from ``(job key, attempt)``, so two replicas of a service retry
the same job at the same offsets (reproducible schedules), while
different jobs de-synchronize instead of thundering back together.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import (
    ConvergenceError,
    EscalationExhausted,
    FaultConfigError,
    ReproError,
    ShapeError,
)
from repro.serve.jobs import JobSpecError

# -- failure classes --------------------------------------------------------

ESCALATION = "escalation_exhausted"
CONVERGENCE = "convergence"
TIMEOUT = "timeout"
WORKER_LOST = "worker_lost"
FAULT_CONFIG = "fault_config"
INVALID = "invalid"
TRANSIENT = "transient"
UNEXPECTED = "unexpected"

FAILURE_CLASSES = (
    ESCALATION, CONVERGENCE, TIMEOUT, WORKER_LOST, FAULT_CONFIG, INVALID,
    TRANSIENT, UNEXPECTED,
)


class JobTimeout(ReproError, TimeoutError):
    """A served job exceeded its wall-clock budget."""


class WorkerLost(ReproError, RuntimeError):
    """The pool worker running a job died (BrokenProcessPool path)."""


def classify_failure(exc: BaseException) -> str:
    """Map an exception from a job run onto the retry taxonomy.

    :class:`EscalationExhausted` subclasses :class:`ConvergenceError`,
    so the escalation check must come first: a ladder that ran out of
    budget is a resilience verdict, while a plain ``ConvergenceError``
    is a genuinely stalled Francis iteration — retried once with a
    raised sweep budget, then permanent.
    """
    if isinstance(exc, EscalationExhausted):
        return ESCALATION
    if isinstance(exc, ConvergenceError):
        return CONVERGENCE
    if isinstance(exc, JobTimeout):
        return TIMEOUT
    if isinstance(exc, WorkerLost):
        return WORKER_LOST
    if isinstance(exc, FaultConfigError):
        return FAULT_CONFIG
    if isinstance(exc, (JobSpecError, ShapeError)):
        return INVALID
    if isinstance(exc, ReproError):
        return TRANSIENT
    return UNEXPECTED


@dataclass(frozen=True)
class RetryDecision:
    """What the scheduler should do with a failed attempt."""

    retry: bool
    wait: float = 0.0
    reason: str = ""
    #: re-run with LadderConfig.stricter() applied (escalation failures)
    escalate_ladder: bool = False
    #: re-run on a fresh worker (timeout / lost worker); the scheduler's
    #: pool path has already rebuilt the pool the attempt ran on
    fresh_worker: bool = False
    #: re-run with a doubled Francis sweep budget (convergence failures)
    raise_sweeps: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Budgets per failure class plus the backoff shape.

    ``escalation_retries`` bounds how many times a job may climb back in
    with a stricter ladder; ``convergence_retries`` how many times a
    stalled Francis iteration may retry with a doubled sweep budget
    (once by default — a genuinely non-converging matrix should fail
    permanently, with the structured reason naming the exhausted
    budget); ``timeout_retries`` / ``worker_lost_retries`` are per-job
    budgets for the two infrastructure classes (the issue's "retried
    once on a fresh worker"); ``transient_retries`` covers the
    remaining retryable library failures.
    """

    escalation_retries: int = 2
    convergence_retries: int = 1
    timeout_retries: int = 1
    worker_lost_retries: int = 1
    transient_retries: int = 1
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25

    def backoff(self, attempt: int, key: str = "") -> float:
        """Exponential backoff with deterministic per-(key, attempt) jitter."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** max(attempt - 1, 0)))
        digest = hashlib.sha256(f"{key}#{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
        return base * (1.0 + self.jitter * unit)

    def budget(self, failure_class: str) -> int:
        """Total retries allowed for one job in *failure_class*."""
        return {
            ESCALATION: self.escalation_retries,
            CONVERGENCE: self.convergence_retries,
            TIMEOUT: self.timeout_retries,
            WORKER_LOST: self.worker_lost_retries,
            TRANSIENT: self.transient_retries,
        }.get(failure_class, 0)

    def decide(self, failure_class: str, class_attempts: int, *, key: str = "") -> RetryDecision:
        """Decide the fate of a job whose attempt just failed.

        ``class_attempts`` counts prior *failures in the same class* for
        this job (0 on the first failure). Permanent classes
        (``fault_config``, ``invalid``, ``unexpected``) never retry.
        """
        allowed = self.budget(failure_class)
        if class_attempts >= allowed:
            why = "permanent failure class" if allowed == 0 else f"retry budget exhausted ({allowed})"
            return RetryDecision(retry=False, reason=f"{failure_class}: {why}")
        wait = self.backoff(class_attempts + 1, key)
        return RetryDecision(
            retry=True,
            wait=wait,
            reason=f"{failure_class}: retry {class_attempts + 1}/{allowed}",
            escalate_ladder=failure_class == ESCALATION,
            fresh_worker=failure_class in (TIMEOUT, WORKER_LOST),
            raise_sweeps=failure_class == CONVERGENCE,
        )
