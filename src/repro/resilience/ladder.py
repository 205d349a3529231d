"""The recovery escalation ladder (Fasi et al.-style tiered recovery).

The flat policy — retry the iteration, abort after :data:`MAX_RETRIES`
— treats every detection the same. The ladder instead escalates through
strategies of increasing cost and decreasing assumptions:

``in_place``
    Correct the located error(s) directly at the current state, no
    rollback. Valid only for isolated errors the peeling decoder pins
    down exactly (a single corrupted element); anything smeared refuses.
``reverse_redo``
    The paper's lines 14–15: reverse the live iteration's linear
    updates, restore the panel from the diskless checkpoint, locate,
    correct, re-execute.
``deep_rollback``
    Unwind completed iterations from packed storage until the residual
    pattern decodes. The detector checks every iteration, so a fault is
    caught in the iteration it struck: unwinding earlier iterations
    only spreads it, and this tier has not recovered a run in the
    adversarial campaigns; it refuses and the restart tier follows. With
    one checksum channel the first refusal ends it: unwinding keeps the
    row residual's 2-norm, so a bad row found once stays, and one
    channel cannot name its column.
``restart``
    Rebuild the entire encoded state from the initial diskless snapshot
    and redo the factorization from iteration 0 — the backstop that
    turns "recovery machinery corrupted beyond repair" from an abort
    into a slow success.

Each tier is budgeted; when every tier is exhausted the driver raises
:class:`~repro.errors.EscalationExhausted` carrying the
:class:`FailureReport` built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


TIER_IN_PLACE = "in_place"
TIER_REVERSE_REDO = "reverse_redo"
TIER_DEEP_ROLLBACK = "deep_rollback"
TIER_RESTART = "restart"

#: Ladder tiers in escalation order.
TIER_ORDER = (TIER_IN_PLACE, TIER_REVERSE_REDO, TIER_DEEP_ROLLBACK, TIER_RESTART)

#: Event labels that may appear on RecoveryEvents but sit outside the
#: escalation ladder proper (no re-execution involved).
TIER_AUDIT = "audit"
TIER_TAU_REPAIR = "tau_repair"

#: Consecutive recoveries of one iteration (or one QR verification
#: window) before the drivers escalate past it: the paper assumes one
#: error at a time, so a detection that survives three re-executions is
#: an error storm (Algorithm 3, lines 14–15, bounded).
MAX_RETRIES = 3


def tier_rank(tier: str) -> int:
    """Position in the escalation order (-1 for out-of-ladder events)."""
    try:
        return TIER_ORDER.index(tier)
    except ValueError:
        return -1


def max_tier(tiers) -> str:
    """The deepest ladder tier in *tiers* ("" if none is a ladder tier)."""
    best = ""
    best_rank = -1
    for t in tiers:
        r = tier_rank(t)
        if r > best_rank:
            best, best_rank = t, r
    return best


@dataclass
class LadderConfig:
    """Budgets for each tier of the escalation ladder.

    Attributes
    ----------
    max_in_place_total:
        Across the whole run, how many times tier 0 may be attempted
        (0 disables the zero-rollback first tier).
    max_restarts:
        How many full diskless restarts the run may spend (0 is the
        strict fail-stop mode: an undecodable pattern raises).

    The deep rollback is not budgeted: with several channels it may
    unwind to iteration 0, and with one it stops at its first refusal.
    """

    max_in_place_total: int = 8
    max_restarts: int = 1

    def stricter(self) -> "LadderConfig":
        """A retry configuration with fewer assumptions and more budget.

        Used by the serving layer when a job dies with
        :class:`~repro.errors.EscalationExhausted`: the optimistic
        zero-rollback tier is disabled (if its exact-correction premise
        were holding, the ladder would not have exhausted), and one more
        full restart is allowed than last time. Repeated application
        keeps widening the restart budget, so a bounded retry loop
        converges on "replay everything from the initial snapshot".
        """
        return LadderConfig(max_in_place_total=0, max_restarts=self.max_restarts + 1)


@dataclass
class TierAttempt:
    """One attempt of one tier, successful or not."""

    tier: str
    iteration: int
    success: bool
    detail: str = ""


@dataclass
class FailureReport:
    """Structured account of an exhausted ladder.

    ``attempts``/``successes`` count per tier; ``events`` is the full
    ordered attempt log.
    """

    reason: str
    iteration: int
    attempts: dict[str, int] = field(default_factory=dict)
    successes: dict[str, int] = field(default_factory=dict)
    events: list[TierAttempt] = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            f"{t}: {self.successes.get(t, 0)}/{self.attempts.get(t, 0)}"
            for t in TIER_ORDER
            if self.attempts.get(t, 0)
        ]
        return (
            f"escalation exhausted at iteration {self.iteration} "
            f"({self.reason}); tier successes/attempts: "
            + (", ".join(parts) if parts else "none")
        )


class ResilienceSupervisor:
    """Bookkeeping + budget enforcement for the escalation ladder.

    The driver asks :meth:`allow` before attempting a budgeted tier and
    :meth:`record`\\ s every attempt; :meth:`report` packages the log
    into a :class:`FailureReport` when everything is exhausted.
    """

    def __init__(self, ladder: LadderConfig):
        self.ladder = ladder
        self.attempts: dict[str, int] = {}
        self.successes: dict[str, int] = {}
        self.events: list[TierAttempt] = []

    def allow(self, tier: str) -> bool:
        if tier == TIER_IN_PLACE:
            return self.attempts.get(tier, 0) < self.ladder.max_in_place_total
        if tier == TIER_RESTART:
            return self.attempts.get(tier, 0) < self.ladder.max_restarts
        return True  # reverse_redo / deep_rollback budgets live in the driver

    def record(self, tier: str, iteration: int, success: bool, detail: str = "") -> TierAttempt:
        att = TierAttempt(tier=tier, iteration=iteration, success=success, detail=detail)
        self.attempts[tier] = self.attempts.get(tier, 0) + 1
        if success:
            self.successes[tier] = self.successes.get(tier, 0) + 1
        self.events.append(att)
        return att

    @property
    def restarts(self) -> int:
        return self.successes.get(TIER_RESTART, 0)

    def report(self, iteration: int, reason: str) -> FailureReport:
        return FailureReport(
            reason=reason,
            iteration=iteration,
            attempts=dict(self.attempts),
            successes=dict(self.successes),
            events=list(self.events),
        )
