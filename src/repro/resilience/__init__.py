"""Resilience supervisor layer: the recovery escalation ladder, its
budgets and failure reporting, plus shadow protection of unencoded FT
state (the tau scalars)."""

from repro.resilience.ladder import (
    TIER_IN_PLACE,
    TIER_REVERSE_REDO,
    TIER_DEEP_ROLLBACK,
    TIER_RESTART,
    TIER_AUDIT,
    TIER_TAU_REPAIR,
    TIER_ORDER,
    MAX_RETRIES,
    tier_rank,
    max_tier,
    LadderConfig,
    TierAttempt,
    FailureReport,
    ResilienceSupervisor,
)
from repro.resilience.tau_guard import TauGuard
from repro.errors import EscalationExhausted

__all__ = [
    "TIER_IN_PLACE",
    "TIER_REVERSE_REDO",
    "TIER_DEEP_ROLLBACK",
    "TIER_RESTART",
    "TIER_AUDIT",
    "TIER_TAU_REPAIR",
    "TIER_ORDER",
    "MAX_RETRIES",
    "tier_rank",
    "max_tier",
    "LadderConfig",
    "TierAttempt",
    "FailureReport",
    "ResilienceSupervisor",
    "TauGuard",
    "EscalationExhausted",
]
