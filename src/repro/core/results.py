"""Result records returned by the drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from repro.abft.location import LocatedError, LocationReport
from repro.hybrid.runtime import PRICES
from repro.hybrid.trace import Timeline
from repro.linalg.flops import FlopCounter
from repro.linalg import flops as F


class PhaseRecord(NamedTuple):
    """A finished run's phase record, frozen: everything its pricing reads.

    ``key`` is the record's price-cache key, ``(kind, *args)``, and
    ``price(*args)`` prices it uncached. A clean record is priced through
    :data:`~repro.hybrid.runtime.PRICES`, once per distinct record; a
    *faulted* one (a fix, a rollback, a restart or a Q correction in it)
    almost never repeats, so it is priced afresh and never held.
    """

    key: tuple
    price: Callable[..., Timeline]
    faulted: bool = False

    def timeline(self) -> Timeline:
        """Price the record: through the cache when clean, afresh when faulted."""
        args = self.key[1:]
        if self.faulted:
            return self.price(*args)
        return PRICES.timeline(self.key, lambda: self.price(*args))


@dataclass
class HybridResult:
    """Outcome of a (non-FT) hybrid Hessenberg reduction.

    ``a`` is the packed factorization (H + reflectors), or ``None`` for
    a run given only the order. The simulator observes the run through
    its phase ``record``: ``timeline`` and ``seconds`` (*simulated* time
    on the configured machine model) are priced on first read.
    """

    n: int
    nb: int
    a: np.ndarray | None
    taus: np.ndarray | None
    record: PhaseRecord
    counter: FlopCounter = field(default_factory=FlopCounter)
    iterations: int = 0

    @cached_property
    def timeline(self) -> Timeline:
        """The record's priced timeline (shared by every run with the
        same clean record, so read-only)."""
        return self.record.timeline()

    @property
    def seconds(self) -> float:
        """Simulated seconds: the timeline's makespan."""
        return self.timeline.makespan

    @property
    def gflops(self) -> float:
        """Standard reporting rate: baseline flops over (simulated) time."""
        if self.seconds <= 0:
            return 0.0
        return F.gehrd_flops(self.n) / self.seconds / 1e9


@dataclass
class RecoveryEvent:
    """One detection → recovery cycle, tagged with the escalation-ladder
    tier that resolved it (see :mod:`repro.resilience.ladder`)."""

    iteration: int
    p: int
    gap: float
    errors: list[LocatedError] = field(default_factory=list)
    retries: int = 1
    tier: str = "reverse_redo"


@dataclass
class FTResult(HybridResult):
    """Outcome of the fault-tolerant driver (Algorithm 3)."""

    recoveries: list[RecoveryEvent] = field(default_factory=list)
    q_report: LocationReport | None = None
    detections: int = 0
    checks: int = 0
    checkpoint_saves: int = 0
    checkpoint_restores: int = 0
    checkpoint_peak_bytes: int = 0
    restarts: int = 0
    tau_repairs: int = 0
    checkpoint_corruptions: int = 0

    @property
    def errors_corrected(self) -> int:
        total = sum(len(r.errors) for r in self.recoveries)
        if self.q_report is not None:
            total += self.q_report.count
        return total


def overhead_percent(ft: HybridResult, base: HybridResult) -> float:
    """Fig. 6's overhead statistic: ``(t_FT − t_base) / t_base`` in percent."""
    if base.seconds <= 0:
        return 0.0
    return 100.0 * (ft.seconds - base.seconds) / base.seconds
