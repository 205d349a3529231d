"""Result records returned by the drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.location import LocatedError, LocationReport
from repro.hybrid.trace import Timeline
from repro.linalg.flops import FlopCounter
from repro.linalg import flops as F


@dataclass
class HybridResult:
    """Outcome of a (non-FT) hybrid Hessenberg reduction.

    ``a`` is the packed factorization (H + reflectors), or ``None`` for
    a run given only the order; ``seconds`` is *simulated* time on the
    configured machine model.
    """

    n: int
    nb: int
    a: np.ndarray | None
    taus: np.ndarray | None
    timeline: Timeline
    seconds: float
    counter: FlopCounter = field(default_factory=FlopCounter)
    iterations: int = 0

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
