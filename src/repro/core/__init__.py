"""Core drivers: the hybrid baseline (Algorithm 2) and the fault-tolerant
Hessenberg reduction (Algorithm 3), plus their configs and results."""

from repro.core.config import HybridConfig, FTConfig
from repro.core.results import HybridResult, FTResult, RecoveryEvent, overhead_percent
from repro.core.hybrid_hessenberg import hybrid_gehrd, iteration_plan, schedule_iteration
from repro.core.ft_hessenberg import ft_gehrd
from repro.core.ft_tridiag import ft_sytrd, FTTridiagResult

__all__ = [
    "HybridConfig",
    "FTConfig",
    "HybridResult",
    "FTResult",
    "RecoveryEvent",
    "overhead_percent",
    "hybrid_gehrd",
    "iteration_plan",
    "schedule_iteration",
    "ft_gehrd",
    "ft_sytrd",
    "FTTridiagResult",
]
