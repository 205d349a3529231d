"""repro — fault-tolerant Hessenberg reduction on simulated hybrid machines.

Reproduction of Jia, Luszczek, Dongarra, *"Hessenberg Reduction with
Transient Error Resilience on GPU-Based Hybrid Architectures"*
(IPDPS Workshops 2016). See README.md and DESIGN.md.

Public API highlights
---------------------
``repro.linalg``   — from-scratch LAPACK-style kernels (gehrd, lahr2, ...)
``repro.core``     — the hybrid (Algorithm 2) and fault-tolerant
                     (Algorithm 3) Hessenberg drivers
``repro.abft``     — checksum encoding, detection, location, correction,
                     reverse computation, Q protection
``repro.hybrid``   — discrete-event CPU+GPU machine simulator
``repro.faults``   — soft-error injection and campaigns
``repro.batch``    — stacked small-n engine: batched fault-free fast
                     path with ejection to the scalar resilience ladder
``repro.analysis`` — experiment harnesses regenerating the paper's
                     tables and figures
"""

__version__ = "1.0.0"

from repro.errors import (
    ReproError,
    ShapeError,
    ConvergenceError,
    UncorrectableError,
    DetectionError,
    SimulationError,
    FaultConfigError,
)

from repro.core import (
    FTConfig,
    HybridConfig,
    ft_gehrd,
    ft_sytrd,
    hybrid_gehrd,
    overhead_percent,
)
from repro.batch import ft_gehrd_batched, gehrd_batched
from repro.faults import FaultInjector, FaultSpec
from repro.utils import random_matrix

__all__ = [
    "__version__",
    "FTConfig",
    "HybridConfig",
    "ft_gehrd",
    "ft_sytrd",
    "hybrid_gehrd",
    "overhead_percent",
    "ft_gehrd_batched",
    "gehrd_batched",
    "FaultInjector",
    "FaultSpec",
    "random_matrix",
    "ReproError",
    "ShapeError",
    "ConvergenceError",
    "UncorrectableError",
    "DetectionError",
    "SimulationError",
    "FaultConfigError",
]
