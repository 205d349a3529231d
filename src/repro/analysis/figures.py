"""Series assembly for the paper's Fig. 6 (a/b/c).

Each figure plots, against matrix size:

* the baseline "MAGMA Hess" GFLOPS curve,
* the "FT-Hess" GFLOPS curve,
* the blue no-failure overhead line,
* the gray uncertainty band: min/max overhead over the *moment* the
  single error strikes the given area.

All series come from the timed event model at the paper's matrix sizes
(order-only runs — no data is touched), so regenerating a figure takes
seconds. The paper's size grid 1022…10110 is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FTConfig, HybridConfig
from repro.core.ft_hessenberg import ft_gehrd
from repro.core.hybrid_hessenberg import hybrid_gehrd
from repro.core.results import overhead_percent
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.regions import finished_cols_at, iteration_count, sample_in_area
from repro.hybrid.machine import MachineSpec, paper_testbed
from repro.utils.rng import make_rng

#: The paper's Fig. 6 / Tables II-III size grid.
PAPER_SIZES = (1022, 2046, 3070, 4030, 5182, 6014, 7038, 8062, 9086, 10110)


@dataclass
class Fig6Point:
    """One matrix size on one Fig. 6 panel."""

    n: int
    base_gflops: float
    ft_gflops: float
    overhead_no_error: float
    overhead_min: float
    overhead_max: float


@dataclass
class Fig6Series:
    """One full panel (one area) of Fig. 6."""

    area: int
    nb: int
    machine_desc: str
    points: list[Fig6Point] = field(default_factory=list)

    def to_csv(self) -> str:
        """The panel's data as CSV (for external plotting)."""
        lines = ["n,base_gflops,ft_gflops,overhead_no_error,overhead_min,overhead_max"]
        for p in self.points:
            lines.append(
                f"{p.n},{p.base_gflops:.6f},{p.ft_gflops:.6f},"
                f"{p.overhead_no_error:.6f},{p.overhead_min:.6f},{p.overhead_max:.6f}"
            )
        return "\n".join(lines) + "\n"


def overhead_band(
    n: int,
    area: int,
    *,
    nb: int = 32,
    machine: MachineSpec | None = None,
    moments: int = 7,
    seed: int = 0,
) -> tuple[float, float, float, float, float]:
    """(base_gflops, ft_gflops, no-error %, min %, max %) at one size.

    The band sweeps the error moment across the factorization (the
    paper's gray area): early errors redo a larger trailing iteration and
    cost more; area-3 errors are handled once at the end and the band
    collapses onto the no-error line.
    """
    machine = machine or paper_testbed()
    rng = make_rng(seed)
    base = hybrid_gehrd(n, HybridConfig(nb=nb, machine=machine))
    ft0 = ft_gehrd(n, FTConfig(nb=nb, machine=machine))
    no_err = overhead_percent(ft0, base)

    total = iteration_count(n, nb)
    lo, hi = np.inf, -np.inf
    for frac in np.linspace(0.0, 1.0, moments):
        it = int(round(frac * (total - 1)))
        it = max(it, 1) if area == 3 else min(max(it, 0), total - 1)
        p = finished_cols_at(it, n, nb)
        i, j = sample_in_area(area, p, n, rng)
        inj = FaultInjector().add(FaultSpec(iteration=it, row=i, col=j))
        ft = ft_gehrd(n, FTConfig(nb=nb, machine=machine), injector=inj)
        ovh = overhead_percent(ft, base)
        lo, hi = min(lo, ovh), max(hi, ovh)
    return base.gflops, ft0.gflops, no_err, float(lo), float(hi)


def fig6_series(
    area: int,
    *,
    sizes: tuple[int, ...] = PAPER_SIZES,
    nb: int = 32,
    machine: MachineSpec | None = None,
    moments: int = 7,
    seed: int = 0,
) -> Fig6Series:
    """Assemble one Fig. 6 panel."""
    machine = machine or paper_testbed()
    series = Fig6Series(area=area, nb=nb, machine_desc=machine.description)
    for n in sizes:
        bg, fg, noe, lo, hi = overhead_band(
            n, area, nb=nb, machine=machine, moments=moments, seed=seed
        )
        series.points.append(
            Fig6Point(
                n=n,
                base_gflops=bg,
                ft_gflops=fg,
                overhead_no_error=noe,
                overhead_min=lo,
                overhead_max=hi,
            )
        )
    return series
