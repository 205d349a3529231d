"""Hybrid runtime: prices a driver's schedule on the simulated machine.

Drivers compute with NumPy and report each phase to this runtime as
submissions. Each submission names a kernel shape (so the cost model can
price it) and a resource (so the event engine can schedule it); the
runtime never runs or sees the data. The event engine is an eager list
scheduler, so the order of submissions *is* the schedule, and the
schedule alone determines the reported (simulated) wall time.

A driver given only the order N submits the same schedule without any
data, which is how the Fig. 6 benchmarks reach the paper's N≈10000
sizes instantly.
"""

from __future__ import annotations

from typing import Iterable

from repro.hybrid.engine import SimEngine, SimOp
from repro.hybrid.machine import MachineSpec, paper_testbed
from repro.hybrid.perfmodel import CostModel
from repro.hybrid.trace import Timeline


class HybridRuntime:
    """Prices submitted kernels on the simulated machine."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        cost: CostModel | None = None,
    ):
        self.machine = machine or paper_testbed()
        self.cost = cost or CostModel(self.machine)
        self.engine = SimEngine()

    # -- generic submission ---------------------------------------------------

    def submit(
        self,
        name: str,
        resource: str,
        duration: float,
        deps: Iterable[SimOp] = (),
        category: str = "",
    ) -> SimOp:
        """Schedule one op after *deps*; returns its priced record."""
        return self.engine.submit(name, resource, duration, deps, category)

    # -- priced kernel wrappers -------------------------------------------------

    def gemm(
        self,
        device: str,
        m: int,
        n: int,
        k: int,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "gemm",
        category: str = "gemm",
    ) -> SimOp:
        return self.submit(name, device, self.cost.gemm(device, m, n, k), deps, category)

    def gemv(
        self,
        device: str,
        m: int,
        n: int,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "gemv",
        category: str = "gemv",
    ) -> SimOp:
        return self.submit(name, device, self.cost.gemv(device, m, n), deps, category)

    def larfb(
        self,
        device: str,
        m: int,
        n: int,
        k: int,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "larfb",
        category: str = "left_update",
    ) -> SimOp:
        return self.submit(name, device, self.cost.larfb(device, m, n, k), deps, category)

    def dot(
        self,
        device: str,
        n: int,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "dot",
        category: str = "abft_correct",
    ) -> SimOp:
        return self.submit(name, device, self.cost.dot(device, n), deps, category)

    def copy_h2d(
        self,
        nbytes: float,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "h2d",
        category: str = "transfer",
    ) -> SimOp:
        return self.submit(name, "h2d", self.cost.copy(nbytes), deps, category)

    def copy_d2h(
        self,
        nbytes: float,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "d2h",
        category: str = "transfer",
    ) -> SimOp:
        return self.submit(name, "d2h", self.cost.copy(nbytes), deps, category)

    def panel(
        self,
        m: int,
        ib: int,
        deps: Iterable[SimOp] = (),
        *,
        name: str = "panel",
    ) -> SimOp:
        """The hybrid panel factorization (MAGMA_DLAHR2).

        Modeled as a serialized CPU↔GPU ping-pong (the per-column trailing
        GEMVs on the GPU, reflector generation on the host, plus the
        per-column synchronization latencies). Two chained ops keep both
        resources busy for their respective shares — neither can overlap
        other work during the panel, matching MAGMA's behaviour.
        """
        gpu_op = self.submit(
            f"{name}:gpu", "gpu", self.cost.panel_gpu_part(m, ib), deps, "panel"
        )
        cpu_op = self.submit(
            f"{name}:cpu",
            "cpu",
            self.cost.panel_cpu_part(m, ib) + self.cost.panel_sync_overhead(ib),
            (gpu_op,),
            "panel",
        )
        return cpu_op

    # -- results -----------------------------------------------------------------

    def timeline(self) -> Timeline:
        return Timeline(self.engine)

    @property
    def elapsed(self) -> float:
        """Simulated makespan so far, in seconds."""
        return self.engine.makespan
