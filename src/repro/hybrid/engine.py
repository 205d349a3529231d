"""Discrete-event scheduling engine for the hybrid machine.

A tiny deterministic list scheduler: operations are submitted in program
order, each bound to one *resource* (a compute device or a DMA/link
channel) with explicit dependencies. A resource executes its operations
in submission order (a CUDA-stream/queue discipline); an operation starts
when its resource is free **and** all dependencies have completed. This
captures exactly the overlap semantics the paper exploits:

* GPU kernels on the compute queue serialize with each other,
* host↔device copies run on their own channels and overlap with compute
  (the paper's asynchronous transfer of the finished ``nb`` columns),
* CPU work (panel factorization, Q-checksum GEMVs) proceeds in parallel
  with the GPU unless a dependency forces a wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from repro.errors import SimulationError

#: Default resource set: one compute queue per device plus the two DMA
#: directions of the PCIe link (modern GPUs have independent engines).
DEFAULT_RESOURCES = ("cpu", "gpu", "h2d", "d2h")


class SimOp(NamedTuple):
    """One scheduled operation.

    Immutable once scheduled, so a priced timeline can be shared by
    every run with the same schedule; a named tuple keeps that as cheap
    to build as a plain record.
    """

    index: int
    name: str
    resource: str
    duration: float
    deps: tuple["SimOp", ...] = ()
    category: str = ""
    start: float = -1.0
    end: float = -1.0

    @property
    def scheduled(self) -> bool:
        return self.end >= 0.0


@dataclass
class SimEngine:
    """Deterministic list scheduler over a fixed resource set."""

    resources: Sequence[str] = DEFAULT_RESOURCES
    ops: list[SimOp] = field(default_factory=list)
    _res_free: dict[str, float] = field(default_factory=dict)
    now: float = 0.0

    def __post_init__(self) -> None:
        for r in self.resources:
            self._res_free[r] = 0.0

    def submit(
        self,
        name: str,
        resource: str,
        duration: float,
        deps: Iterable[SimOp] = (),
        category: str = "",
    ) -> SimOp:
        """Submit and immediately schedule one operation.

        Scheduling is eager: because submission order is program order and
        dependencies always refer to earlier submissions, the start time
        is final at submission. Returns the scheduled op (its ``end`` is
        the completion timestamp).
        """
        if resource not in self._res_free:
            raise SimulationError(f"unknown resource {resource!r}")
        if duration < 0:
            raise SimulationError(f"negative duration for {name!r}: {duration}")
        dep_tuple = tuple(deps)
        for d in dep_tuple:
            if not d.scheduled:
                raise SimulationError(f"dependency {d.name!r} of {name!r} not yet scheduled")
        ready = max((d.end for d in dep_tuple), default=0.0)
        start = max(ready, self._res_free[resource])
        op = SimOp(
            index=len(self.ops),
            name=name,
            resource=resource,
            duration=duration,
            deps=dep_tuple,
            category=category,
            start=start,
            end=start + duration,
        )
        self._res_free[resource] = op.end
        self.ops.append(op)
        self.now = max(self.now, op.end)
        return op

    def barrier(self) -> float:
        """Synchronize every resource to the current makespan (a
        device-wide ``cudaDeviceSynchronize``); returns the makespan."""
        t = self.makespan
        for r in self._res_free:
            self._res_free[r] = max(self._res_free[r], t)
        return t

    @property
    def makespan(self) -> float:
        """Completion time of the last finishing operation."""
        return max((op.end for op in self.ops), default=0.0)

    def busy_time(self, resource: str) -> float:
        """Total occupied time on one resource."""
        return sum(op.duration for op in self.ops if op.resource == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of one resource over the makespan."""
        ms = self.makespan
        return self.busy_time(resource) / ms if ms > 0 else 0.0
