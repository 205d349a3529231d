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

The drivers record their phase events and price a clean record through
the shared :data:`PRICES` cache, so each distinct clean record is priced
once and every later run with the same record gets the same read-only
timeline. A record that responded to a fault is priced afresh each time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable

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


#: :data:`PRICES`' bound, in priced ops. A cached op holds 0.2–0.3 KB,
#: so the cache holds at most ~0.6 MB: eight n=512 timelines (244 ops
#: each) or dozens at the served orders. Only clean records come here
#: (a faulted one is priced uncached:
#: :meth:`~repro.core.ft_hessenberg.FTSchedule.finish`), and a
#: paper-scale order-only record (N≈10000, ~4700 ops) is priced but
#: not held.
MAX_CACHED_OPS = 2048


class PriceCache:
    """Prices each distinct schedule record once.

    The key is everything a pricing reads (the driver's phase record,
    n, the lane itemsize and the config fields it prices with), so a
    hit is the timeline a fresh pricing would return, and every hit
    shares it. At most ``max_ops`` priced ops are held, least recently
    used out first; a timeline larger than that is returned uncached.
    """

    def __init__(self, max_ops: int = MAX_CACHED_OPS) -> None:
        self.max_ops = int(max_ops)
        self.ops = 0  # priced ops currently held
        self._timelines: OrderedDict[tuple, Timeline] = OrderedDict()
        # drivers run on several threads (the serve host lane)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._timelines)

    def timeline(self, key: tuple, price: Callable[[], Timeline]) -> Timeline:
        """The timeline of *key*'s record, calling *price* on a miss."""
        with self._lock:
            tl = self._timelines.get(key)
            if tl is not None:
                self._timelines.move_to_end(key)
                return tl
        tl = price()
        size = len(tl.ops)
        if size > self.max_ops:
            return tl
        with self._lock:
            if key not in self._timelines:  # another thread may have priced it
                self._timelines[key] = tl
                self.ops += size
                while self.ops > self.max_ops:
                    _, old = self._timelines.popitem(last=False)
                    self.ops -= len(old.ops)
        return tl

    def clear(self) -> None:
        with self._lock:
            self._timelines.clear()
            self.ops = 0


#: the one price cache both Hessenberg drivers share
PRICES = PriceCache()
