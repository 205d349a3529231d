"""The hybrid (MAGMA-style) Hessenberg reduction — the paper's Algorithm 2.

The fault-*prone* baseline every experiment compares against. The GPU
owns the trailing-matrix updates, the host owns the panel factorization;
the lower part of the next panel travels device→host before each panel,
the finished ``nb`` columns of M travel back asynchronously, overlapped
with the G update (the two red lines of Algorithm 2).

Given a matrix, the driver runs the numerically identical LAPACK-style
kernels of :mod:`repro.linalg`; given only the order N, it runs none.
Either way its phase record is the iteration plan, a function of
(n, nb) alone, so the record is its price-cache key (n, lane itemsize,
machine, nb): the simulated machine prices the schedule once per key,
when a result's timeline is first read, and shares that timeline (the
price cache, :data:`~repro.hybrid.runtime.PRICES`). Order-only runs
reach paper-scale N.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from repro.core.config import HybridConfig
from repro.core.results import HybridResult, PhaseRecord
from repro.errors import ShapeError
from repro.faults.injector import FaultInjector
from repro.hybrid.engine import SimOp
from repro.hybrid.runtime import HybridRuntime
from repro.hybrid.trace import Timeline
from repro.linalg.flops import FlopCounter
from repro.linalg.gehrd import apply_left_update, apply_right_updates
from repro.linalg.lahr2 import lahr2
from repro.perf.workspace import Workspace
from repro.utils.precision import as_lane_matrix


@lru_cache(maxsize=512)
def iteration_plan_cached(n: int, nb: int) -> tuple[tuple[int, int], ...]:
    """Memoized (p, ib) iteration sequence.

    The drivers, ``_planned_detections`` and every campaign trial ask for
    the same plan over and over; it is a pure function of (n, nb). Hot
    callers index this tuple directly; :func:`iteration_plan` wraps it in
    a fresh list for callers that expect (or mutate) one.
    """
    plan = []
    p = 0
    while n - 1 - p > 0:
        ib = min(nb, n - 1 - p)
        plan.append((p, ib))
        p += ib
    return tuple(plan)


def iteration_plan(n: int, nb: int) -> list[tuple[int, int]]:
    """The (p, ib) sequence of blocked iterations for an n x n matrix."""
    return list(iteration_plan_cached(n, nb))


def schedule_iteration(
    rt: HybridRuntime,
    n: int,
    p: int,
    ib: int,
    deps: list[SimOp],
    *,
    tag: str = "",
    elem_bytes: int = 8,
) -> tuple[list[SimOp], SimOp]:
    """Submit one Algorithm-2 iteration's ops; returns (frontier, panel op).

    The frontier is the set of ops the next iteration must wait on. The
    async d2h of the finished columns (line 6) deliberately stays *out*
    of the compute dependency chain — it only joins the frontier so the
    final result is complete — which is exactly the overlap the paper
    highlights (lines 6 and 7 in red).
    """
    m = n - p
    B = elem_bytes  # bytes per element (8 for the float64 lane, 4 for fp32)

    # line 3: lower part of the next panel, device -> host
    op_down = rt.copy_d2h(B * (m - 1) * ib, deps, name=f"panel_down{tag}", category="transfer")
    # line 4: hybrid panel factorization (host + per-column GPU gemvs)
    op_panel = rt.panel(m, ib, [op_down], name=f"panel{tag}")
    # factorized panel (V + H columns) back to the device for the updates
    op_up = rt.copy_h2d(B * m * ib, [op_panel], name=f"panel_up{tag}", category="transfer")

    # line 5: right update to M (upper block rows x trailing columns)
    dur_m = rt.cost.gemm("gpu", p + ib, ib, m - 1) + rt.cost.gemm("gpu", p + ib, m - ib, ib)
    op_m = rt.submit(f"right_M{tag}", "gpu", dur_m, [op_up], "right_update")
    # line 6: async send of the finished nb columns of M to the host …
    op_send = rt.copy_d2h(B * (p + ib) * ib, [op_m], name=f"send_M{tag}", category="transfer")
    # line 7: … overlapped with the right update to G
    op_g = rt.gemm(
        "gpu", m - ib, m - ib, ib, [op_m], name=f"right_G{tag}", category="right_update"
    )
    # line 8: left update (DLARFB) to the trailing block
    op_l = rt.larfb("gpu", m - 1, m - ib, ib, [op_g], name=f"larfb{tag}")

    return [op_l, op_send], op_panel


def price_hybrid_record(n: int, elem_bytes: int, machine, nb: int) -> Timeline:
    """Price Algorithm 2's schedule for an order-*n* run, uncached."""
    rt = HybridRuntime(machine)
    # line 1: ship A to the device
    frontier: list[SimOp] = [
        rt.copy_h2d(elem_bytes * n * n, name="upload_A", category="transfer")
    ]
    for it, (p, ib) in enumerate(iteration_plan_cached(n, nb)):
        frontier, _ = schedule_iteration(rt, n, p, ib, frontier, tag=f"@{it}",
                                         elem_bytes=elem_bytes)
    # final drain of whatever of the result still lives on the device
    rt.copy_d2h(elem_bytes * n * nb, frontier, name="final_down", category="transfer")
    return rt.timeline()


def hybrid_gehrd(
    a: np.ndarray | int,
    config: HybridConfig | None = None,
    *,
    injector: FaultInjector | None = None,
    workspace: Workspace | None = None,
) -> HybridResult:
    """Run Algorithm 2 on the simulated hybrid machine.

    Parameters
    ----------
    a:
        Square matrix to reduce, or just the order N to price the
        schedule without data.
    config:
        Driver settings.
    injector:
        Optional fault injector; matrix faults strike at iteration
        starts, and those planned at or past the last iteration strike
        the finished matrix. The baseline has **no detection** — this is
        how the propagation experiments of Fig. 2 corrupt a run.
    """
    config = config or HybridConfig()
    if isinstance(a, (int, np.integer)):
        n = int(a)
        work = None
    else:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"hybrid_gehrd needs a square matrix, got {a.shape}")
        n = a.shape[0]
        work = as_lane_matrix(a).copy(order="F")
    config.validate(n)

    counter = FlopCounter()
    taus = np.zeros(max(n - 1, 0), dtype=work.dtype) if work is not None else None
    ws = (workspace if workspace is not None else Workspace()) if work is not None else None

    plan = iteration_plan_cached(n, config.nb)
    if work is not None:
        for it, (p, ib) in enumerate(plan):
            if injector is not None:
                injector.apply_to_array(work, it)
            pf = lahr2(work, p, ib, n, counter=counter, workspace=ws)
            taus[p : p + ib] = pf.taus
            apply_right_updates(work, pf, n, counter=counter, workspace=ws)
            apply_left_update(work, pf, n, counter=counter, workspace=ws)

    # every matrix fault planned at or past the last iteration strikes
    # the finished matrix, however far past the end it was scheduled
    if work is not None and injector is not None:
        for it in sorted({f.iteration for f in injector.pending_after(len(plan))}):
            injector.apply_to_array(work, it)
        for spec in injector.unfired():
            warnings.warn(
                f"fault spec never fired: {spec} (the baseline driver only "
                "strikes the matrix)",
                RuntimeWarning,
                stacklevel=2,
            )

    # transfer pricing follows the lane itemsize (fp32 moves half the bytes)
    key = ("hybrid", n, 8 if work is None else int(work.dtype.itemsize), config.machine,
           config.nb)
    return HybridResult(
        n=n,
        nb=config.nb,
        a=work,
        taus=taus,
        record=PhaseRecord(key, price_hybrid_record),
        counter=counter,
        iterations=len(plan),
    )
