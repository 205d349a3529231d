"""Batched Hessenberg drivers: ``gehrd_batched`` and ``ft_gehrd_batched``.

The batched engine accelerates the **fault-free fast path only**.  Both
drivers reproduce the scalar drivers byte for byte on clean inputs
(golden-tested in ``tests/test_batch_golden.py``); anything that needs
the resilience machinery is handed to the scalar ladder:

* an item whose end-of-iteration detection statistic trips the roundoff
  threshold is **ejected** — marked inactive and re-run from its
  pristine input on the scalar :func:`~repro.core.ft_hessenberg.ft_gehrd`
  escalation ladder (recovery semantics unchanged);
* an item carrying *any* fault plan finishes on the scalar ladder even
  if nothing tripped in-batch (the Σ test is structurally blind to
  area-3 faults, and the scalar driver owns the audit/Q-check machinery
  that handles them), so a fault can never silently ride the fast path;
* fault plans outside the batchable surface (non-``boundary`` phases, or
  spaces other than the encoded matrix) are pre-ejected and never enter
  the stack at all.

Per-item ops in the stacked kernels cannot cross-contaminate — item b's
GEMM reads only item b's slice — so an ejected item's garbage state is
harmlessly carried to the end of the stacked loop while the remaining
items complete untouched.

Clean items share one order-only pricing run: a clean ``ft_gehrd`` on
a matrix schedules exactly the ops ``ft_gehrd(n, config)`` prices (no
detections, no recovery), so ``seconds``/``timeline`` are identical —
one order-only :func:`ft_gehrd` call prices the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FTConfig
from repro.core.ft_hessenberg import ft_gehrd
from repro.core.hybrid_hessenberg import iteration_plan_cached
from repro.core.results import FTResult
from repro.errors import ShapeError
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.linalg.flops import FlopCounter
from repro.linalg import flops as F
from repro.linalg.gehrd import DEFAULT_NB, DEFAULT_NX, HessenbergFactorization
from repro.linalg.verify import one_norm
from repro.perf.workspace import Workspace
from repro.utils.precision import as_lane_matrix

from repro.batch.panel import lahr2_batched
from repro.batch.stack import EncodedMatrixBatch, as_item_f_stack
from repro.batch.updates import (
    apply_left_update_batched,
    apply_right_updates_batched,
    gehd2_batched,
    left_update_encoded_batched,
    right_update_encoded_batched,
    v_col_checksums_batched,
    y_col_checksums_batched,
)

#: Fault surface the stacked loop can apply itself; everything else
#: pre-ejects to the scalar driver (which owns the full adversarial
#: surface — taus, checkpoints, live panels, Q checksums, mid-iteration
#: phases).
_BATCHABLE_SPACES = ("matrix", "row_checksum", "col_checksum")


def _batch_safe(injector: FaultInjector | None) -> bool:
    if injector is None:
        return True
    return all(
        f.phase == "boundary" and f.space in _BATCHABLE_SPACES
        for f in injector.faults
    )


def _clone(injector: FaultInjector | None) -> FaultInjector | None:
    """A fresh, unfired injector over the same (frozen) fault specs.

    The engine never mutates the caller's injectors: in-batch strikes
    fire on one clone, the scalar re-run gets another, so the ejected
    item replays its full fault plan from a pristine state.
    """
    if injector is None:
        return None
    return FaultInjector(faults=list(injector.faults))


@dataclass
class BatchResult:
    """Outcome of one :func:`ft_gehrd_batched` call.

    ``results[i]`` is the per-item :class:`FTResult` (or ``None`` when
    the item's scalar re-run raised — see ``errors``).  Fast-path items
    carry the shared priced timeline, zero checkpoint traffic and an
    empty per-item flop counter; the batch-level arithmetic is
    accounted once in ``counter`` with B-aware batched counts.
    """

    results: list[FTResult | None]
    ejected: list[int] = field(default_factory=list)
    #: ejection iteration per ejected index: -1 = pre-ejected (unbatchable
    #: fault plan), ``iterations`` = escorted at end-of-batch, otherwise
    #: the iteration whose detection check tripped.
    ejected_at: dict[int, int] = field(default_factory=dict)
    errors: dict[int, BaseException] = field(default_factory=dict)
    counter: FlopCounter = field(default_factory=FlopCounter)
    seconds: float | None = None
    iterations: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.results)

    @property
    def fast_path(self) -> int:
        """Items that completed on the batched fast path."""
        return len(self.results) - len(self.ejected)


def gehrd_batched(
    a_stack: np.ndarray | list[np.ndarray],
    *,
    nb: int = DEFAULT_NB,
    nx: int | None = None,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> list[HessenbergFactorization]:
    """Blocked Hessenberg reduction of B stacked matrices.

    Mirrors :func:`repro.linalg.gehrd.gehrd` step for step — stacked
    panel factorizations, stacked fused right/left updates, stacked
    unblocked clean-up below the crossover — and returns per-item
    factorizations whose packed storage and taus agree with B scalar
    calls byte for byte.  The input is copied; items of the returned
    factorizations are views into one shared stack.
    """
    a = as_item_f_stack(
        as_lane_matrix(a_stack)
        if isinstance(a_stack, np.ndarray)
        else [as_lane_matrix(m) for m in a_stack]
    )
    if a.shape[1] != a.shape[2]:
        raise ShapeError(f"gehrd_batched needs square items, got {a.shape}")
    b, n = a.shape[0], a.shape[1]
    nx = max(nb, nx if nx is not None else DEFAULT_NX)
    taus = np.zeros((b, max(n - 1, 0)), dtype=a.dtype)
    ws = workspace or Workspace()

    p = 0
    while n - 1 - p > nx:
        ib = min(nb, n - 1 - p)
        pf = lahr2_batched(a, p, ib, n, counter=counter, workspace=ws)
        taus[:, p : p + ib] = pf.taus
        apply_right_updates_batched(a, pf, n, counter=counter, workspace=ws)
        apply_left_update_batched(a, pf, n, counter=counter, workspace=ws)
        p += ib

    gehd2_batched(a, p, n, taus_out=taus, counter=counter)
    return [
        HessenbergFactorization(a=a[i], taus=taus[i], nb=nb) for i in range(b)
    ]


def _detect_batched(
    emb: EncodedMatrixBatch,
    config: FTConfig,
    norms: np.ndarray,
    active: np.ndarray,
    counter: FlopCounter | None,
) -> np.ndarray:
    """Vectorized end-of-iteration detection: the per-item mirror of
    :meth:`repro.abft.detection.Detector.check` over the active lanes."""
    nn = emb.n
    dtype = emb.ext.dtype
    sre, sce = emb.sum_pairs()
    gaps = emb.cross_gaps() if emb.k > 1 else None
    if config.threshold.needs_m2(dtype):
        # per-item checksum second moment for the variance kind, float64
        # accumulation over the maintained unit banks (see
        # repro.abft.detection.checksum_second_moment)
        rc = np.asarray(emb.ext[:, :nn, nn], dtype=np.float64)
        cc = np.asarray(emb.ext[:, nn, :nn], dtype=np.float64)
        m2s = np.sum(rc * rc, axis=1) + np.sum(cc * cc, axis=1)
    else:
        m2s = None
    if counter is not None:
        counter.add(
            "abft_detect",
            F.batched_flops(int(active.sum()), 2 * emb.k * emb.k * F.dot_flops(emb.n)),
        )
    tripped = np.zeros_like(active)
    for j in np.flatnonzero(active):
        s_r, s_c = float(sre[j]), float(sce[j])
        if not (np.isfinite(s_r) and np.isfinite(s_c)):
            tripped[j] = True
            continue
        if gaps is not None:
            g = gaps[j]
            if not np.all(np.isfinite(g)):
                tripped[j] = True
                continue
            gap = float(np.max(g))
        else:
            gap = abs(s_r - s_c)
        tol = config.threshold.threshold(
            emb.n, float(norms[j]), s_r, s_c, dtype=dtype,
            m2=None if m2s is None else float(m2s[j]),
        )
        if gap > tol:
            tripped[j] = True
    return tripped


def ft_gehrd_batched(
    a_stack: np.ndarray | list[np.ndarray],
    config: FTConfig | None = None,
    *,
    injectors: list[FaultInjector | None] | None = None,
    workspace: Workspace | None = None,
) -> BatchResult:
    """Fault-tolerant Hessenberg reduction of B stacked matrices.

    Clean items run the stacked Algorithm-3 fast path (batched panel,
    batched encoded updates, vectorized detection) and reproduce the
    scalar :func:`ft_gehrd` byte for byte; any item that trips detection
    — and every item carrying a fault plan — is *ejected* and finished
    on the scalar resilience ladder from its pristine input (see the
    module docstring for the full contract). Pricing an order alone has
    nothing to batch: call ``ft_gehrd(n, config)`` for that.
    """
    config = config or FTConfig()
    stack = as_item_f_stack(
        as_lane_matrix(a_stack)
        if isinstance(a_stack, np.ndarray)
        else [as_lane_matrix(m) for m in a_stack]
    )
    if stack.shape[1] != stack.shape[2]:
        raise ShapeError(f"ft_gehrd_batched needs square items, got {stack.shape}")
    b, n = stack.shape[0], stack.shape[1]
    config.validate(n)
    injs: list[FaultInjector | None] = (
        list(injectors) if injectors is not None else [None] * b
    )
    if len(injs) != b:
        raise ShapeError(f"got {len(injs)} injectors for a batch of {b}")

    counter = FlopCounter()
    plan = iteration_plan_cached(n, config.nb)
    total = len(plan)
    ws = workspace or Workspace()
    results: list[FTResult | None] = [None] * b
    errors: dict[int, BaseException] = {}
    ejected_at: dict[int, int] = {}
    seconds: float | None = None

    safe = [_batch_safe(inj) for inj in injs]
    batch_idx = [i for i in range(b) if safe[i]]
    for i in range(b):
        if not safe[i]:
            ejected_at[i] = -1  # unbatchable fault plan: scalar from the start

    if batch_idx:
        # one order-only run prices every clean item: a clean run on a
        # matrix schedules exactly the ops the order-only run prices
        priced = ft_gehrd(n, config)
        seconds = priced.seconds
        norms = np.array(
            [one_norm(np.asarray(stack[i], dtype=np.float64)) for i in batch_idx]
        )
        emb = EncodedMatrixBatch(
            stack[batch_idx], channels=config.channels, counter=counter
        )
        taus_b = np.zeros((len(batch_idx), max(n - 1, 0)), dtype=emb.ext.dtype)
        clones = [_clone(injs[i]) for i in batch_idx]
        active = np.ones(len(batch_idx), dtype=bool)
        checks_done = 0

        for it, (p, ib) in enumerate(plan):
            for j, gi in enumerate(batch_idx):
                if active[j] and clones[j] is not None:
                    clones[j].apply_phase(
                        it, "boundary", InjectionTargets(em=emb.item(j))
                    )
            pf = lahr2_batched(emb.ext, p, ib, n, counter=counter, workspace=ws)
            vce = v_col_checksums_batched(pf, emb, counter=counter)
            ychk = y_col_checksums_batched(emb, pf, counter=counter)
            right_update_encoded_batched(
                emb, pf, vce, ychk, counter=counter, workspace=ws
            )
            left_update_encoded_batched(emb, pf, vce, counter=counter, workspace=ws)
            emb.refresh_finished_segment(p, ib, counter=counter)
            taus_b[:, p : p + ib] = pf.taus

            check_here = (it % config.detect_every == 0) or (it == total - 1)
            if check_here:
                checks_done += 1
                tripped = _detect_batched(emb, config, norms, active, counter)
                for j in np.flatnonzero(tripped):
                    active[j] = False
                    ejected_at[batch_idx[j]] = it

        # a fault plan that never tripped the Σ test (area-3 / masked /
        # scheduled past the end) must still finish on the scalar driver
        for j, gi in enumerate(batch_idx):
            if active[j] and injs[gi] is not None:
                active[j] = False
                ejected_at[gi] = total

        for j, gi in enumerate(batch_idx):
            if active[j]:
                results[gi] = FTResult(
                    n=n,
                    nb=config.nb,
                    a=emb.item(j).data,
                    taus=taus_b[j],
                    timeline=priced.timeline,
                    seconds=priced.seconds,
                    counter=FlopCounter(),
                    iterations=total,
                    recoveries=[],
                    q_report=None,
                    detections=0,
                    checks=checks_done,
                )

    # scalar re-runs: every ejected item restarts from its pristine input
    # on the full resilience ladder, with a fresh injector clone so the
    # complete fault plan replays (recovery semantics unchanged)
    for i in range(b):
        if results[i] is not None:
            continue
        try:
            results[i] = ft_gehrd(
                stack[i].copy(order="F"),
                config,
                injector=_clone(injs[i]),
                workspace=ws,
            )
        except Exception as exc:  # item-level failure stays item-level
            errors[i] = exc

    return BatchResult(
        results=results,
        ejected=sorted(ejected_at),
        ejected_at=ejected_at,
        errors=errors,
        counter=counter,
        seconds=seconds,
        iterations=total,
    )
