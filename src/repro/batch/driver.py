"""Batched Hessenberg drivers: ``gehrd_batched`` and ``ft_gehrd_batched``.

The batched engine accelerates the **fault-free fast path only**.  Each
iteration is the stacked panel (:func:`~repro.batch.panel.lahr2_batched`)
followed by the scalar drivers' own kernels on the whole stack: the
plain updates of :mod:`repro.linalg.gehrd`, or the V/Y checksums, the
encoded right and left updates and the segment refresh of
:mod:`repro.abft`.  Detection is one scalar
:class:`~repro.abft.detection.Detector` per item over that item's
:class:`~repro.abft.encoding.EncodedMatrix` view, so an item is ejected
exactly when its own scalar run would detect.  Both drivers reproduce
the scalar drivers byte for byte on clean inputs (golden-tested in
``tests/test_batch_golden.py``); anything that needs the resilience
machinery is handed to the scalar ladder:

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

Clean items share one order-only run's phase record: a clean
``ft_gehrd`` on a matrix records exactly the phases ``ft_gehrd(n,
config)`` records (no detections, no recovery), so ``seconds``/
``timeline`` are identical — one order-only :func:`ft_gehrd` call
records for the whole batch, and reading any item's timeline prices
that record once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.checksums import (
    left_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.abft.detection import Detector
from repro.core.config import FTConfig
from repro.core.ft_hessenberg import ft_gehrd
from repro.core.hybrid_hessenberg import iteration_plan_cached
from repro.core.results import FTResult, PhaseRecord
from repro.errors import ShapeError
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.linalg.flops import FlopCounter
from repro.linalg.gehrd import (
    DEFAULT_NB,
    DEFAULT_NX,
    HessenbergFactorization,
    apply_left_update,
    apply_right_updates,
)
from repro.linalg.verify import one_norm
from repro.perf.workspace import Workspace
from repro.utils.precision import as_lane_matrix

from repro.batch.panel import lahr2_batched
from repro.batch.stack import EncodedMatrixBatch, as_item_f_stack
from repro.batch.updates import gehd2_batched

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
    carry the shared phase ``record``, zero checkpoint traffic and an
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
    #: the fast-path items' shared record (``None`` when no item batched)
    record: PhaseRecord | None = None
    iterations: int = 0

    @property
    def seconds(self) -> float | None:
        """A fast-path item's simulated seconds, priced on read."""
        return None if self.record is None else self.record.timeline().makespan

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
    panel factorizations, the scalar right/left updates on the stack,
    stacked unblocked clean-up below the crossover — and returns per-item
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
        apply_right_updates(a, pf, n, counter=counter, workspace=ws)
        apply_left_update(a, pf, n, counter=counter, workspace=ws)
        p += ib

    gehd2_batched(a, p, n, taus_out=taus, counter=counter)
    return [
        HessenbergFactorization(a=a[i], taus=taus[i], nb=nb) for i in range(b)
    ]


def ft_gehrd_batched(
    a_stack: np.ndarray | list[np.ndarray],
    config: FTConfig | None = None,
    *,
    injectors: list[FaultInjector | None] | None = None,
    workspace: Workspace | None = None,
) -> BatchResult:
    """Fault-tolerant Hessenberg reduction of B stacked matrices.

    Clean items run the stacked Algorithm-3 fast path (batched panel,
    the encoded updates on the stack, per-item detection) and reproduce the
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
    record: PhaseRecord | None = None

    safe = [_batch_safe(inj) for inj in injs]
    batch_idx = [i for i in range(b) if safe[i]]
    for i in range(b):
        if not safe[i]:
            ejected_at[i] = -1  # unbatchable fault plan: scalar from the start

    if batch_idx:
        # one order-only run records for every clean item: a clean run on
        # a matrix records exactly the phases the order-only run records
        record = ft_gehrd(n, config).record
        emb = EncodedMatrixBatch(
            stack[batch_idx], channels=config.channels, counter=counter
        )
        items = [emb.item(j) for j in range(len(batch_idx))]
        detectors = [Detector(config.threshold, one_norm(stack[i])) for i in batch_idx]
        taus_b = np.zeros((len(batch_idx), max(n - 1, 0)), dtype=emb.ext.dtype)
        clones = [_clone(injs[i]) for i in batch_idx]
        active = np.ones(len(batch_idx), dtype=bool)

        for it, (p, ib) in enumerate(plan):
            for j, clone in enumerate(clones):
                if active[j] and clone is not None:
                    clone.apply_phase(it, "boundary", InjectionTargets(em=items[j]))
            pf = lahr2_batched(emb.ext, p, ib, n, counter=counter, workspace=ws)
            vce = v_col_checksums(pf, emb, counter=counter)
            ychk = y_col_checksums(emb, pf, counter=counter)
            right_update_encoded(emb, pf, vce, ychk, counter=counter, workspace=ws)
            left_update_encoded(emb, pf, vce, counter=counter, workspace=ws)
            emb.refresh_finished_segment(p, ib, counter=counter)
            taus_b[:, p : p + ib] = pf.taus

            for j in np.flatnonzero(active):
                if detectors[j].check(items[j], counter=counter):
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
                    a=items[j].data,
                    taus=taus_b[j],
                    record=record,
                    counter=FlopCounter(),
                    iterations=total,
                    recoveries=[],
                    q_report=None,
                    detections=0,
                    checks=total,
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
        record=record,
        iterations=total,
    )
