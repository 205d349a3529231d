"""Backend whole-stack lane: ``gehrd_stack`` / ``ft_gehrd_stack``.

The non-NumPy twin of :mod:`repro.batch.driver`. Where the stacked
NumPy engine mirrors the scalar drivers byte for byte, this lane runs
the **functional** whole-stack kernels of :mod:`repro.backend.kernels`
(masked Householder sweep over a ``(B, m, m)`` stack, jit-compiled once
per shape key) and promises parity within rounding (``≤ c·n·eps``),
not byte-identity — the arithmetic is legitimately reassociated.

The resilience contract is the batched engine's, unchanged:

* the sweep runs in **panel-iteration chunks** (the scalar driver's
  ``(p, ib)`` plan), with boundary faults applied and Σ-detection run
  host-side between chunks — detection touches only the O(B·n)
  checksum banks, never the data block;
* an item that trips detection is ejected and re-run from its pristine
  input on the scalar NumPy :func:`~repro.core.ft_hessenberg.ft_gehrd`
  resilience ladder with a fresh injector clone;
* any item carrying a fault plan finishes on the scalar ladder even if
  nothing tripped, and unbatchable plans pre-eject at ``-1`` — a fault
  can never silently ride the backend fast path;
* clean items share one order-only pricing run.

Unit-weight checksums only: the lane accepts ``channels=1`` configs and
raises otherwise (the serve layer routes ``channels=2`` jobs to the
NumPy engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.detection import checksum_gap_and_threshold
from repro.backend import Backend, get_backend
from repro.backend.kernels import (
    checksum_banks,
    encode_stack,
    get_chunk_kernel,
    identity_stack,
)
from repro.batch.driver import _batch_safe, _clone
from repro.core.config import FTConfig
from repro.core.ft_hessenberg import ft_gehrd
from repro.core.hybrid_hessenberg import iteration_plan_cached
from repro.core.results import FTResult
from repro.errors import ShapeError
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.linalg.gehrd import DEFAULT_NB
from repro.linalg.verify import one_norm
from repro.utils.precision import as_lane_matrix


def _as_c_stack(a_stack) -> np.ndarray:
    """Host ``(B, n, n)`` C-ordered stack (batched matmul layout)."""
    if isinstance(a_stack, np.ndarray) and a_stack.ndim == 3:
        arr = as_lane_matrix(a_stack)
    else:
        items = [as_lane_matrix(m) for m in a_stack]
        arr = np.stack([np.asarray(m) for m in items])
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"backend lane needs a (B, n, n) stack, got {arr.shape}")
    return np.ascontiguousarray(arr)


@dataclass
class BackendStackResult:
    """Outcome of one :func:`ft_gehrd_stack` call.

    Fast-path items carry formed factors (``h[i]``, ``q[i]`` — the
    functional lane produces H and Q directly, there is no packed
    reflector storage) plus the shared priced timeline; ejected items
    carry the scalar re-run's :class:`~repro.core.results.FTResult` in
    ``scalar_results[i]`` with its own recovery accounting.
    """

    backend: str
    h: list[np.ndarray | None]
    q: list[np.ndarray | None]
    residuals: list[float | None]
    scalar_results: dict[int, FTResult] = field(default_factory=dict)
    ejected: list[int] = field(default_factory=list)
    #: -1 = pre-ejected (unbatchable plan), ``iterations`` = escorted at
    #: end of sweep, otherwise the chunk whose detection tripped.
    ejected_at: dict[int, int] = field(default_factory=dict)
    errors: dict[int, BaseException] = field(default_factory=dict)
    seconds: float | None = None
    iterations: int = 0
    checks: int = 0
    #: Σ-test trips observed *in the backend lane* (each one ejects).
    lane_detections: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.h)

    @property
    def fast_path(self) -> int:
        return len(self.h) - len(self.ejected)


def gehrd_stack(
    a_stack,
    *,
    backend: Backend | str | None = None,
    nb: int = DEFAULT_NB,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Plain Hessenberg reduction of a stack on a backend: ``(hs, qs)``.

    One jit-compiled masked sweep over the whole stack; returns per-item
    host-NumPy ``H`` (upper Hessenberg, explicitly zeroed below the
    first subdiagonal) and orthogonal ``Q`` with ``A ≈ Q H Qᵀ``.
    *nb* only sets the chunking granularity (numerics are unblocked).
    """
    bk = backend if isinstance(backend, Backend) else get_backend(backend)
    stack = _as_c_stack(a_stack)
    b, n = stack.shape[0], stack.shape[1]
    a = bk.asarray(stack)
    q = identity_stack(bk, b, n, stack.dtype)
    kern = get_chunk_kernel(bk, b, n, encoded=False, dtype=stack.dtype)
    for p, ib in iteration_plan_cached(n, max(int(nb), 1)):
        a, q = kern(a, q, p, p + ib)
    bk.block_until_ready(a)
    hs_dev = bk.to_numpy(a)
    qs_dev = bk.to_numpy(q)
    hs = [np.triu(hs_dev[i], -1) for i in range(b)]
    qs = [np.asarray(qs_dev[i]) for i in range(b)]
    return hs, qs


def _apply_boundary_faults(
    bk: Backend, ext, clones, batch_idx, active, it: int, n: int
):
    """Fire iteration-*it* boundary faults host-side, write items back.

    Only items with due faults round-trip to the host; everything else
    stays on the device untouched.
    """
    for j, gi in enumerate(batch_idx):
        inj = clones[j]
        if not active[j] or inj is None:
            continue
        due = [f for f in inj.pending(it) if f.phase == "boundary"]
        if not due:
            continue
        host_ext = np.asarray(bk.to_numpy(ext[j]))
        inj.apply_phase(it, "boundary", InjectionTargets(ext=host_ext, n=n, k=1))
        ext = bk.at_set(ext, (j,), bk.asarray(host_ext))
    return ext


def ft_gehrd_stack(
    a_stack,
    config: FTConfig | None = None,
    *,
    backend: Backend | str | None = None,
    injectors: list[FaultInjector | None] | None = None,
) -> BackendStackResult:
    """Fault-tolerant whole-stack reduction on a backend.

    See the module docstring for the full contract; the result mirrors
    :class:`repro.batch.driver.BatchResult` ejection bookkeeping.
    """
    bk = backend if isinstance(backend, Backend) else get_backend(backend)
    config = config or FTConfig()
    if config.channels != 1:
        raise ShapeError(
            "the backend lane maintains unit-weight checksums only "
            f"(channels=1); got channels={config.channels} — "
            "multi-channel jobs run on the NumPy engine"
        )
    stack = _as_c_stack(a_stack)
    b, n = stack.shape[0], stack.shape[1]
    config.validate(n)
    injs: list[FaultInjector | None] = (
        list(injectors) if injectors is not None else [None] * b
    )
    if len(injs) != b:
        raise ShapeError(f"got {len(injs)} injectors for a batch of {b}")

    plan = iteration_plan_cached(n, config.nb)
    total = len(plan)
    hs: list[np.ndarray | None] = [None] * b
    qs: list[np.ndarray | None] = [None] * b
    ejected_at: dict[int, int] = {}
    errors: dict[int, BaseException] = {}
    scalar_results: dict[int, FTResult] = {}
    seconds: float | None = None
    checks_done = 0
    lane_detections = 0

    safe = [_batch_safe(inj) for inj in injs]
    batch_idx = [i for i in range(b) if safe[i]]
    for i in range(b):
        if not safe[i]:
            ejected_at[i] = -1

    if batch_idx:
        # one order-only run prices every clean item (same trick as the
        # NumPy batched engine: a clean run on a matrix schedules exactly
        # the ops the order-only run prices)
        priced = ft_gehrd(n, config)
        seconds = priced.seconds
        norms = np.array(
            [one_norm(stack[i]) for i in batch_idx]
        )
        sub = stack[batch_idx]
        ext = encode_stack(bk, sub)
        q = identity_stack(bk, len(batch_idx), n, stack.dtype)
        kern = get_chunk_kernel(bk, len(batch_idx), n, encoded=True, dtype=stack.dtype)
        clones = [_clone(injs[i]) for i in batch_idx]
        active = np.ones(len(batch_idx), dtype=bool)

        for it, (p, ib) in enumerate(plan):
            ext = _apply_boundary_faults(bk, ext, clones, batch_idx, active, it, n)
            ext, q = kern(ext, q, p, p + ib)

            if (it % config.detect_every == 0) or (it == total - 1):
                checks_done += 1
                bk.block_until_ready(ext)
                rc, cc = checksum_banks(bk, ext)
                for j in np.flatnonzero(active):
                    gap, tol, finite = checksum_gap_and_threshold(
                        config.threshold, n, float(norms[j]), rc[j], cc[j],
                        dtype=stack.dtype,
                    )
                    if not finite or gap > tol:
                        active[j] = False
                        ejected_at[batch_idx[j]] = it
                        lane_detections += 1

        # a fault plan that never tripped the Σ test still finishes on
        # the scalar driver — no silent rides on the fast path
        for j, gi in enumerate(batch_idx):
            if active[j] and injs[gi] is not None:
                active[j] = False
                ejected_at[gi] = total

        bk.block_until_ready(ext)
        h_host = bk.to_numpy(ext[:, :n, :n])
        q_host = bk.to_numpy(q)
        for j, gi in enumerate(batch_idx):
            if active[j]:
                hs[gi] = np.triu(np.asarray(h_host[j]), -1)
                qs[gi] = np.asarray(q_host[j])

    # scalar re-runs: every ejected item restarts from its pristine
    # input on the full NumPy resilience ladder with a fresh clone
    for i in range(b):
        if hs[i] is not None:
            continue
        try:
            res = ft_gehrd(
                stack[i].copy(order="F"), config, injector=_clone(injs[i])
            )
        except Exception as exc:  # item-level failure stays item-level
            errors[i] = exc
            continue
        from repro.linalg import extract_hessenberg, orghr

        scalar_results[i] = res
        hs[i] = extract_hessenberg(res.a)
        qs[i] = orghr(res.a, res.taus)

    residuals: list[float | None] = [None] * b
    from repro.linalg.verify import factorization_residual

    for i in range(b):
        if hs[i] is not None:
            residuals[i] = float(factorization_residual(stack[i], qs[i], hs[i]))

    return BackendStackResult(
        backend=bk.name,
        h=hs,
        q=qs,
        residuals=residuals,
        scalar_results=scalar_results,
        ejected=sorted(ejected_at),
        ejected_at=ejected_at,
        errors=errors,
        seconds=seconds,
        iterations=total,
        checks=checks_done,
        lane_detections=lane_detections,
    )
