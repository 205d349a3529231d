"""Batched trailing-matrix updates: checksum-extended and plain.

Each routine is the stacked mirror of its scalar counterpart:

* :func:`right_update_encoded_batched` /
  :func:`left_update_encoded_batched` mirror
  :mod:`repro.abft.checksums` — the stacked ``[Y; Ychk][V2; Vce]^T``
  product and the FT-GEMM left apply (active-row-window projection,
  ``Vce`` stacked into the checksum rows of ``v_full`` so data and
  checksum rows ride the same apply GEMM);
* :func:`apply_right_updates_batched` / :func:`apply_left_update_batched`
  mirror :mod:`repro.linalg.gehrd`'s updates;
* :func:`gehd2_batched` is the stacked unblocked clean-up pass
  (DGEHD2): per column, one batched reflector generation plus the
  right/left similarity applications as stacked outer-product updates.

Every apply product goes through the scalar kernels' own
:meth:`~repro.perf.workspace.Workspace.product`, stacked: one
``np.matmul`` over the whole stack writes each item's product with
exactly the scalar layout (the same per-item GEMM), and one fold
subtracts it from the F-contiguous item slices.  The batched fast path
therefore stays byte-compatible with the scalar drivers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.perf.workspace import Workspace

from repro.batch.panel import PanelFactorsBatch, larfg_batched
from repro.batch.stack import EncodedMatrixBatch, stack_buf


# ---------------------------------------------------------------------------
# checksum-extended updates (stacked repro.abft.checksums)
# ---------------------------------------------------------------------------


def v_col_checksums_batched(
    pf: PanelFactorsBatch,
    emb: EncodedMatrixBatch,
    *,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Stacked ``Vchk = W^T V`` — (B, k, ib) weighted column checksums
    of every item's Householder block."""
    b, m = pf.v.shape[0], pf.v.shape[1]
    if emb.k == 1:
        if counter is not None:
            counter.add("abft_maintain", F.batched_flops(b, F.gemv_flops(pf.ib, m)))
        return np.matmul(np.ones(m, dtype=pf.v.dtype)[None, None, :], pf.v)
    w = emb.weights[:, pf.p + 1 : pf.p + 1 + m]
    if counter is not None:
        counter.add("abft_maintain", F.batched_flops(b, emb.k * F.gemv_flops(pf.ib, m)))
    return np.matmul(w[None], pf.v)


def y_col_checksums_batched(
    emb: EncodedMatrixBatch,
    pf: PanelFactorsBatch,
    *,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Stacked ``Ychk = W^T Y`` (B, k, ib) from the maintained checksums
    (the independent-channel property of the scalar kernel holds per
    item)."""
    p, n = pf.p, emb.n
    w = np.matmul(emb.ext[:, n:, p + 1 : n], pf.v)
    w = np.matmul(w, pf.t)
    if counter is not None:
        counter.add(
            "abft_maintain",
            F.batched_flops(
                emb.b, emb.k * (F.gemv_flops(pf.ib, n - p - 1) + F.trmv_flops(pf.ib))
            ),
        )
    return w


def _check_blocks(
    emb: EncodedMatrixBatch, pf: PanelFactorsBatch, vce: np.ndarray, ychk
) -> None:
    if vce.shape != (emb.b, emb.k, pf.ib):
        raise ShapeError(
            f"Vce stack must be ({emb.b}, {emb.k}, {pf.ib}), got {vce.shape}"
        )
    if ychk is not None and ychk.shape != (emb.b, emb.k, pf.ib):
        raise ShapeError(
            f"Ychk stack must be ({emb.b}, {emb.k}, {pf.ib}), got {ychk.shape}"
        )


def right_update_encoded_batched(
    emb: EncodedMatrixBatch,
    pf: PanelFactorsBatch,
    vce: np.ndarray,
    ychk: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> None:
    """Stacked checksum-extended right update (Algorithm 3 lines 8+10),
    mirroring the scalar kernel: one stacked
    ``ext[:, :, p+ib:] -= [Y; Ychk] [V2; Vce]^T`` plus the in-panel
    top-rows correction.  The (k x k) corners absorb ``Ychk Vce^T`` —
    scratch by contract, as in the scalar storage."""
    n, p, ib, k, b = emb.n, pf.p, pf.ib, emb.k, emb.b
    _check_blocks(emb, pf, vce, ychk)
    if counter is not None:
        # mirrors the scalar kernel's FT-GEMM accounting: checksum
        # columns/rows are operand extensions of the apply GEMM.
        counter.add("right_update", F.batched_flops(b, F.gemm_flops(n, n - p - ib, ib)))
        counter.add("abft_maintain", F.batched_flops(b, F.gemm_flops(n, k, ib)))
        if ib > 1:
            counter.add(
                "right_update", F.batched_flops(b, F.trmm_flops(p + 1, ib - 1, False))
            )
        counter.add(
            "abft_maintain", F.batched_flops(b, F.abft_fused_rows_flops(k, n - p - ib, ib))
        )

    nt = n - p - ib
    dt = emb.ext.dtype
    ws = workspace or Workspace()
    yce = stack_buf(ws, "bupd.yce", b, n + k, ib, dtype=dt)
    yce[:, :n, :] = pf.y
    yce[:, n:, :] = ychk
    v2ce = stack_buf(ws, "bupd.v2ce", b, nt + k, ib, dtype=dt)
    v2ce[:, :nt, :] = pf.v[:, ib - 1 :, :]
    v2ce[:, nt:, :] = vce
    emb.ext[:, :, p + ib : n + k] -= ws.product(yce, v2ce.transpose(0, 2, 1))
    if ib > 1:
        emb.ext[:, 0 : p + 1, p + 1 : p + ib] -= ws.product(
            pf.y[:, 0 : p + 1, : ib - 1], pf.v[:, : ib - 1, : ib - 1].transpose(0, 2, 1)
        )


def left_update_encoded_batched(
    emb: EncodedMatrixBatch,
    pf: PanelFactorsBatch,
    vce: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> None:
    """Stacked checksum-extended left update (Algorithm 3 line 11) in
    the FT-GEMM form of the scalar kernel: the projection
    ``W = T^T (V^T C)`` runs on the active row window ``[p+1, n)`` (the
    reference operands), then ``Vce`` is written into the checksum rows
    of ``v_full`` so the single apply product updates data rows and
    checksum rows together — zero separate checksum-row matmuls.  The
    (k x k) corners absorb the ``Vce W`` spill over the checksum columns
    (scratch by contract); ``v_full``'s checksum rows are zeroed again
    before returning."""
    n, p, ib, k, b = emb.n, pf.p, pf.ib, emb.k, emb.b
    _check_blocks(emb, pf, vce, None)
    if counter is not None:
        m = n - p - 1
        ncols = n + k - (p + ib)
        counter.add(
            "left_update",
            F.batched_flops(
                b,
                F.gemm_flops(ib, ncols, m)
                + F.trmm_flops(ib, ncols, True)
                + F.gemm_flops(m, ncols, ib),
            ),
        )
        counter.add(
            "abft_maintain", F.batched_flops(b, F.abft_fused_rows_flops(k, ncols, ib))
        )

    ncf = n + k - (p + ib)
    dt = emb.ext.dtype
    ws = workspace or Workspace()
    # per-item C-ordered intermediates mirror the scalar kernel's buffer
    # order — the projection chain must see the reference's exact BLAS
    # dispatch to keep the batched bytes equal to the scalar ones
    w1 = ws.buf("bupd.w1c", (b, ib, ncf), order="C", dtype=dt)
    w2 = ws.buf("bupd.w2c", (b, ib, ncf), order="C", dtype=dt)
    np.matmul(pf.v.transpose(0, 2, 1), emb.ext[:, p + 1 : n, p + ib : n + k], out=w1)
    np.matmul(pf.t.transpose(0, 2, 1), w1, out=w2)
    pf.v_full[:, n:, :] = vce
    emb.ext[:, p + 1 :, p + ib : n + k] -= ws.product(pf.v_full[:, p + 1 :], w2)
    pf.v_full[:, n:, :] = 0.0


# ---------------------------------------------------------------------------
# plain updates (stacked repro.linalg.gehrd)
# ---------------------------------------------------------------------------


def apply_right_updates_batched(
    a: np.ndarray,
    pf: PanelFactorsBatch,
    n: int,
    *,
    counter: FlopCounter | None = None,
    category: str = "right_update",
    workspace: Workspace | None = None,
) -> None:
    """Stacked mirror of :func:`repro.linalg.gehrd.apply_right_updates`:
    trailing columns plus the in-panel top rows."""
    p, ib, b = pf.p, pf.ib, a.shape[0]
    ws = workspace or Workspace()
    if p + ib < n:
        a[:, 0:n, p + ib : n] -= ws.product(pf.y, pf.v[:, ib - 1 :, :].transpose(0, 2, 1))
        if counter is not None:
            counter.add(category, F.batched_flops(b, F.gemm_flops(n, n - p - ib, ib)))
    if ib > 1 and p + 1 > 0:
        a[:, 0 : p + 1, p + 1 : p + ib] -= ws.product(
            pf.y[:, 0 : p + 1, : ib - 1], pf.v[:, : ib - 1, : ib - 1].transpose(0, 2, 1)
        )
        if counter is not None:
            counter.add(
                category,
                F.batched_flops(b, F.trmm_flops(p + 1, ib - 1, False) + (p + 1) * (ib - 1)),
            )


def apply_left_update_batched(
    a: np.ndarray,
    pf: PanelFactorsBatch,
    n: int,
    ncols: int | None = None,
    *,
    counter: FlopCounter | None = None,
    category: str = "left_update",
    workspace: Workspace | None = None,
) -> None:
    """Stacked mirror of :func:`repro.linalg.gehrd.apply_left_update`:
    projection and apply both run on the active row window ``[p+1, n)``."""
    p, ib, b = pf.p, pf.ib, a.shape[0]
    ncols = a.shape[2] if ncols is None else ncols
    if p + ib >= ncols:
        return
    ws = workspace or Workspace()
    c = a[:, p + 1 : n, p + ib : ncols]
    ncf = ncols - (p + ib)
    w1 = stack_buf(ws, "bupd.w1", b, ib, ncf, dtype=a.dtype)
    w2 = stack_buf(ws, "bupd.w2", b, ib, ncf, dtype=a.dtype)
    np.matmul(pf.v.transpose(0, 2, 1), c, out=w1)
    np.matmul(pf.t.transpose(0, 2, 1), w1, out=w2)
    c -= ws.product(pf.v, w2)
    if counter is not None:
        m = n - p - 1
        counter.add(
            category,
            F.batched_flops(
                b,
                F.gemm_flops(ib, ncf, m)
                + F.trmm_flops(ib, ncf, True)
                + F.gemm_flops(m, ncf, ib),
            ),
        )


def _masked_subtract(c: np.ndarray, upd: np.ndarray, active: np.ndarray) -> None:
    """``c -= upd`` restricted to active items.

    The scalar ``larf_*`` kernels skip the whole update when ``tau == 0``
    (the identity reflector); subtracting an exact-zero product is
    *almost* the same but can flip the sign of a -0.0 entry, so the
    masked form preserves byte-parity for zero-norm columns.
    """
    if active.all():
        c -= upd
    else:
        np.subtract(c, upd, out=c, where=active[:, None, None])


def gehd2_batched(
    a: np.ndarray,
    ilo: int = 0,
    ihi: int | None = None,
    *,
    taus_out: np.ndarray | None = None,
    counter: FlopCounter | None = None,
    category: str = "gehd2",
) -> np.ndarray:
    """Stacked unblocked Hessenberg reduction (mirrors
    :func:`repro.linalg.gehd2.gehd2` column for column).

    Reduces columns ``ilo .. ihi-2`` of every item in place and returns
    the (B, ncols-1) tau stack.
    """
    b = a.shape[0]
    n = a.shape[1] if ihi is None else ihi
    if ihi is None:
        if a.shape[1] != a.shape[2]:
            raise ShapeError(f"gehd2_batched needs square items, got {a.shape}")
    if not (0 <= ilo <= n <= a.shape[1]):
        raise ShapeError(f"invalid range ilo={ilo}, ihi={n} for stack {a.shape}")

    ncols = a.shape[2]
    taus = (
        taus_out
        if taus_out is not None
        else np.zeros((b, max(ncols - 1, 0)), dtype=a.dtype)
    )
    for i in range(ilo, n - 1):
        beta, tau = larfg_batched(
            a[:, i + 1, i], a[:, i + 2 : n, i], counter=counter, category=category
        )
        active = tau != 0.0
        a[:, i + 1, i] = 1.0
        u = a[:, i + 1 : n, i]  # (B, m) explicit reflector vectors
        # right similarity: C <- C - tau (C u) u^T  over rows 0..n
        c = a[:, 0:n, i + 1 : n]
        w = np.matmul(c, u[:, :, None])  # (B, n, 1)
        _masked_subtract(c, tau[:, None, None] * (w * u[:, None, :]), active)
        # left similarity: C <- C - tau u (u^T C)  over rows i+1..n
        c2 = a[:, i + 1 : n, i + 1 : ncols]
        w2 = np.matmul(u[:, None, :], c2)  # (B, 1, m2)
        _masked_subtract(c2, tau[:, None, None] * (u[:, :, None] * w2), active)
        a[:, i + 1, i] = beta
        taus[:, i] = tau
        if counter is not None:
            # the scalar larf kernels count nothing for identity
            # reflectors (tau == 0), so scale by the active item count
            counter.add(
                category,
                F.batched_flops(
                    int(active.sum()),
                    4 * c.shape[1] * c.shape[2] + 4 * c2.shape[1] * c2.shape[2],
                ),
            )
    return taus
