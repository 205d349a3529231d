"""Checksum-extended trailing-matrix updates (paper §IV-C/§IV-D),
generalized to k weight channels.

Theorem 1's invariant is maintained by applying each block update to the
checksum-extended operands:

* **right update** — extend the Householder block with its per-channel
  weighted column checksums, ``Vce = [V; WᵀV]`` (with the paper's unit
  channel this is the single row ``eᵀV``): the extra rows make the GEMM
  ``A ← A − Y Vᵀ`` update every row-checksum column consistently, and
  the precomputed ``Ychk = WᵀY = C_chk[:, p+1:] V T`` (two GEMVs per
  channel, Algorithm 3 line 6) updates the column-checksum rows.
* **left update** — the same ``Vce`` block applied through a modified
  ``larfb``: ``Wk = Tᵀ (Vᵀ C)`` is computed from the *data* rows only,
  then ``C ← C − V Wk`` and ``c_rows ← c_rows − (WᵀV) Wk``.

The same weight slice ``W[:, p+1:n] @ V`` serves both sides because V's
rows index exactly the global range ``p+1 .. n-1`` — as columns for the
right update and as rows for the left one.

These routines mutate the :class:`~repro.abft.encoding.EncodedMatrix`
storage in place and are shared by the forward pass and (transposed) by
the reverse-computation pass.

Each update has one implementation. Scratch blocks come from a
:class:`~repro.perf.workspace.Workspace` (a private one when the caller
passes none), and every GEMM is one
:meth:`~repro.perf.workspace.Workspace.product` folded into the
Fortran-ordered extended storage: one ``C ← C − [Y; Ychk] [V₂; Vce]ᵀ``
over the trailing full-column slice for the right update, and one
``C ← C − [V; Vce] (Tᵀ Vᵀ C)`` over the active row window
``[p+1, n+k)`` for the left.

The left update is the full FT-GEMM form: the projection
``W = Tᵀ (Vᵀ C)`` reads the data rows ``[p+1, n)`` only (the
reference's exact operands), and the checksum-row correction
``C_chk ← C_chk − Vce·W`` rides as ``k`` extra operand rows of the
*same* apply GEMM: ``Vce`` is written into the checksum rows of
``v_full`` for the duration of the call, so one product updates data
rows and checksum rows together, with zero separate checksum-row
kernels. Both updates also write the (k × k) corner of the extended
storage; that corner is scratch by contract (see
:class:`~repro.abft.encoding.EncodedMatrix`). Because every operand
equals the reference operand, the kernels reproduce the reference's
data rows and row-checksum columns **bit-for-bit** — the blocks that
determine the driver's outputs, which is what keeps fault-free
``ft_gehrd`` results byte-identical. The column-checksum rows land
within a few ulps of the reference instead: BLAS dispatches a
standalone k-row product through a different kernel than the same rows
riding inside the big apply GEMM, and the thresholded detector plus
the per-segment refresh absorb it — the maintained checksum is an
independent redundancy channel, never a source of data bytes on the
fault-free path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.linalg.lahr2 import PanelFactors
from repro.abft.encoding import EncodedMatrix
from repro.perf.workspace import Workspace


def v_col_checksums(
    pf: PanelFactors,
    em: EncodedMatrix | None = None,
    *,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """``Vchk = WᵀV`` — the (k, ib) weighted column checksums of the
    Householder block (Algorithm 3 line 7; one GEMV per channel).

    With *em* omitted (or single-channel) this is the paper's ``eᵀV`` as
    a (1, ib) block.
    """
    m = pf.v.shape[0]
    if em is None or em.k == 1:
        if counter is not None:
            counter.add("abft_maintain", F.gemv_flops(pf.ib, m))
        return (np.ones(m, dtype=pf.v.dtype) @ pf.v)[None, :]
    w = em.weights[:, pf.p + 1 : pf.p + 1 + m]
    if counter is not None:
        counter.add("abft_maintain", em.k * F.gemv_flops(pf.ib, m))
    return w @ pf.v


def y_col_checksums(
    em: EncodedMatrix, pf: PanelFactors, *, counter: FlopCounter | None = None
) -> np.ndarray:
    """``Ychk = WᵀY`` (k, ib), computed from the *maintained* checksums.

    ``Y = A_pre V T`` so ``WᵀY = (WᵀA_pre) V T = C_chk[:, p+1:N] · V · T``
    (Algorithm 3 line 6; two GEMVs per channel). Using the maintained
    checksums rather than summing Y is what keeps the checksum rows an
    *independent* information channel when the data is corrupted.
    """
    p, n = pf.p, em.n
    w = em.col_checksum_block[:, p + 1 : n] @ pf.v
    w = w @ pf.t
    if counter is not None:
        counter.add(
            "abft_maintain", em.k * (F.gemv_flops(pf.ib, n - p - 1) + F.trmv_flops(pf.ib))
        )
    return w


def _check_blocks(em: EncodedMatrix, pf: PanelFactors, vce: np.ndarray, ychk) -> None:
    if vce.shape != (em.k, pf.ib):
        raise ShapeError(f"Vce block must be ({em.k}, {pf.ib}), got {vce.shape}")
    if ychk is not None and ychk.shape != (em.k, pf.ib):
        raise ShapeError(f"Ychk block must be ({em.k}, {pf.ib}), got {ychk.shape}")


def _fold_right(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    ychk: np.ndarray,
    workspace: Workspace | None,
    fold,
) -> None:
    """``C ← fold(C, [Y; Ychk] [V2; Vce]ᵀ)`` over the trailing full-column
    slice, then the in-panel top rows — *fold* is ``np.subtract`` for the
    forward update and ``np.add`` for its reverse.

    The stacked operands make one GEMM update the trailing data columns,
    the row-checksum columns AND the column-checksum rows together (the
    k x k corner absorbs Ychk·Vceᵀ — scratch by contract).
    """
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    ws = workspace or Workspace()
    nt = n - p - ib
    yce = ws.buf("upd.yce", (n + k, ib), dtype=em.ext.dtype)
    yce[:n, :] = pf.y
    yce[n:, :] = ychk
    v2ce = ws.buf("upd.v2ce", (nt + k, ib), dtype=em.ext.dtype)
    v2ce[:nt, :] = pf.v[ib - 1 :, :]
    v2ce[nt:, :] = vce
    c = em.ext[:, p + ib : n + k]
    fold(c, ws.product(yce, v2ce.T), out=c)
    if ib > 1:
        # V's upper triangle holds explicit zeros, so no np.tril copy
        c = em.ext[0 : p + 1, p + 1 : p + ib]
        fold(c, ws.product(pf.y[0 : p + 1, : ib - 1], pf.v[: ib - 1, : ib - 1].T), out=c)


def right_update_encoded(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    ychk: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> None:
    """Apply the checksum-extended right update (Algorithm 3 lines 8+10).

    Covers, in one pass over the extended storage:

    * trailing data columns ``[p+ib, N)`` for all N rows (the GPU's M- and
      G-updates of the plain hybrid algorithm),
    * every row-checksum column (indices N..N+k-1) via the ``Vce`` rows,
    * the in-panel top rows ``A[0:p+1, p+1:p+ib]`` (the CPU-facing part of
      the M-update),
    * every column-checksum row's trailing entries via ``Ychk``.
    """
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    _check_blocks(em, pf, vce, ychk)
    if counter is not None:
        counter.add("right_update", F.gemm_flops(n, n - p - ib, ib))
        # FT-GEMM accounting: the checksum columns/rows are operand
        # columns/rows of the fused apply GEMM, so they are charged as
        # GEMM extensions (n x k and k x nt rank-ib products), not as
        # separate per-channel GEMVs.  Numerically identical totals:
        # gemm_flops(n, k, ib) == k * gemv_flops(n, ib).
        counter.add("abft_maintain", F.gemm_flops(n, k, ib))
        if ib > 1:
            counter.add("right_update", F.trmm_flops(p + 1, ib - 1, False))
        counter.add("abft_maintain", F.abft_fused_rows_flops(k, n - p - ib, ib))

    _fold_right(em, pf, vce, ychk, workspace, np.subtract)


def left_update_encoded(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> None:
    """Apply the checksum-extended left update (Algorithm 3 line 11).

    ``trail(A)fe ← trail(A)fe − Vce Tᵀ Vᵀ trail(A)``: the reflected rows
    are the data rows ``[p+1, N)``; the checksum columns ride along as
    extra *columns*, and each checksum row receives its ``w_qᵀV``-scaled
    correction.
    """
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    _check_blocks(em, pf, vce, None)
    if counter is not None:
        m = n - p - 1
        ncols = n + k - (p + ib)
        counter.add(
            "left_update",
            F.gemm_flops(ib, ncols, m) + F.trmm_flops(ib, ncols, True) + F.gemm_flops(m, ncols, ib),
        )
        # FT-GEMM accounting: the checksum rows are k extra operand rows
        # of the apply GEMM (see the apply below), charged as a k x ncols
        # rank-ib GEMM extension.  Numerically identical total:
        # gemm_flops(k, ncols, ib) == k * gemv_flops(ncols, ib).
        counter.add("abft_maintain", F.abft_fused_rows_flops(k, ncols, ib))

    ws = workspace or Workspace()
    ncf = n + k - (p + ib)
    # both intermediates are C-ordered: np.matmul writes a C out through
    # the reference's exact BLAS dispatch, whereas an F-ordered out flips
    # the call to a transposed kernel and perturbs last bits
    w1 = ws.buf("upd.w1c", (ib, ncf), order="C", dtype=em.ext.dtype)
    w2 = ws.buf("upd.w2c", (ib, ncf), order="C", dtype=em.ext.dtype)
    np.matmul(pf.v.T, em.ext[p + 1 : n, p + ib : n + k], out=w1)
    np.matmul(pf.t.T, w1, out=w2)
    # the apply stacks [V; Vce] in v_full's rows [p+1, n+k) so ONE GEMM
    # updates data rows and checksum rows together; the (k x k) corner
    # absorbs Vce·W's spill over the checksum columns (scratch by
    # contract), and v_full's checksum rows are zeroed again afterwards
    pf.v_full[n:, :] = vce
    em.ext[p + 1 :, p + ib : n + k] -= ws.product(pf.v_full[p + 1 :], w2)
    pf.v_full[n:, :] = 0.0


def reverse_left_update_encoded(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> None:
    """Undo :func:`left_update_encoded` (paper §IV-C line 14, left half).

    The forward update multiplies by the orthogonal ``Uᵀ = I − V Tᵀ Vᵀ``;
    its inverse is ``U = I − V T Vᵀ`` — same kernel, un-transposed T. The
    checksum-row corrections re-add the forward ``W`` recomputed from the
    recovered data rows.
    """
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    if counter is not None:
        m = n - p - 1
        ncols = n + k - (p + ib)
        counter.add("abft_recover", 2 * F.gemm_flops(ib, ncols, m) + F.gemm_flops(m, ncols, ib))

    ws = workspace or Workspace()
    ncf = n + k - (p + ib)
    c_data = em.ext[p + 1 : n, p + ib : n + k]
    w1 = ws.buf("upd.w1c", (ib, ncf), order="C", dtype=em.ext.dtype)
    w2 = ws.buf("upd.w2c", (ib, ncf), order="C", dtype=em.ext.dtype)
    np.matmul(pf.v.T, c_data, out=w1)
    np.matmul(pf.t, w1, out=w2)
    c_data -= ws.product(pf.v, w2)
    # c_data now equals the pre-left-update state; recompute the forward
    # correction that was applied to the checksum rows (and, as spill, to
    # the k x k corner) and add it back.
    np.matmul(pf.v.T, c_data, out=w1)
    np.matmul(pf.t.T, w1, out=w2)
    em.ext[n:, p + ib : n + k] += ws.product(vce, w2)


def reverse_right_update_encoded(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    ychk: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    workspace: Workspace | None = None,
) -> None:
    """Undo :func:`right_update_encoded` by re-adding the Y products.

    ``Y``, ``V``, ``T`` are still live in their buffers at detection time
    (they are only destroyed by the *next* panel factorization — the
    paper's reverse-computation premise), so the subtracted products can
    be reconstructed exactly.
    """
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    if counter is not None:
        counter.add("abft_recover", F.gemm_flops(n, n - p - ib + k, ib))

    _fold_right(em, pf, vce, ychk, workspace, np.add)

