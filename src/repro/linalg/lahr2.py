"""Panel factorization for the blocked Hessenberg reduction (DLAHR2).

``lahr2`` reduces ``ib`` columns of A starting at column ``p`` so that the
elements below the first subdiagonal of those columns are annihilated,
returning the compact-WY factors ``V`` and ``T`` of the aggregated block
reflector ``U = I - V T Vᵀ`` together with ``Y = Ã V T`` (the product with
the *partially updated* matrix, exactly as LAPACK computes it — this is
the quantity the trailing right update ``A ← A − Y Vᵀ`` consumes).

The routine is a faithful 0-based translation of LAPACK's ``DLAHR2``
(the routine MAGMA's hybrid algorithm calls ``MAGMA_DLAHR2``), operating
in place: on return the Householder vectors are stored below the first
subdiagonal of the panel columns of *a*, the panel's upper-triangular part
holds the corresponding columns of H, and the subdiagonal entry below the
last panel column holds ``ei`` (the β of the last reflector).

Unlike LAPACK's, this implementation builds the dense V block
*incrementally* (one column per reflector) so the per-column left update
is two plain GEMVs against it — no ``np.tril`` triangle materializations
— and every temporary comes from a reusable
:class:`~repro.perf.workspace.Workspace` arena instead of a fresh
allocation. V is kept inside a zero-padded buffer spanning *all* rows of
the storage (``v_full``), so the checksum-extended left update can stack
``Vce`` under V in rows ``n..n+k-1`` and apply both with one GEMM. The
per-column loop does only the BLAS work; its flops are charged once per
call, in closed form (:func:`~repro.linalg.flops.lahr2_flops`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.linalg.householder import larfg
from repro.perf.workspace import Workspace


@dataclass
class PanelFactors:
    """Output of one panel factorization.

    Attributes
    ----------
    p:
        0-based global column index of the first panel column.
    ib:
        Panel width (number of reflectors aggregated).
    v:
        Dense Householder-vector block, shape ``(n - p - 1, ib)``: row ``r``
        corresponds to global row ``p + 1 + r``; the unit entries are
        explicit, entries above them are zero. This is the ``V`` the paper's
        updates (and their checksum extensions ``Vce``) multiply with.
    t:
        ``(ib, ib)`` upper-triangular T of the compact WY form.
    y:
        ``(n, ib)``: ``Y = Ã V T`` over all n active rows.
    taus:
        The ``ib`` reflector scales.
    ei:
        β of the last reflector — the subdiagonal value lahr2 leaves at
        A[p+ib, p+ib-1]. The updates take V's unit entries from ``v``,
        never from the storage.
    v_full:
        The zero-padded V buffer spanning every row of the storage array
        *a* (``v_full[p+1:n] is v``; all other rows are exactly zero).
        The checksum-extended left update stages ``Vce`` in its rows
        ``n..n+k-1`` to apply ``[V; Vce]`` as one operand.
        ``v``/``t``/``y``/``v_full`` are views into the workspace and
        stay valid only until the next panel factorization reuses the
        arena — the same lifetime the paper's reverse-computation
        premise assumes.
    """

    p: int
    ib: int
    v: np.ndarray
    t: np.ndarray
    y: np.ndarray
    taus: np.ndarray
    ei: float
    v_full: np.ndarray | None = None


def lahr2(
    a: np.ndarray,
    p: int,
    ib: int,
    n: int,
    *,
    counter: FlopCounter | None = None,
    category: str = "panel",
    workspace: Workspace | None = None,
) -> PanelFactors:
    """Factorize the panel ``a[:, p : p+ib]`` of the n-active matrix *a*.

    Parameters
    ----------
    a:
        The full matrix (may be larger than ``n x n`` — e.g. the
        checksum-extended matrix of the fault-tolerant algorithm; only
        indices ``< n`` are read or written).
    p:
        0-based first panel column.
    ib:
        Panel width; requires ``p + ib < n`` (there must be at least one
        row below the last reflector's pivot).
    n:
        Active dimension (rows and columns participating in the
        reduction).
    workspace:
        Scratch arena (a private one when omitted). V/T/Y/τ and every
        internal temporary live in its pooled buffers, reused across
        calls; the returned factors are views with panel lifetime — see
        :class:`PanelFactors`.
    """
    if not (0 <= p and p + ib < n <= min(a.shape)):
        raise ShapeError(f"invalid panel: p={p}, ib={ib}, n={n}, A shape {a.shape}")
    if ib < 1:
        raise ShapeError(f"panel width must be >= 1, got {ib}")

    rows = a.shape[0]
    m1 = n - p - 1  # rows of the dense V block
    dt = a.dtype
    ws = workspace or Workspace()
    v_full = ws.buf("lahr2.v_full", (rows, ib), zero=True, dtype=dt)
    y = ws.buf("lahr2.y", (n, ib), dtype=dt)
    t = ws.buf("lahr2.t", (ib, ib), zero=True, dtype=dt)
    taus = ws.vec("lahr2.taus", ib, zero=True, dtype=dt)
    g = ws.vec("lahr2.g", m1, dtype=dt)
    wjs = ws.buf("lahr2.wjs", (ib, 2), dtype=dt)
    # the VᵀvⱼTᵀ projection chain runs through one stacked (ib, 2) block:
    # column 0 holds the raw projection, column 1 the T-scaled result —
    # a single pooled temporary (each column is a contiguous vector).
    wj = wjs[:, 0]
    wj2 = wjs[:, 1]
    v = v_full[p + 1 : n, :]
    # loop-invariant row windows, hoisted out of the per-column hot loop
    arows = a[p + 1 : n]
    ya = y[p + 1 : n]
    ei = 0.0

    for j in range(ib):
        c = p + j  # global column of reflector j
        bcol = arows[:, c]  # rows p+1..n-1 of column c: the pivot is bcol[j]
        if j > 0:
            # the j reflectors so far, shared by both updates and Y/T below
            yprev = ya[:, :j]
            vprev = v[:, :j]
            tprev = t[:j, :j]
            w = wj[:j]
            w2 = wj2[:j]
            # (1) right-update contribution to column c. The needed V-row
            # (global row p+j) is row j-1 of the dense block — identical
            # to the packed storage row, unit entry included (it is still
            # 1.0 in storage at this point).
            np.matmul(yprev, v[j - 1, :j], out=g)
            bcol -= g

            # (2) left update: apply (I - V Tᵀ Vᵀ) to this column. The
            # dense V (explicit units, explicit zeros) turns the
            # triangular/rectangular split of LAPACK into two GEMVs.
            np.matmul(vprev.T, bcol, out=w)
            np.matmul(tprev.T, w, out=w2)
            np.matmul(vprev, w2, out=g)
            bcol -= g
            # restore the subdiagonal entry overwritten by the unit of
            # reflector j-1
            a[p + j, p + j - 1] = ei

        # Generate reflector j annihilating a[p+j+2 : n, c]
        pivot_row = p + j + 1
        ei, tau, _ = larfg(bcol[j], bcol[j + 1 :])
        bcol[j] = 1.0

        vj = bcol[j:]  # full reflector vector (unit entry in place)
        v[j:, j] = vj  # incremental dense V (rows above j are already zero)

        # Y[p+1:n, j] = tau_j * ( A[p+1:n, p+j+1:n] @ vj  -  Y[p+1:n, :j] @ (V2ᵀ vj) )
        ycol = ya[:, j]
        np.matmul(arows[:, pivot_row:n], vj, out=ycol)
        if j > 0:
            np.matmul(vprev[j:].T, vj, out=w)  # tcol
            np.matmul(yprev, w, out=g)
            ycol -= g
            # T[:j, j] = T[:j,:j] @ (-tau_j * tcol)
            np.multiply(w, -tau, out=w2)
            np.matmul(tprev, w2, out=t[:j, j])
        ycol *= tau
        t[j, j] = tau
        taus[j] = tau

    # restore the subdiagonal entry below the last panel column
    a[p + ib, p + ib - 1] = ei

    # Compute Y[0 : p+1, :] — the top rows: Y_top = A_top @ V (split into
    # the unit-lower-trapezoid part and the rectangular remainder), then @ T.
    k = p + 1
    yt = ws.buf("lahr2.ytop", (k, ib), dtype=dt)
    yt2 = ws.buf("lahr2.ytop2", (k, ib), dtype=dt)
    np.matmul(a[0:k, p + 1 : p + 1 + ib], v[:ib, :], out=yt)
    if n > p + 1 + ib:
        np.matmul(a[0:k, p + 1 + ib : n], v[ib:, :], out=yt2)
        yt += yt2
    np.matmul(yt, t, out=yt2)
    y[0:k, :] = yt2
    if counter is not None:
        counter.add(category, F.lahr2_flops(n, p, ib))

    return PanelFactors(
        p=p, ib=ib, v=v, t=t, y=y, taus=taus, ei=float(ei), v_full=v_full
    )
