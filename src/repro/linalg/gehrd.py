"""Blocked Hessenberg reduction (DGEHRD — the paper's Algorithm 1).

Structure of each iteration (Fig. 1 of the paper):

1. ``lahr2``  — factorize the current ``nb``-wide panel, producing V, T
   and ``Y = Ã V T`` (panel factorization; the CPU side of the hybrid
   algorithm).
2. right update to the trailing columns: ``A[:, p+ib:] −= Y V₂ᵀ``
   (V comes from the panel factors, which hold the reflectors' unit
   entries explicitly, so the packed storage is never read).
3. right update to the top-left block M's in-panel columns:
   ``A[0:p+1, p+1:p+ib] −= Y_top V₁ᵀ``.
4. left update: ``A[p+1:n, p+ib:] ← (I − V Tᵀ Vᵀ) A[p+1:n, p+ib:]``
   (the ``larfb`` form: one projection, one apply GEMM).

The pure-CPU driver below is the numerical reference; the hybrid and
fault-tolerant drivers in :mod:`repro.core` re-orchestrate these exact
steps across simulated devices and checksum-extended operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.linalg.gehd2 import gehd2
from repro.linalg.lahr2 import PanelFactors, lahr2
from repro.perf.workspace import Workspace

DEFAULT_NB = 32
#: LAPACK-style crossover: switch to the unblocked algorithm when the
#: remaining active columns drop below this bound.
DEFAULT_NX = DEFAULT_NB


@dataclass
class HessenbergFactorization:
    """Result of a Hessenberg reduction.

    ``a`` holds H in its upper-Hessenberg part and the Householder vectors
    below the first subdiagonal (LAPACK packed storage); ``taus`` are the
    reflector scales; ``panels`` records the per-panel WY factors (used by
    tests and by the analysis layer).
    """

    a: np.ndarray
    taus: np.ndarray
    nb: int
    panels: list[PanelFactors] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def h(self) -> np.ndarray:
        """The upper-Hessenberg factor H extracted from packed storage."""
        return np.triu(self.a, -1)


def apply_right_updates(
    a: np.ndarray,
    pf: PanelFactors,
    n: int,
    *,
    counter: FlopCounter | None = None,
    category: str = "right_update",
    workspace: Workspace | None = None,
) -> None:
    """Apply the panel's right update to the trailing columns and to M.

    This is steps 2+3 above (the paper's Algorithm 2 lines 5 and 7 merged
    for the CPU reference — the hybrid drivers split them across devices).
    Mutates ``a`` in place; scratch comes from *workspace* (a private
    arena when omitted).
    """
    p, ib = pf.p, pf.ib
    ws = workspace or Workspace()
    # trailing columns: A[0:n, p+ib:n] -= Y @ V2ᵀ, V2 = rows ib-1.. of V
    if p + ib < n:
        a[0:n, p + ib : n] -= ws.product(pf.y[0:n, :], pf.v[ib - 1 :, :].T)
        if counter is not None:
            counter.add(category, F.gemm_flops(n, n - p - ib, ib))
    # in-panel top rows: A[0:p+1, p+1:p+ib] -= Y_top[:, :ib-1] @ V1ᵀ
    # (V's upper triangle holds explicit zeros — no np.tril copy needed)
    if ib > 1 and p + 1 > 0:
        a[0 : p + 1, p + 1 : p + ib] -= ws.product(
            pf.y[0 : p + 1, : ib - 1], pf.v[: ib - 1, : ib - 1].T
        )
        if counter is not None:
            counter.add(category, F.trmm_flops(p + 1, ib - 1, False) + (p + 1) * (ib - 1))


def apply_left_update(
    a: np.ndarray,
    pf: PanelFactors,
    n: int,
    ncols: int | None = None,
    *,
    counter: FlopCounter | None = None,
    category: str = "left_update",
    workspace: Workspace | None = None,
) -> None:
    """Apply the panel's left update ``(I − V Tᵀ Vᵀ)`` to the trailing block.

    Covers ``a[p+1 : n, p+ib : ncols]``; mutates ``a`` in place. The
    projection ``W = Tᵀ(VᵀC)`` and the apply ``C −= V W`` both run on
    that active row window only.
    """
    p, ib = pf.p, pf.ib
    ncols = a.shape[1] if ncols is None else ncols
    if p + ib >= ncols:
        return
    ws = workspace or Workspace()
    c = a[p + 1 : n, p + ib : ncols]
    ncf = ncols - (p + ib)
    w1 = ws.buf("upd.w1", (ib, ncf), dtype=a.dtype)
    w2 = ws.buf("upd.w2", (ib, ncf), dtype=a.dtype)
    np.matmul(pf.v.T, c, out=w1)
    np.matmul(pf.t.T, w1, out=w2)
    c -= ws.product(pf.v, w2)
    if counter is not None:
        m = n - p - 1
        counter.add(
            category,
            F.gemm_flops(ib, ncf, m) + F.trmm_flops(ib, ncf, True) + F.gemm_flops(m, ncf, ib),
        )


def gehrd(
    a: np.ndarray,
    *,
    nb: int = DEFAULT_NB,
    nx: int | None = None,
    counter: FlopCounter | None = None,
    keep_panels: bool = False,
) -> HessenbergFactorization:
    """Blocked Hessenberg reduction of the square matrix *a*, in place.

    Parameters
    ----------
    a:
        Square float64 matrix, reduced in place (use ``a.copy(order='F')``
        to preserve the input).
    nb:
        Block (panel) width.
    nx:
        Crossover to the unblocked algorithm (defaults to ``nb``).
    counter:
        Optional flop counter.
    keep_panels:
        Record the per-panel WY factors in the result (costs memory; used
        by analysis code). Each panel then gets a fresh arena — recorded
        factors must outlive the iteration that produced them, which
        pooled buffers do not.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"gehrd needs a square matrix, got {a.shape}")
    n = a.shape[0]
    nx = max(nb, nx if nx is not None else DEFAULT_NX)
    taus = np.zeros(max(n - 1, 0), dtype=a.dtype)
    panels: list[PanelFactors] = []
    ws = Workspace()

    p = 0
    while n - 1 - p > nx:
        ib = min(nb, n - 1 - p)
        if keep_panels:
            ws = Workspace()
        pf = lahr2(a, p, ib, n, counter=counter, workspace=ws)
        taus[p : p + ib] = pf.taus
        apply_right_updates(a, pf, n, counter=counter, workspace=ws)
        apply_left_update(a, pf, n, counter=counter, workspace=ws)

        if keep_panels:
            panels.append(pf)
        p += ib

    # unblocked clean-up of the remaining columns
    gehd2(a, p, n, taus_out=taus, counter=counter)

    return HessenbergFactorization(a=a, taus=taus, nb=nb, panels=panels)
