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

import math
from dataclasses import dataclass

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
    reflector scales.
    """

    a: np.ndarray
    taus: np.ndarray
    nb: int

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
    arena when omitted). *a* may be a per-item-F ``(B, ...)`` stack with
    stacked factors: every item gets its own matrix's GEMMs.
    """
    p, ib = pf.p, pf.ib
    ws = workspace or Workspace()
    b = math.prod(a.shape[:-2])
    # trailing columns: A[0:n, p+ib:n] -= Y @ V2ᵀ, V2 = rows ib-1.. of V
    if p + ib < n:
        a[..., 0:n, p + ib : n] -= ws.product(
            pf.y[..., 0:n, :], pf.v[..., ib - 1 :, :].swapaxes(-1, -2)
        )
        if counter is not None:
            counter.add(category, b * F.gemm_flops(n, n - p - ib, ib))
    # in-panel top rows: A[0:p+1, p+1:p+ib] -= Y_top[:, :ib-1] @ V1ᵀ
    # (V's upper triangle holds explicit zeros — no np.tril copy needed)
    if ib > 1 and p + 1 > 0:
        a[..., 0 : p + 1, p + 1 : p + ib] -= ws.product(
            pf.y[..., 0 : p + 1, : ib - 1], pf.v[..., : ib - 1, : ib - 1].swapaxes(-1, -2)
        )
        if counter is not None:
            counter.add(
                category, b * (F.trmm_flops(p + 1, ib - 1, False) + (p + 1) * (ib - 1))
            )


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
    that active row window only. *a* may be a per-item-F ``(B, ...)``
    stack with stacked factors, as in :func:`apply_right_updates`.
    """
    p, ib = pf.p, pf.ib
    ncols = a.shape[-1] if ncols is None else ncols
    if p + ib >= ncols:
        return
    ws = workspace or Workspace()
    lead = a.shape[:-2]
    c = a[..., p + 1 : n, p + ib : ncols]
    ncf = ncols - (p + ib)
    w1 = ws.per_item("upd.w1", lead, (ib, ncf), dtype=a.dtype)
    w2 = ws.per_item("upd.w2", lead, (ib, ncf), dtype=a.dtype)
    np.matmul(pf.v.swapaxes(-1, -2), c, out=w1)
    np.matmul(pf.t.swapaxes(-1, -2), w1, out=w2)
    c -= ws.product(pf.v, w2)
    if counter is not None:
        m = n - p - 1
        counter.add(
            category,
            math.prod(lead)
            * (F.gemm_flops(ib, ncf, m) + F.trmm_flops(ib, ncf, True) + F.gemm_flops(m, ncf, ib)),
        )


def gehrd(
    a: np.ndarray,
    *,
    nb: int = DEFAULT_NB,
    nx: int | None = None,
    counter: FlopCounter | None = None,
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
        Crossover to the unblocked algorithm: the blocked loop runs while
        more than ``max(nb, nx)`` columns remain, ``nx`` defaulting to
        :data:`DEFAULT_NX` (so ``max(nb, 32)``).
    counter:
        Optional flop counter.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"gehrd needs a square matrix, got {a.shape}")
    n = a.shape[0]
    nx = max(nb, nx if nx is not None else DEFAULT_NX)
    taus = np.zeros(max(n - 1, 0), dtype=a.dtype)
    ws = Workspace()

    p = 0
    while n - 1 - p > nx:
        ib = min(nb, n - 1 - p)
        pf = lahr2(a, p, ib, n, counter=counter, workspace=ws)
        taus[p : p + ib] = pf.taus
        apply_right_updates(a, pf, n, counter=counter, workspace=ws)
        apply_left_update(a, pf, n, counter=counter, workspace=ws)
        p += ib

    # unblocked clean-up of the remaining columns
    gehd2(a, p, n, taus_out=taus, counter=counter)

    return HessenbergFactorization(a=a, taus=taus, nb=nb)
