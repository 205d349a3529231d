"""Eigenvalues of an upper-Hessenberg matrix — the Francis implicit
double-shift QR iteration with deflation.

This is the "Hessenberg QR algorithm" the paper's §III names as the
consumer of the reduction (Golub & Van Loan §7.5): once ``A = Q H Qᵀ``,
the eigenvalues of A are those of H, computed here by bulge-chasing
double-shift sweeps (:func:`repro.eigen.schur.qr_outer_step`, without
the Schur vectors). Implemented from scratch on NumPy; the complex
conjugate pairs of a real matrix come out of the final 2x2 blocks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.eigen.schur import _eig2x2, _work_dtype, qr_outer_step
from repro.linalg.verify import hessenberg_defect
from repro.utils.precision import lane_scale


def hessenberg_eigvals(
    h: np.ndarray,
    *,
    max_sweeps_per_eig: int = 30,
    check_input: bool = True,
) -> np.ndarray:
    """Eigenvalues of the upper-Hessenberg matrix *h* (complex array).

    Parameters
    ----------
    h:
        Upper-Hessenberg matrix; a working copy is taken.
    max_sweeps_per_eig:
        Iteration budget per eigenvalue (LAPACK's classic 30).
    check_input:
        Verify the Hessenberg structure first.

    Raises
    ------
    ConvergenceError
        If a deflation stalls beyond the sweep budget.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"hessenberg_eigvals needs a square matrix, got {h.shape}")
    n = h.shape[0]
    if n == 0:
        return np.zeros(0, dtype=complex)
    dt = _work_dtype(h)
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if check_input and hessenberg_defect(h) > 1e-12 * lane_scale(dt) * max(scale, 1.0):
        raise ShapeError("input is not upper Hessenberg")
    hh = np.array(h, dtype=dt, order="F", copy=True)
    eigs: list[complex] = []
    eps = float(np.finfo(dt).eps)

    hi = n - 1  # active block ends at hh[hi, hi]
    budget = max_sweeps_per_eig * n + 10
    stalls = 0
    total = 0
    while hi >= 0:
        total += 1
        if total > budget:
            raise ConvergenceError("QR iteration exceeded its global sweep budget")
        new_hi, stalls = qr_outer_step(
            hh, None, hi, stalls, scale=scale, eps=eps, max_sweeps_per_eig=max_sweeps_per_eig
        )
        if new_hi == hi - 1:  # a 1x1 block deflated
            eigs.append(complex(hh[hi, hi]))
        elif new_hi == hi - 2:  # a 2x2 block deflated
            eigs.extend(_eig2x2(hh[hi - 1, hi - 1], hh[hi - 1, hi], hh[hi, hi - 1], hh[hi, hi]))
        hi = new_hi

    return np.array(eigs[::-1], dtype=complex)


def eigvals_via_hessenberg(a: np.ndarray, *, nb: int = 32) -> np.ndarray:
    """Eigenvalues of a general real matrix through our full pipeline:
    blocked Hessenberg reduction then Francis QR. Runs on the input's
    precision lane."""
    from repro.linalg.gehrd import gehrd
    from repro.linalg.verify import extract_hessenberg

    work = np.array(a, dtype=_work_dtype(a), order="F", copy=True)
    gehrd(work, nb=nb)
    h = extract_hessenberg(work)
    return hessenberg_eigvals(h, check_input=False)
