"""Eigenvectors via inverse iteration on the Hessenberg form.

Completes the dense eigensolver: after ``A = Q H Qᵀ`` and eigenvalues
from the Francis iteration, each eigenvector comes from one or two
inverse-iteration steps ``(H − λI) x_{k+1} = x_k`` — and because H is
Hessenberg, each solve is O(n²) through a Givens/elimination pass on the
single subdiagonal (the classic Hessenberg LU with partial pivoting,
itself a reusable substrate piece).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.linalg.verify import hessenberg_defect
from repro.utils.precision import lane_scale


def hessenberg_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``H x = b`` for upper-Hessenberg H in O(n²).

    Gaussian elimination with partial pivoting needs to consider only
    the one subdiagonal entry per column. Works in whatever dtype the
    operands promote to (the eigenvector path passes complex data).
    Near-singular systems return large solutions rather than raising —
    exactly what inverse iteration wants.
    """
    n = h.shape[0]
    if h.shape != (n, n) or b.shape != (n,):
        raise ShapeError(f"hessenberg_solve: H {h.shape}, b {b.shape}")
    u = h.astype(np.result_type(h.dtype, b.dtype, np.float64), copy=True)
    x = b.astype(u.dtype, copy=True)
    tiny = np.finfo(np.float64).tiny
    # forward elimination over the single subdiagonal
    for k in range(n - 1):
        if abs(u[k + 1, k]) > abs(u[k, k]):
            u[[k, k + 1], k:] = u[[k + 1, k], k:]
            x[[k, k + 1]] = x[[k + 1, k]]
        piv = u[k, k]
        if piv == 0:
            piv = u[k, k] = tiny
        m = u[k + 1, k] / piv
        if m != 0:
            u[k + 1, k:] -= m * u[k, k:]
            x[k + 1] -= m * x[k]
    # back substitution
    for k in range(n - 1, -1, -1):
        piv = u[k, k]
        if piv == 0:
            piv = tiny
        if k + 1 < n:
            x[k] -= u[k, k + 1 :] @ x[k + 1 :]
        x[k] = x[k] / piv
    return x


def hessenberg_eigvecs(
    h: np.ndarray,
    eigvals: np.ndarray,
    *,
    iters: int = 2,
    seed: int = 0,
    check_input: bool = True,
) -> np.ndarray:
    """Right eigenvectors of the upper-Hessenberg *h* for the given
    eigenvalues, by inverse iteration; returns an (n, m) complex array of
    unit-norm vectors, column q for ``eigvals[q]``.

    Shift perturbation: λ is nudged by ~eps·‖H‖ so the solve is merely
    ill-conditioned rather than exactly singular (standard practice).
    """
    n = h.shape[0]
    if h.shape != (n, n):
        raise ShapeError(f"hessenberg_eigvecs needs a square matrix, got {h.shape}")
    from repro.eigen.schur import _work_dtype

    dt = _work_dtype(h)
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if check_input and hessenberg_defect(h) > 1e-12 * lane_scale(dt) * max(scale, 1.0):
        raise ShapeError("input is not upper Hessenberg")
    eigvals = np.asarray(eigvals, dtype=complex)
    rng = np.random.default_rng(seed)
    nudge = 64.0 * float(np.finfo(dt).eps) * max(scale, 1.0)

    out = np.zeros((n, eigvals.size), dtype=complex, order="F")
    for q, lam in enumerate(eigvals):
        hm = h.astype(complex) - (lam + nudge) * np.eye(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        for _ in range(max(iters, 1)):
            x = hessenberg_solve(hm, x)
            nrm = np.linalg.norm(x)
            if not np.isfinite(nrm) or nrm == 0.0:
                raise ConvergenceError(f"inverse iteration diverged for λ={lam}")
            x /= nrm
        # canonical phase: largest component real positive
        j = int(np.argmax(np.abs(x)))
        x *= np.conj(x[j]) / abs(x[j])
        out[:, q] = x
    return out


def eig_via_hessenberg(a: np.ndarray, *, nb: int = 32, seed: int = 0):
    """Full eigenpairs of a general real matrix through our pipeline:
    reduction → Francis eigenvalues → inverse-iteration vectors →
    back-transformation. Returns ``(eigvals, eigvecs)`` with
    ``A v_q ≈ λ_q v_q``.
    """
    from repro.eigen.hqr import hessenberg_eigvals
    from repro.eigen.schur import _work_dtype
    from repro.linalg.gehrd import gehrd
    from repro.linalg.orghr import orghr
    from repro.linalg.verify import extract_hessenberg

    work = np.array(a, dtype=_work_dtype(a), order="F", copy=True)
    fac = gehrd(work, nb=nb)
    h = extract_hessenberg(work)
    q = orghr(work, fac.taus)
    lam = hessenberg_eigvals(h, check_input=False)
    xh = hessenberg_eigvecs(h, lam, seed=seed, check_input=False)
    return lam, q @ xh
