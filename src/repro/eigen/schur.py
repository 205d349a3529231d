"""Real Schur form of an upper-Hessenberg matrix: ``H = Z T Zᵀ``.

The Francis double-shift bulge-chasing iteration, with the orthogonal
transformations accumulated into Z. T is real quasi-triangular: 1x1
blocks carry real eigenvalues, 2x2 blocks carry complex-conjugate
pairs. Combined with the (FT) Hessenberg reduction this completes the
dense nonsymmetric eigensolver pipeline: ``A = Q H Qᵀ = (Q Z) T (Q Z)ᵀ``.

The outer iteration (deflation scan + one double-shift sweep) lives in
:func:`qr_outer_step` so the eigenvalue-only driver
(:mod:`repro.eigen.hqr`) and the protected driver
(:mod:`repro.eigen.ft_hqr`) run the same sweeps; the protected one
interleaves checkpointing and invariant verification between steps.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.linalg.householder import larfg
from repro.linalg.verify import hessenberg_defect
from repro.utils.precision import LANE_DTYPES, lane_scale


def _work_dtype(a: np.ndarray) -> np.dtype:
    """Working dtype of the Francis iteration for input *a*: float32
    stays on the float32 lane, everything else runs in float64 (the
    same coercion rule as :func:`repro.utils.precision.as_lane_matrix`)."""
    a = np.asarray(a)
    return a.dtype if a.dtype.name in LANE_DTYPES else np.dtype(np.float64)


def _eig2x2(a: float, b: float, c: float, d: float) -> tuple[complex, complex]:
    """Eigenvalues of ``[[a, b], [c, d]]`` (stable quadratic formula)."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr / 4.0 - det
    if disc >= 0.0:
        s = math.sqrt(disc)
        # avoid cancellation: compute the larger root first
        if tr >= 0:
            l1 = tr / 2.0 + s
        else:
            l1 = tr / 2.0 - s
        l2 = det / l1 if l1 != 0.0 else tr / 2.0 - math.copysign(s, tr)
        return complex(l1), complex(l2)
    s = math.sqrt(-disc)
    return complex(tr / 2.0, s), complex(tr / 2.0, -s)


def _left(h: np.ndarray, u: np.ndarray, tau: float, r0: int, c0: int, c1: int) -> None:
    rows = slice(r0, r0 + u.size)
    block = h[rows, c0:c1]
    w = u @ block
    block -= tau * np.outer(u, w)


def _right(h: np.ndarray, u: np.ndarray, tau: float, c0: int, r0: int, r1: int) -> None:
    cols = slice(c0, c0 + u.size)
    block = h[r0:r1, cols]
    w = block @ u
    block -= tau * np.outer(w, u)


def qr_outer_step(
    t: np.ndarray,
    z: np.ndarray | None,
    hi: int,
    stalls: int,
    *,
    scale: float,
    eps: float,
    max_sweeps_per_eig: int = 30,
    shift_hook: Callable[[np.ndarray], None] | None = None,
) -> tuple[int, int]:
    """One outer Francis iteration on the active block ending at *hi*.

    Scans for a deflation from *hi* upward; either deflates (1x1 or 2x2
    block) or runs one double-shift bulge-chasing sweep in place on *t*
    (and accumulates into *z* when it is not None). Returns the updated
    ``(hi, stalls)`` pair — ``stalls`` counts sweeps since the last
    deflation and drives the classic exceptional shift.

    *shift_hook*, when given, receives the 2-vector ``[trace, det]`` of
    the double shift (float64, mutable) right before the bulge seed is
    formed — the fault-injection surface of the protected driver. With
    ``shift_hook=None`` the arithmetic is byte-identical to the
    historical inline loop.

    Raises :class:`ConvergenceError` when a deflation stalls beyond
    *max_sweeps_per_eig* sweeps.
    """
    n = t.shape[0]
    lo = hi
    while lo > 0:
        s = abs(t[lo - 1, lo - 1]) + abs(t[lo, lo])
        if s == 0.0:
            s = scale
        if abs(t[lo, lo - 1]) <= eps * s:
            t[lo, lo - 1] = 0.0
            break
        lo -= 1
    if lo == hi:
        return hi - 1, 0
    if lo == hi - 1:
        return hi - 2, 0

    stalls += 1
    if stalls > max_sweeps_per_eig:
        raise ConvergenceError(f"no deflation after {max_sweeps_per_eig} sweeps")

    if stalls % 10 == 0:
        s1 = abs(t[hi, hi - 1]) + abs(t[hi - 1, hi - 2])
        trace, det = 1.5 * s1, s1 * s1
    else:
        a, b, c, d = t[hi - 1, hi - 1], t[hi - 1, hi], t[hi, hi - 1], t[hi, hi]
        trace, det = a + d, a * d - b * c
    if shift_hook is not None:
        pair = np.array([trace, det], dtype=np.float64)
        shift_hook(pair)
        # back to the working dtype: float64 shift scalars would promote
        # the bulge seed below and silently fork the sub-double lanes'
        # trajectory from the hook-less (and replayed) path
        trace, det = t.dtype.type(pair[0]), t.dtype.type(pair[1])

    h00, h01 = t[lo, lo], t[lo, lo + 1]
    h10, h11 = t[lo + 1, lo], t[lo + 1, lo + 1]
    h21 = t[lo + 2, lo + 1]
    x = h00 * h00 + h01 * h10 - trace * h00 + det
    y = h10 * (h00 + h11 - trace)
    zz = h10 * h21

    for k in range(lo, hi - 1):
        if k > lo:
            x, y = t[k, k - 1], t[k + 1, k - 1]
            zz = t[k + 2, k - 1] if k + 2 <= hi else 0.0
        vec = np.array([y, zz]) if k + 2 <= hi else np.array([y])
        refl = larfg(x, vec)
        u = np.concatenate(([1.0], refl.v))
        tau = refl.tau
        cstart = max(lo, k - 1) if k > lo else lo
        _left(t, u, tau, k, cstart, n)
        rend = min(hi, k + 3)
        _right(t, u, tau, k, 0, rend + 1)
        if z is not None:
            _right(z, u, tau, k, 0, n)  # accumulate: Z ← Z P
        if k > lo:
            t[k + 1 : k + u.size, k - 1] = 0.0

    k = hi - 1
    x, y = t[k, k - 1], t[k + 1, k - 1]
    refl = larfg(x, np.array([y]))
    u = np.concatenate(([1.0], refl.v))
    _left(t, u, refl.tau, k, k - 1, n)
    _right(t, u, refl.tau, k, 0, hi + 1)
    if z is not None:
        _right(z, u, refl.tau, k, 0, n)
    t[k + 1, k - 1] = 0.0
    return hi, stalls


def hessenberg_schur(
    h: np.ndarray,
    *,
    max_sweeps_per_eig: int = 30,
    check_input: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(T, Z)`` with ``H = Z T Zᵀ``, Z orthogonal, T quasi-triangular.

    Parameters mirror :func:`~repro.eigen.hqr.hessenberg_eigvals`; a
    working copy of *h* is taken. The working dtype follows the input's
    precision lane (float32 stays float32, everything else runs in
    float64).

    Raises
    ------
    ConvergenceError
        If a deflation stalls beyond the sweep budget.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"hessenberg_schur needs a square matrix, got {h.shape}")
    n = h.shape[0]
    if n == 0:
        return np.zeros((0, 0), order="F"), np.zeros((0, 0), order="F")
    dt = _work_dtype(h)
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if check_input and hessenberg_defect(h) > 1e-12 * lane_scale(dt) * max(scale, 1.0):
        raise ShapeError("input is not upper Hessenberg")

    t = np.array(h, dtype=dt, order="F", copy=True)
    z = np.eye(n, dtype=dt, order="F")
    eps = float(np.finfo(dt).eps)

    hi = n - 1
    budget = max_sweeps_per_eig * n + 10
    stalls = 0
    total = 0
    while hi > 0:
        total += 1
        if total > budget:
            raise ConvergenceError("Schur iteration exceeded its global sweep budget")
        hi, stalls = qr_outer_step(
            t, z, hi, stalls, scale=scale, eps=eps, max_sweeps_per_eig=max_sweeps_per_eig
        )

    _standardize_blocks(t, z)
    return t, z


def _standardize_blocks(t: np.ndarray, z: np.ndarray | None) -> None:
    """Split 2x2 diagonal blocks with *real* eigenvalues into 1x1 blocks
    (LAPACK's DLANV2 standardization): only genuine complex pairs keep
    their 2x2 blocks in the canonical real Schur form."""
    n = t.shape[0]
    eps = float(np.finfo(t.dtype).eps) if t.dtype.kind == "f" else float(np.finfo(np.float64).eps)
    i = 0
    while i < n - 1:
        if t[i + 1, i] == 0.0:
            i += 1
            continue
        a, b = t[i, i], t[i, i + 1]
        c, d = t[i + 1, i], t[i + 1, i + 1]
        tr, det = a + d, a * d - b * c
        disc = tr * tr / 4.0 - det
        if disc < 0.0:
            i += 2  # genuine complex pair: canonical 2x2 block stays
            continue
        lam = tr / 2.0 + np.copysign(np.sqrt(disc), tr)
        if lam == 0.0:
            lam = tr / 2.0 - np.copysign(np.sqrt(disc), tr)
        # eigenvector of the block for lam: both [lam-d, c]ᵀ and
        # [b, lam-a]ᵀ solve (B - lam I)v = 0; pick the one whose leading
        # term avoids the catastrophic cancellation in lam - diag
        if abs(lam - a) >= abs(lam - d):
            v0, v1 = b, lam - a
        else:
            v0, v1 = lam - d, c
        nrm = float(np.hypot(v0, v1))
        if nrm == 0.0:
            i += 2
            continue
        cs, sn = v0 / nrm, v1 / nrm
        g = np.array([[cs, -sn], [sn, cs]])
        # commit only if the rotation genuinely annihilates the subdiagonal
        # — a nearly-defective real pair (disc ≈ 0) loses O(sqrt(eps))
        # accuracy under forced splitting, and an unsplit 2x2 block is
        # still a valid quasi-triangular form.
        blk = g.T @ np.array([[a, b], [c, d]]) @ g
        bnorm = max(abs(a), abs(b), abs(c), abs(d), 1e-300)
        if abs(blk[1, 0]) > 64.0 * eps * bnorm:
            i += 2
            continue
        t[:, i : i + 2] = t[:, i : i + 2] @ g
        t[i : i + 2, :] = g.T @ t[i : i + 2, :]
        if z is not None:
            z[:, i : i + 2] = z[:, i : i + 2] @ g
        t[i + 1, i] = 0.0
        i += 1


def standardized_blocks_ok(t: np.ndarray) -> bool:
    """True when every surviving 2x2 diagonal block is standardized: it
    carries a genuine complex-conjugate pair, or is a nearly-defective
    real pair (eigenvalue gap at the O(sqrt(eps)) splitting floor) that
    :func:`_standardize_blocks` deliberately left intact."""
    n = t.shape[0]
    eps = float(np.finfo(t.dtype).eps) if t.dtype.kind == "f" else float(np.finfo(np.float64).eps)
    i = 0
    while i < n - 1:
        if t[i + 1, i] == 0.0:
            i += 1
            continue
        a, b = t[i, i], t[i, i + 1]
        c, d = t[i + 1, i], t[i + 1, i + 1]
        tr, det = a + d, a * d - b * c
        disc = tr * tr / 4.0 - det
        if disc >= 0.0:
            bnorm = max(abs(a), abs(b), abs(c), abs(d), 1.0)
            if np.sqrt(disc) > 64.0 * np.sqrt(eps) * bnorm:
                return False
        i += 2
    return True


def schur_eigvals(t: np.ndarray) -> np.ndarray:
    """Eigenvalues off a real quasi-triangular Schur factor."""
    n = t.shape[0]
    eigs: list[complex] = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            l1, l2 = _eig2x2(t[i, i], t[i, i + 1], t[i + 1, i], t[i + 1, i + 1])
            eigs.extend([l1, l2])
            i += 2
        else:
            eigs.append(complex(t[i, i]))
            i += 1
    return np.array(eigs, dtype=complex)


def is_quasi_triangular(t: np.ndarray, tol: float = 0.0) -> bool:
    """True when *t* is block upper triangular with 1x1/2x2 diagonal blocks
    (no two consecutive nonzero subdiagonal entries)."""
    n = t.shape[0]
    if n <= 2:
        return hessenberg_defect(t) <= tol
    if hessenberg_defect(t) > tol:
        return False
    sub = np.abs(np.diag(t, -1))
    return not np.any((sub[:-1] > tol) & (sub[1:] > tol))
