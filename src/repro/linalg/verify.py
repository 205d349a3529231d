"""Verification metrics — the residuals the paper's Tables II and III report.

* factorization residual (Table II):  ``r = ‖A − Q H Qᵀ‖₁ / (N ‖A‖₁)``
* orthogonality of Q (Table III):     ``r = ‖Q Qᵀ − I‖₁ / N``

plus structural checks used throughout the test-suite.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


#: Elements of the float64 scratch block :func:`one_norm` sweeps through.
_NORM_BLOCK = 1 << 14


def one_norm(a: np.ndarray) -> float:
    """Matrix 1-norm (max absolute column sum), accumulated in float64.

    The absolute values pass through a small float64 scratch block
    instead of an n² temporary, so an fp32 input needs no float64 copy
    either. Every column sum is bitwise the one
    ``np.sum(np.abs(a), axis=0)`` forms over a float64 array laid out
    like *a*: a pairwise sum down each column of a column-major input,
    a running sum row after row of a row-major one.
    """
    if a.ndim != 2:
        raise ShapeError(f"one_norm expects a matrix, got shape {a.shape}")
    if not a.size:
        return 0.0
    rows, cols = a.shape
    sums = np.empty(cols)
    if cols == 1 or a.flags.f_contiguous or (
        not a.flags.c_contiguous and abs(a.strides[0]) <= abs(a.strides[1])
    ):
        width = max(1, _NORM_BLOCK // rows)
        scratch = np.empty(rows * min(width, cols))
        for lo in range(0, cols, width):
            hi = min(lo + width, cols)
            blk = scratch[: rows * (hi - lo)].reshape((rows, hi - lo), order="F")
            np.abs(a[:, lo:hi], out=blk)
            np.sum(blk, axis=0, out=sums[lo:hi])
    else:
        # row after row: each later block carries the running sums in
        # its first row, so the fold continues where the last one stopped
        height = max(1, _NORM_BLOCK // cols)
        scratch = np.empty((min(height, rows) + 1, cols))
        for lo in range(0, rows, height):
            hi = min(lo + height, rows)
            carry = 1 if lo else 0
            blk = scratch[: hi - lo + carry]
            if carry:
                blk[0] = sums
            np.abs(a[lo:hi], out=blk[carry:])
            np.sum(blk, axis=0, out=sums)
    return float(np.max(sums))


def factorization_residual(a: np.ndarray, q: np.ndarray, h: np.ndarray) -> float:
    """Paper Table II residual ``‖A − Q H Qᵀ‖₁ / (N ‖A‖₁)``."""
    n = a.shape[0]
    if a.shape != q.shape or a.shape != h.shape:
        raise ShapeError(f"shape mismatch: A {a.shape}, Q {q.shape}, H {h.shape}")
    na = one_norm(a)
    if na == 0.0:
        return 0.0
    return one_norm(a - q @ h @ q.T) / (n * na)


def orthogonality_residual(q: np.ndarray) -> float:
    """Paper Table III residual ``‖Q Qᵀ − I‖₁ / N``."""
    n = q.shape[0]
    if q.shape != (n, n):
        raise ShapeError(f"Q must be square, got {q.shape}")
    return one_norm(q @ q.T - np.eye(n)) / n


def hessenberg_defect(h: np.ndarray) -> float:
    """Largest magnitude below the first subdiagonal (0 for exact Hessenberg)."""
    n = h.shape[0]
    if n <= 2:
        return 0.0
    mask = np.tril(np.ones((n, n), dtype=bool), -2)
    return float(np.max(np.abs(h[mask]))) if mask.any() else 0.0


def is_hessenberg(h: np.ndarray, tol: float = 0.0) -> bool:
    """True when *h* is upper Hessenberg up to *tol*."""
    return hessenberg_defect(h) <= tol


def extract_hessenberg(a_packed: np.ndarray) -> np.ndarray:
    """Extract H from a packed ``gehrd`` output (zero below first subdiagonal)."""
    return np.asfortranarray(np.triu(a_packed, -1))


def eigenvalue_drift(a: np.ndarray, h: np.ndarray) -> float:
    """Max relative distance between sorted eigenvalues of A and H.

    The whole point of the reduction is spectrum preservation; this metric
    backs the integration tests (it is not in the paper's tables).
    """
    ea = np.sort_complex(np.linalg.eigvals(a))
    eh = np.sort_complex(np.linalg.eigvals(h))
    scale = max(np.max(np.abs(ea)), 1e-300)
    return float(np.max(np.abs(ea - eh)) / scale)
