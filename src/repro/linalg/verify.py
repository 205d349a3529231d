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


#: Columns of H per block of the Q·H product in :func:`residual_matrix`.
_QH_BLOCK = 32


def _item_f(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of *shape* whose every (rows, cols) item
    is F-contiguous."""
    return np.empty(shape[:-2] + (shape[-1], shape[-2]), dtype=dtype).swapaxes(-1, -2)


def residual_matrix(a: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``A − Q H Qᵀ`` for one (n x n) matrix or a (..., n, n) stack,
    per-item F-ordered.

    Q·H is formed one block of H's columns at a time. A block's product
    skips H's rows below the block's last subdiagonal entry, so an
    upper Hessenberg H costs about n³ flops there instead of 2n³; a
    block with any nonzero in those rows is multiplied in full, so the
    result is exact for any H (a stack decides per item). Every product
    goes into a buffer allocated once per call, and every item passes
    through the same per-item GEMMs as a 2-D call: ``R[b]`` is
    byte-identical to ``residual_matrix(a[b], q[b], h[b])``.
    """
    n = h.shape[-1]
    qh = _item_f(h.shape, np.result_type(q, h))
    for j0 in range(0, n, _QH_BLOCK):
        j1 = min(j0 + _QH_BLOCK, n)
        rows = min(j1 + 1, n)
        dense = h[..., rows:, j0:j1].any(axis=(-2, -1))
        if not dense.any():
            np.matmul(q[..., :, :rows], h[..., :rows, j0:j1], out=qh[..., :, j0:j1])
            continue
        for i in np.ndindex(dense.shape):
            k = n if dense[i] else rows
            np.matmul(q[i][:, :k], h[i][:k, j0:j1], out=qh[i][:, j0:j1])
    r = _item_f(h.shape, qh.dtype)
    np.matmul(qh, q.swapaxes(-1, -2), out=r)
    if np.result_type(a, r) != r.dtype:
        return a - r  # a wider A promotes, as the subtraction always did
    return np.subtract(a, r, out=r)


def factorization_residual(a: np.ndarray, q: np.ndarray, h: np.ndarray) -> float:
    """Paper Table II residual ``‖A − Q H Qᵀ‖₁ / (N ‖A‖₁)``, with
    ``A − Q H Qᵀ`` from :func:`residual_matrix`."""
    n = a.shape[0]
    if a.shape != q.shape or a.shape != h.shape:
        raise ShapeError(f"shape mismatch: A {a.shape}, Q {q.shape}, H {h.shape}")
    na = one_norm(a)
    if na == 0.0:
        return 0.0
    return one_norm(residual_matrix(a, q, h)) / (n * na)


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
    """Extract H from a packed ``gehrd`` output (zero below first
    subdiagonal), or from a (..., n, n) stack of them.

    One copy, F-ordered (per item, for a stack), zeroed in place below
    the first subdiagonal: the values of ``np.triu(a_packed, -1)``.
    """
    rows, cols = a_packed.shape[-2:]
    h = _item_f(a_packed.shape, a_packed.dtype)
    h[...] = a_packed
    # F-ordered mask of i >= j + 2, built as its C-ordered transpose
    np.copyto(h, 0.0, where=~np.tri(cols, rows, 1, dtype=bool).T)
    return h


def eigenvalue_drift(a: np.ndarray, h: np.ndarray) -> float:
    """Max relative distance between sorted eigenvalues of A and H.

    The whole point of the reduction is spectrum preservation; this metric
    backs the integration tests (it is not in the paper's tables).
    """
    ea = np.sort_complex(np.linalg.eigvals(a))
    eh = np.sort_complex(np.linalg.eigvals(h))
    scale = max(np.max(np.abs(ea)), 1e-300)
    return float(np.max(np.abs(ea - eh)) / scale)
