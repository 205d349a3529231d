"""Batched residual verification for the tail of a serve batch.

Q formation and H extraction need nothing here:
:func:`~repro.linalg.orghr.orghr` and
:func:`~repro.linalg.verify.extract_hessenberg` take a per-item-F
``(B, n, n)`` stack and give each item its own matrix's bytes.
:func:`factorization_residuals_batched` stays because it returns one
array of residuals for the whole stack, through the scalar
:func:`~repro.linalg.verify.residual_matrix`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg.verify import residual_matrix


def _one_norms(stack: np.ndarray) -> np.ndarray:
    """Per-item matrix 1-norms (max absolute column sums), accumulated in
    float64 down each column like :func:`~repro.linalg.verify.one_norm`."""
    return np.max(np.sum(np.abs(stack).astype(np.float64, copy=False), axis=1), axis=1)


def factorization_residuals_batched(
    a: np.ndarray, q: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Per-item Table II residuals ``‖A − Q H Qᵀ‖₁ / (N ‖A‖₁)`` over
    (B, n, n) stacks — the stacked
    :func:`~repro.linalg.verify.factorization_residual`, through the
    same :func:`~repro.linalg.verify.residual_matrix`, so ``res[b]``
    equals the scalar residual of item b."""
    if a.shape != q.shape or a.shape != h.shape:
        raise ShapeError(f"shape mismatch: A {a.shape}, Q {q.shape}, H {h.shape}")
    n = a.shape[1]
    na = _one_norms(a)
    resid = _one_norms(residual_matrix(a, q, h))
    out = np.zeros(a.shape[0])
    np.divide(resid, n * na, out=out, where=na != 0.0)
    return out
