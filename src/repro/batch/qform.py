"""Batched Q formation (stacked DORGHR) and residual verification.

The per-job tail of a serve batch — forming Q from the packed
reflectors, extracting H, and computing the Table II residual — costs
as much Python overhead per item as the reduction itself once the
drivers are batched. These stacked mirrors collapse that tail to a
handful of 3-D ops per *batch*, with the same bit-identity argument as
the reduction kernels: every scalar GEMV/GEMM/reduction becomes the
identical per-item operation under one stacked call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg.flops import FlopCounter
from repro.linalg.orghr import orghr
from repro.linalg.verify import extract_hessenberg, residual_matrix


def orghr_batched(
    a_packed: np.ndarray,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "orghr",
) -> np.ndarray:
    """Explicit Q for every packed factorization in the (B, n, n) stack.

    The stacked :func:`repro.linalg.orghr.orghr`: the same blocked
    backward accumulation, each block one stacked ``larft`` and one
    stacked ``larfb`` over the per-item-F Q stack, with an item's zero
    taus masked out of its T. ``Q[b]`` is byte-identical to the scalar
    ``orghr`` of item b.
    """
    if a_packed.ndim != 3 or a_packed.shape[1] != a_packed.shape[2]:
        raise ShapeError(
            f"orghr_batched needs a (B, n, n) stack, got {a_packed.shape}"
        )
    b, n = a_packed.shape[0], a_packed.shape[1]
    if taus.shape != (b, max(n - 1, 0)):
        raise ShapeError(
            f"orghr_batched: taus must be ({b}, {max(n - 1, 0)}), got {taus.shape}"
        )
    return orghr(a_packed, taus, counter=counter, category=category)


def extract_hessenberg_batched(a_packed: np.ndarray) -> np.ndarray:
    """Stacked :func:`~repro.linalg.verify.extract_hessenberg` — zero
    below the first subdiagonal of every item, per-item F-ordered like
    the scalar H (exact, so trivially bit-identical)."""
    return extract_hessenberg(a_packed)


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
