"""Compact WY representation of products of Householder reflectors.

A group of ``k`` reflectors is aggregated as ``U = H_1 H_2 ... H_k =
I - V T Vᵀ`` (Schreiber & Van Loan's storage-efficient WY form, the
representation the paper's Section III-B quotes). ``V`` is the (m x k)
matrix of Householder vectors (unit "diagonal" made explicit by the
caller) and ``T`` is k x k upper triangular.

The block application :func:`larfb` is the workhorse of both the right and
left trailing-matrix updates — and of their *reversals*: because
``I - V T Vᵀ`` is orthogonal, the reverse of a left update is a left
update with the transposed T, through this very same routine
(:mod:`repro.abft.reverse` relies on that). :mod:`repro.linalg.orghr`
forms and applies the Hessenberg Q through both routines, for one
matrix or a per-item F-ordered stack of them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter


def larft(
    v: np.ndarray,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larft",
) -> np.ndarray:
    """Form the upper-triangular T of the compact WY form (DLARFT,
    forward / columnwise).

    Parameters
    ----------
    v:
        (m x k) matrix of Householder vectors, *including* the explicit
        unit entries (row i of column i is 1, zeros above), or a
        (..., m, k) stack of them.
    taus:
        Length-k reflector scales ((..., k) for a stack).

    A stack runs each item through the same GEMVs as a 2-D call (stacked
    ``np.matmul`` dispatches the identical per-item BLAS call), so for
    per-item F-ordered input ``T[b]`` is byte-identical to
    ``larft(v[b], taus[b])``. A zero tau leaves its column of T zero:
    the 2-D call skips it, a stack masks it per item.
    """
    m, k = v.shape[-2:]
    if taus.shape != v.shape[:-2] + (k,):
        raise ShapeError(f"larft: taus {taus.shape} does not match V {v.shape}")
    # per-item F-ordered: one V gets np.zeros((k, k), order="F")
    t = np.zeros(v.shape[:-2] + (k, k), dtype=v.dtype).swapaxes(-1, -2)
    live = taus != 0.0
    t[..., range(k), range(k)] = np.where(live, taus, 0.0)
    items = math.prod(v.shape[:-2])
    # counts[i]: how many items have a live reflector i
    counts = live.reshape(items, k).sum(axis=0).tolist()
    vt = v.swapaxes(-1, -2)
    ntaus = -taus[..., None, :]
    for i in range(1, k):
        if not counts[i]:
            continue
        # T(0:i, i) = T(0:i,0:i) @ (-tau * V(:, 0:i)ᵀ @ V(:, i))
        col = t[..., :i, :i] @ (ntaus[..., i : i + 1] * (vt[..., :i, :] @ v[..., i : i + 1]))
        if counts[i] < items:
            col[~live[..., i]] = 0.0
        t[..., :i, i : i + 1] = col
        if counter is not None:
            counter.add(
                category, F.batched_flops(counts[i], F.gemv_flops(i, m) + F.trmv_flops(i))
            )
    return t


def block_reflector(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Return the explicit orthogonal factor ``U = I - V T Vᵀ`` (tests only)."""
    m = v.shape[0]
    return np.eye(m) - v @ t @ v.T


def larfb(
    v: np.ndarray,
    t: np.ndarray,
    c: np.ndarray,
    *,
    side: str = "left",
    trans: bool = False,
    counter: FlopCounter | None = None,
    category: str = "larfb",
) -> np.ndarray:
    """Apply the block reflector ``U = I - V T Vᵀ`` to C in place (DLARFB).

    ``side='left', trans=False``:  ``C <- U C    = C - V T (Vᵀ C)``
    ``side='left', trans=True``:   ``C <- Uᵀ C   = C - V Tᵀ (Vᵀ C)``
    ``side='right', trans=False``: ``C <- C U    = C - (C V) T Vᵀ``
    ``side='right', trans=True``:  ``C <- C Uᵀ   = C - (C V) Tᵀ Vᵀ``

    *v* is dense with explicit unit entries; this is deliberate — the
    fault-tolerant algorithm substitutes the checksum-extended ``Vce``
    here, and the reverse-computation path substitutes the transposed T.
    (..., m, k) stacks of V, T and C apply every item's block through
    the same per-item GEMMs as a 2-D call (see :func:`larft`).
    """
    m, k = v.shape[-2:]
    if t.shape[-2:] != (k, k):
        raise ShapeError(f"larfb: T {t.shape} does not match V {v.shape}")
    items = math.prod(v.shape[:-2])
    opt = t.swapaxes(-1, -2) if trans else t
    if side == "left":
        if c.shape[-2] != m:
            raise ShapeError(f"larfb left: V {v.shape} vs C {c.shape}")
        n = c.shape[-1]
        w = v.swapaxes(-1, -2) @ c  # k x n
        w = opt @ w                 # k x n
        c -= v @ w
        if counter is not None:
            counter.add(
                category,
                F.batched_flops(
                    items,
                    F.gemm_flops(k, n, m) + F.trmm_flops(k, n, True) + F.gemm_flops(m, n, k),
                ),
            )
    elif side == "right":
        if c.shape[-1] != m:
            raise ShapeError(f"larfb right: V {v.shape} vs C {c.shape}")
        rows = c.shape[-2]
        w = c @ v                   # rows x k
        w = w @ opt                 # rows x k
        c -= w @ v.swapaxes(-1, -2)
        if counter is not None:
            counter.add(
                category,
                F.batched_flops(
                    items,
                    F.gemm_flops(rows, k, m)
                    + F.trmm_flops(rows, k, False)
                    + F.gemm_flops(rows, m, k),
                ),
            )
    else:
        raise ShapeError(f"larfb side must be 'left' or 'right', got {side!r}")
    return c
