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
    forward / columnwise) by the UT transform.

    Parameters
    ----------
    v:
        (m x k) matrix of Householder vectors, *including* the explicit
        unit entries (row i of column i is 1, zeros above), or a
        (..., m, k) stack of them.
    taus:
        Length-k reflector scales ((..., k) for a stack).

    ``T⁻¹ = diag(1/τ) + striu(VᵀV)`` (Joffrain, Low, Quintana-Ortí and
    van de Geijn, "Accumulating Householder transformations, revisited",
    ACM TOMS 2006): one Gram GEMM per block, where the column loop of
    DLARFT makes k - 1 GEMVs, and one k x k triangular inverse. The
    inverse is taken by recursive doubling over the triangle's diagonal
    blocks, as LAPACK 3.12's recursive DLARFT does:
    ``[[S11, G12], [0, S22]]⁻¹ = [[T11, -T11 G12 T22], [0, T22]]``,
    starting from the 1 x 1 blocks ``(1/τ)⁻¹ = τ``. k is padded to a
    power of two with zero taus, and every level is two stacked GEMMs
    over all its diagonal blocks at once. There is no 1/τ, no pivot
    and no division: T's diagonal is τ exactly, a zero tau leaves its
    row and column of T zero, and a non-finite or huge tau gives
    garbage out, as the loop does, and never an exception. The loop is
    kept as the oracle :func:`repro.perf.reference.larft_reference`.

    A stack runs each item through the same GEMMs as a 2-D call
    (stacked ``np.matmul`` dispatches the identical per-item calls), so
    for per-item F-ordered input ``T[b]`` is byte-identical to
    ``larft(v[b], taus[b])``.
    """
    m, k = v.shape[-2:]
    if taus.shape != v.shape[:-2] + (k,):
        raise ShapeError(f"larft: taus {taus.shape} does not match V {v.shape}")
    lead = v.shape[:-2]
    kp = 1 << max(k - 1, 0).bit_length()  # k padded to a power of two
    # T and -VᵀV fill the first kp² entries of buffers kp·(kp + 1) long,
    # which puts the diagonal blocks of every size one reshape away
    # (_blocks); only the strict upper blocks of -VᵀV are read
    tbuf = np.zeros(lead + (kp * (kp + 1),), dtype=v.dtype)
    gbuf = np.zeros_like(tbuf)
    t = tbuf[..., : kp * kp].reshape(lead + (kp, kp))
    g = gbuf[..., : kp * kp].reshape(lead + (kp, kp))
    np.matmul(v.swapaxes(-1, -2), v, out=g[..., :k, :k])
    np.negative(g, out=g)
    diag = np.arange(k)
    t[..., diag, diag] = taus
    half = 1
    while half < kp:
        tb, gb = _blocks(tbuf, kp, 2 * half), _blocks(gbuf, kp, 2 * half)
        np.matmul(
            tb[..., :half, :half] @ gb[..., :half, half:],
            tb[..., half:, half:],
            out=tb[..., :half, half:],
        )
        half *= 2
    if counter is not None:
        # DLARFT's count: the strict upper Gram triangle (k(k-1)/2 dots
        # of length m) and the triangular T (~k³/3)
        counter.add(
            category,
            F.batched_flops(
                math.prod(lead), k * (k - 1) * m + (k - 1) * k * (2 * k - 1) // 6
            ),
        )
    return t[..., :k, :k]


def _blocks(buf: np.ndarray, kp: int, size: int) -> np.ndarray:
    """The (size x size) diagonal blocks of the C-ordered (kp, kp)
    matrix in the first kp² entries of *buf*'s last axis, as one
    writable view of shape (..., kp // size, size, size). Entry (a, b)
    of block j sits at ``j·size·(kp + 1) + a·kp + b``, so rows of
    ``size·(kp + 1)`` entries hold one block each; *buf* holds
    ``kp·(kp + 1)`` entries for that."""
    lead = buf.shape[:-1]
    rows = buf.reshape(lead + (kp // size, size * (kp + 1)))[..., : size * kp]
    return rows.reshape(lead + (kp // size, size, kp))[..., :size]


def block_reflector(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Return the explicit orthogonal factor ``U = I - V T Vᵀ`` (tests only)."""
    m = v.shape[0]
    return np.eye(m) - v @ t @ v.T


def _product_like(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in a fresh array laid out like *c* (per item, for a
    stack). For a column-major C, ``np.matmul`` forms the product
    transposed, as :meth:`repro.perf.workspace.Workspace.product` does
    for the drivers, and ``c -= ...`` reads both operands in one order."""
    return np.matmul(a, b, out=np.empty_like(c))


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
    the same per-item GEMMs as a 2-D call (see :func:`larft`). The
    final product is formed in C's own layout (see :func:`_product_like`),
    so the fold into C is one unit-stride sweep.
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
        c -= _product_like(c, v, w)
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
        c -= _product_like(c, w, v.swapaxes(-1, -2))
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
