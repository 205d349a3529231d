"""Form the orthogonal factor Q of a Hessenberg reduction (DORGHR).

``Q = H_0 H_1 ... H_{n-2}`` where ``H_i = I - tau_i u_i u_iᵀ`` and the
``u_i`` are stored below the first subdiagonal of the packed factorization
output. Q satisfies ``A = Q H Qᵀ``.

Both routines are blocked, as DORGQR and DORMQR are: the reflectors go
in blocks of :data:`NB`, aligned at 0, and each block
``H_k0 ... H_{k1-1} = I - V T Vᵀ`` is aggregated by
:func:`~repro.linalg.wy.larft` and applied by one
:func:`~repro.linalg.wy.larfb` — three GEMMs where the unblocked form
makes ``k1 - k0`` rank-1 updates. The rank-1 forms are kept as oracles
in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.linalg.flops import FlopCounter
from repro.linalg.householder import copy_below_diagonal
from repro.linalg.wy import larfb, larft

NB = 32
"""Reflectors per block: the drivers' default panel width."""


def packed_v(a_packed: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """V of reflectors ``k0 .. k1-1`` over rows ``k0+1 ..``: the packed
    vectors below an explicit unit diagonal, and zeros above it, where
    the packed storage holds H. Per-item F-ordered, so a stack's ``V[b]``
    has the layout of one matrix's V."""
    n = a_packed.shape[-2]
    m, kb = n - k0 - 1, k1 - k0
    v = np.zeros(a_packed.shape[:-2] + (kb, m), dtype=a_packed.dtype).swapaxes(-1, -2)
    copy_below_diagonal(v, a_packed[..., k0 + 1 : n, k0:k1])
    v[..., range(kb), range(kb)] = 1.0
    return v


def _wy_blocks(
    a_packed: np.ndarray,
    taus: np.ndarray,
    *,
    backward: bool,
    counter: FlopCounter | None,
    category: str,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(k0, V, T)`` of every block holding a nonzero tau, last block
    first when *backward*. A block of zero taus is a product of
    identities and is skipped, as the rank-1 loop skips each ``tau == 0``."""
    n = a_packed.shape[-2]
    starts = range(0, max(n - 1, 0), NB)
    for k0 in reversed(starts) if backward else starts:
        k1 = min(k0 + NB, n - 1)
        block_taus = taus[..., k0:k1]
        if not block_taus.any():
            continue
        v = packed_v(a_packed, k0, k1)
        yield k0, v, larft(v, block_taus, counter=counter, category=category)


def orghr(
    a_packed: np.ndarray,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "orghr",
) -> np.ndarray:
    """Return the explicit Q from packed reflectors and taus.

    Parameters
    ----------
    a_packed:
        The in-place output of ``gehrd``/``gehd2`` (Householder vectors
        below the first subdiagonal), or a (..., n, n) stack of them.
        Only the strictly-sub-subdiagonal part is read.
    taus:
        Reflector scales, length ``n - 1`` ((..., n - 1) for a stack).

    Q is F-ordered (per item, for a stack). A stack forms every item's Q
    through the same per-item calls as one matrix, so ``Q[b]`` is
    byte-identical to ``orghr(a_packed[b], taus[b])``.
    """
    n = a_packed.shape[-2]
    if a_packed.shape[-1] < n or taus.shape[-1] < max(n - 1, 0):
        raise ShapeError(f"orghr: inconsistent shapes A {a_packed.shape}, taus {taus.shape}")
    q = np.zeros(a_packed.shape[:-2] + (n, n), dtype=a_packed.dtype).swapaxes(-1, -2)
    q[..., range(n), range(n)] = 1.0
    # Backward accumulation (DORGQR): when block [k0, k1) is applied, the
    # columns <= k0 of Q are still unit vectors with zeros in rows > k0,
    # so the update is exact confined to the trailing block.
    for k0, v, t in _wy_blocks(
        a_packed, taus, backward=True, counter=counter, category=category
    ):
        larfb(v, t, q[..., k0 + 1 :, k0 + 1 :], counter=counter, category=category)
    return q


def apply_q(
    a_packed: np.ndarray,
    taus: np.ndarray,
    c: np.ndarray,
    *,
    trans: bool = False,
    counter: FlopCounter | None = None,
    category: str = "apply_q",
) -> np.ndarray:
    """Compute ``Q @ C`` (or ``Qᵀ @ C``) without forming Q, in place.

    Applying the reflectors directly costs ``O(n^2 m)`` like the explicit
    product but needs no ``n x n`` workspace; it is the standard way the
    eigenvalue back-transformation consumes the reduction.
    """
    n = a_packed.shape[0]
    if c.shape[0] != n:
        raise ShapeError(f"apply_q: C has {c.shape[0]} rows, expected {n}")
    # Q C applies the last block first; Qᵀ C applies the first block's Uᵀ first
    for k0, v, t in _wy_blocks(
        a_packed, taus, backward=not trans, counter=counter, category=category
    ):
        larfb(v, t, c[k0 + 1 :, :], trans=trans, counter=counter, category=category)
    return c
