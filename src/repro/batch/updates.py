"""The stacked unblocked clean-up pass (DGEHD2) of the batched drivers.

The blocked iterations need nothing here: the trailing updates, the
checksum kernels, the encoding and the detector take a per-item-F stack
through their scalar implementations (:mod:`repro.linalg.gehrd`,
:mod:`repro.abft.checksums`, :mod:`repro.abft.encoding`).
:func:`gehd2_batched` stays separate because the scalar DGEHD2 skips an
identity reflector (``tau == 0``) per column, a branch per item that a
stack can only take as a mask (:func:`_masked_subtract`): per column,
one batched reflector generation plus the right/left similarity
applications as stacked outer-product updates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter

from repro.batch.panel import larfg_batched


def _masked_subtract(c: np.ndarray, upd: np.ndarray, active: np.ndarray) -> None:
    """``c -= upd`` restricted to active items.

    The scalar ``larf_*`` kernels skip the whole update when ``tau == 0``
    (the identity reflector); subtracting an exact-zero product is
    *almost* the same but can flip the sign of a -0.0 entry, so the
    masked form preserves byte-parity for zero-norm columns.
    """
    if active.all():
        c -= upd
    else:
        np.subtract(c, upd, out=c, where=active[:, None, None])


def gehd2_batched(
    a: np.ndarray,
    ilo: int = 0,
    ihi: int | None = None,
    *,
    taus_out: np.ndarray | None = None,
    counter: FlopCounter | None = None,
    category: str = "gehd2",
) -> np.ndarray:
    """Stacked unblocked Hessenberg reduction (mirrors
    :func:`repro.linalg.gehd2.gehd2` column for column).

    Reduces columns ``ilo .. ihi-2`` of every item in place and returns
    the (B, ncols-1) tau stack.
    """
    b = a.shape[0]
    n = a.shape[1] if ihi is None else ihi
    if ihi is None:
        if a.shape[1] != a.shape[2]:
            raise ShapeError(f"gehd2_batched needs square items, got {a.shape}")
    if not (0 <= ilo <= n <= a.shape[1]):
        raise ShapeError(f"invalid range ilo={ilo}, ihi={n} for stack {a.shape}")

    ncols = a.shape[2]
    taus = (
        taus_out
        if taus_out is not None
        else np.zeros((b, max(ncols - 1, 0)), dtype=a.dtype)
    )
    for i in range(ilo, n - 1):
        beta, tau = larfg_batched(
            a[:, i + 1, i], a[:, i + 2 : n, i], counter=counter, category=category
        )
        active = tau != 0.0
        a[:, i + 1, i] = 1.0
        u = a[:, i + 1 : n, i]  # (B, m) explicit reflector vectors
        # right similarity: C <- C - tau (C u) u^T  over rows 0..n
        c = a[:, 0:n, i + 1 : n]
        w = np.matmul(c, u[:, :, None])  # (B, n, 1)
        _masked_subtract(c, tau[:, None, None] * (w * u[:, None, :]), active)
        # left similarity: C <- C - tau u (u^T C)  over rows i+1..n
        c2 = a[:, i + 1 : n, i + 1 : ncols]
        w2 = np.matmul(u[:, None, :], c2)  # (B, 1, m2)
        _masked_subtract(c2, tau[:, None, None] * (u[:, :, None] * w2), active)
        a[:, i + 1, i] = beta
        taus[:, i] = tau
        if counter is not None:
            # the scalar larf kernels count nothing for identity
            # reflectors (tau == 0), so scale by the active item count
            counter.add(
                category,
                F.batched_flops(
                    int(active.sum()),
                    4 * c.shape[1] * c.shape[2] + 4 * c2.shape[1] * c2.shape[2],
                ),
            )
    return taus
