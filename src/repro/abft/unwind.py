"""Deep rollback: unwind *completed* iterations of the FT Hessenberg
reduction from packed storage alone.

The paper's reverse computation undoes the **current** iteration using
the live V/T/Y buffers plus the panel checkpoint. This module extends
reversal arbitrarily far back: a completed iteration's block reflector
``U = I − V T Vᵀ`` is fully reconstructible — V sits packed below the
subdiagonal of its own panel, T rebuilds from V and the taus via
``larft`` — and because the iteration is an orthogonal similarity,

    ``A_pre = U · A_post · Uᵀ``

needs no checkpoint and no Y (the right inverse uses
``A Uᵀ = A − (A V) Tᵀ Vᵀ``, computed from the *current* data). The
panel's pre-factorization contents reappear under the similarity, so
the reflector storage can simply be overwritten.

A corruption that entered before the iterations unwound comes back as
the single-element delta the locator decodes (the same
stop-when-decodable strategy as the FT tridiagonal driver). The driver
checks every iteration, so a fault is caught in the iteration it struck:
unwinding earlier iterations only spreads it, the ladder's deep rollback
refuses, and the restart tier follows.

Cost: one reverse left + one reverse right update per unwound iteration
— the same O(N²·nb) as the forward iteration it undoes.
"""

from __future__ import annotations

import numpy as np

from repro.abft.encoding import EncodedMatrix
from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.linalg.orghr import packed_v
from repro.linalg.wy import larft


def extract_panel_reflectors(
    em: EncodedMatrix, p: int, ib: int, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild (V, T) of a completed panel from packed storage.

    V's unit entries are implicit at the first subdiagonal of each panel
    column (the stored value there is the H entry β); the tails live
    below. T comes back through ``larft``.
    """
    n = em.n
    if not (0 <= p and p + ib < n):
        raise ShapeError(f"invalid completed panel: p={p}, ib={ib}, n={n}")
    v = packed_v(em.data, p, p + ib)
    t = larft(v, np.asarray(taus[p : p + ib]))
    return v, t


def unwind_iteration(
    em: EncodedMatrix,
    p: int,
    ib: int,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
) -> None:
    """Undo one *completed* iteration in place: ``A ← U A Uᵀ``.

    On return the encoded matrix is at the end-of-previous-iteration
    state: the panel columns hold their pre-factorization data again,
    the checksum columns are consistent, and the column-checksum
    segment of the re-opened panel is recomputed from the data.
    """
    n, k = em.n, em.k
    v, t = extract_panel_reflectors(em, p, ib, taus)

    # the mathematical matrix has zeros where V was stored
    for j in range(ib):
        em.data[p + j + 2 : n, p + j] = 0.0

    vce = em.weights[:, p + 1 : n] @ v  # (k, ib)

    # ---- reverse the right update: A1 = A_post · Uᵀ -----------------------
    # W = (A V) Tᵀ over every row; V maps to global columns p+1..n-1.
    w = (em.ext[0:n, p + 1 : n] @ v) @ t.T           # (n, ib)
    em.ext[0:n, p + 1 : n] -= w @ v.T                # data columns
    em.ext[0:n, n : n + k] -= w @ vce.T              # row-checksum columns
    if counter is not None:
        counter.add(
            "abft_recover",
            F.gemm_flops(n, ib, n - p - 1) + F.gemm_flops(n, n - p - 1 + k, ib),
        )

    # ---- reverse the left update: A_pre = U · A1 ----------------------------
    # rows p+1.. of every column that is mathematically nonzero there:
    # the re-opened panel columns (their subdiagonal H entries), the
    # trailing columns, and the row-checksum columns.
    c_block = em.ext[p + 1 : n, p : n + k]
    wl = t @ (v.T @ c_block)                          # (ib, cols)
    c_block -= v @ wl
    if counter is not None:
        counter.add(
            "abft_recover",
            2 * F.gemm_flops(ib, n - p + k, n - p - 1) + F.gemm_flops(n - p - 1, n - p + k, ib),
        )

    # NOTE: the column-checksum ROWS are *not* unwound — their in-panel
    # segments were overwritten by per-iteration freezing, and the
    # multiplicative inverse would need those destroyed values. Deep
    # rollback therefore locates through the row-checksum columns (which
    # unwind exactly, riding the data operations) and the caller rebuilds
    # the column checksums after correction — see
    # :func:`locate_errors_rowonly` / :func:`rebuild_col_checksums`.


def locate_errors_rowonly(
    em: EncodedMatrix,
    finished_cols: int,
    norm_a: float,
    *,
    counter: FlopCounter | None = None,
):
    """Locate errors using the row-checksum channels alone.

    After a deep rollback only the row checksums are trustworthy. With a
    single (unit) channel a bad row's residual gives the row and the
    magnitude but not the column — localization then needs the weighted
    channel's ratio test (``channels >= 2``), which is why the
    delayed-detection mode requires the multi-channel encoding.

    Returns a list of :class:`~repro.abft.location.LocatedError`; raises
    :class:`UncorrectableError` when the pattern cannot be resolved.
    """
    from repro.abft.location import LocatedError
    from repro.errors import UncorrectableError

    from repro.abft.location import residual_threshold

    n, k = em.n, em.k
    tol = residual_threshold(em, norm_a)

    fresh = em.fresh_row_block(finished_cols, counter=counter)  # (n, k)
    drb = np.asarray(fresh - em.row_checksum_block, dtype=np.float64)

    bad_rows = np.flatnonzero(
        ((np.abs(drb) > tol) | ~np.isfinite(drb)).any(axis=1)
    ).tolist()
    if not bad_rows:
        return []
    if k < 2:
        raise UncorrectableError(
            "deep rollback located bad rows "
            f"{bad_rows[:8]} but column localization needs the weighted "
            "checksum channel (FTConfig(channels=2)) — the column checksums "
            "cannot be unwound"
        )
    errors: list[LocatedError] = []
    for i in bad_rows:
        m = float(drb[i, 0])
        if not np.isfinite(m) or abs(m) <= tol:
            raise UncorrectableError(
                f"row {i}: weighted channel hot but unit channel cold — "
                "checksum-element corruption or smeared state"
            )
        pos = float(drb[i, 1]) / m * n
        if not np.isfinite(pos):
            raise UncorrectableError(f"row {i}: ratio test gave no column")
        j = int(round(pos)) - 1
        if not (0 <= j < n):
            raise UncorrectableError(f"row {i}: ratio test gave column {j}")
        target = m * em.weights[:, j]
        if np.any(np.abs(drb[i] - target) > max(tol, 1e-8 * abs(m))):
            raise UncorrectableError(
                f"row {i}: residuals inconsistent with a single error"
            )
        errors.append(LocatedError("data", i, j, m))
    return errors


def rebuild_col_checksums(
    em: EncodedMatrix, finished_cols: int, *, counter: FlopCounter | None = None
) -> None:
    """Recompute every column checksum from the (corrected) data.

    Only safe once the data has been verified/corrected — called at the
    end of a deep-rollback recovery.
    """
    em.ext[em.n :, : em.n] = em.weights @ em._masked(finished_cols)
    if counter is not None:
        counter.add("abft_recover", em.k * em.n * F.dot_flops(em.n))
