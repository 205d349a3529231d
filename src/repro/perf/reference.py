"""Frozen scalar kernels — the golden reference.

These are verbatim copies of the panel factorization, the
checksum-extended updates, the residual decoders, the clean-path
protection helpers, the Hessenberg Q formation and the compact-WY T as
they stood before their rewrites. The pre-pooling kernels
allocate fresh temporaries on every call (``np.tril`` copies,
``np.vstack``, un-``out=``'d GEMMs) — exactly the behaviour the
throughput layer removes; the decoders test one (row, column) pair or
one line per Python call, where the live ones work on whole arrays; the
protection helpers (the input 1-norm, the segment refresh, the Q block,
the panel checkpoint, the detector's threshold) copy or re-derive on
every call what the live ones keep in reused buffers or derive once per
run; ``orghr`` and ``apply_q`` make one rank-1 update per reflector,
where the live ones apply blocks of reflectors as GEMMs; ``larft``
builds T one column at a time, where the live one inverts the UT
transform's triangle; the pooled panel (``lahr2_pooled_reference``,
with the ``larfg`` and ``larfg_batched`` it called) scales each
reflector in the storage, copies it into V, writes a unit the next
column overwrites and goes through a ``Reflector`` per column, where the
live one divides straight into V and stores the storage block once per
panel. They serve as the equivalence oracle for
``tests/test_kernel_golden.py`` (the pooled kernels must agree to
roundoff on every path, including k>1 weighted channels),
``tests/test_panel_oracle.py`` (the panel must agree byte for byte),
``tests/test_location_reference.py`` (the array decoders must return
the same errors, bit for bit, or raise the same message),
``tests/test_protection_reference.py`` (the protection helpers must
agree byte for byte), ``tests/test_orghr_blocked.py`` (the blocked Q
must agree to ``n·eps``) and ``tests/test_larft_ut.py`` (T must agree
to roundoff).

Do not modify these when optimizing the live kernels; that would defeat
the comparison.
"""

from __future__ import annotations

import math

import numpy as np

from repro.abft.checkpoint import PanelCheckpoint
from repro.abft.detection import ThresholdPolicy, checksum_second_moment
from repro.abft.encoding import EncodedMatrix
from repro.abft.location import LocatedError
from repro.abft.qprotect import Q_OFFSET, QProtector
from repro.errors import DetectionError, ShapeError, UncorrectableError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.linalg.householder import Reflector, larfg
from repro.linalg.lahr2 import PanelFactors
from repro.perf.workspace import Workspace
from repro.utils.precision import lane_eps


def lahr2_reference(
    a: np.ndarray,
    p: int,
    ib: int,
    n: int,
    *,
    counter: FlopCounter | None = None,
    category: str = "panel",
) -> PanelFactors:
    """The pre-pooling DLAHR2 (see :func:`repro.linalg.lahr2.lahr2`)."""
    if not (0 <= p and p + ib < n <= min(a.shape)):
        raise ShapeError(f"invalid panel: p={p}, ib={ib}, n={n}, A shape {a.shape}")
    if ib < 1:
        raise ShapeError(f"panel width must be >= 1, got {ib}")

    taus = np.zeros(ib)
    t = np.zeros((ib, ib), order="F")
    y = np.zeros((n, ib), order="F")
    ei = 0.0

    for j in range(ib):
        c = p + j
        if j > 0:
            vrow = a[p + j, p : p + j]
            a[p + 1 : n, c] -= y[p + 1 : n, :j] @ vrow
            if counter is not None:
                counter.add(category, F.gemv_flops(n - p - 1, j))

            v1 = a[p + 1 : p + j + 1, p : p + j]
            v2 = a[p + j + 1 : n, p : p + j]
            b1 = a[p + 1 : p + j + 1, c]
            b2 = a[p + j + 1 : n, c]
            w = np.tril(v1, -1).T @ b1 + b1.copy()
            w += v2.T @ b2
            w = t[:j, :j].T @ w
            b2 -= v2 @ w
            b1 -= np.tril(v1, -1) @ w + w
            if counter is not None:
                counter.add(
                    category,
                    2 * F.trmv_flops(j) + 2 * F.gemv_flops(n - p - j - 1, j) + F.trmv_flops(j),
                )
            a[p + j, p + j - 1] = ei

        pivot_row = p + j + 1
        refl = larfg(a[pivot_row, c], a[pivot_row + 1 : n, c], counter=counter, category=category)
        ei = refl.beta
        a[pivot_row, c] = 1.0

        vj = a[pivot_row:n, c]

        y[p + 1 : n, j] = a[p + 1 : n, pivot_row : n] @ vj
        if j > 0:
            tcol = a[pivot_row:n, p : p + j].T @ vj
            y[p + 1 : n, j] -= y[p + 1 : n, :j] @ tcol
            t[:j, j] = t[:j, :j] @ (-refl.tau * tcol)
        y[p + 1 : n, j] *= refl.tau
        t[j, j] = refl.tau
        taus[j] = refl.tau
        if counter is not None:
            counter.add(
                category,
                F.gemv_flops(n - p - 1, n - pivot_row)
                + (F.gemv_flops(n - pivot_row, j) + F.gemv_flops(n - p - 1, j) + F.trmv_flops(j) if j > 0 else 0)
                + F.scal_flops(n - p - 1),
            )

    a[p + ib, p + ib - 1] = ei

    v = np.zeros((n - p - 1, ib), order="F")
    for j in range(ib):
        v[j:, j] = a[p + 1 + j : n, p + j]
        v[j, j] = 1.0

    k = p + 1
    if k > 0:
        y_top = a[0:k, p + 1 : p + 1 + ib].copy()
        v1 = v[:ib, :]
        y_top = y_top @ np.tril(v1)
        if n > p + 1 + ib:
            y_top += a[0:k, p + 1 + ib : n] @ v[ib:, :]
        y_top = y_top @ np.triu(t)
        y[0:k, :] = y_top
        if counter is not None:
            counter.add(
                category,
                F.trmm_flops(k, ib, False)
                + F.gemm_flops(k, ib, max(0, n - p - 1 - ib))
                + F.trmm_flops(k, ib, False),
            )

    return PanelFactors(p=p, ib=ib, v=v, t=t, y=y, taus=taus, ei=float(ei))


def _check_blocks(em: EncodedMatrix, pf: PanelFactors, vce: np.ndarray, ychk) -> None:
    if vce.shape != (em.k, pf.ib):
        raise ShapeError(f"Vce block must be ({em.k}, {pf.ib}), got {vce.shape}")
    if ychk is not None and ychk.shape != (em.k, pf.ib):
        raise ShapeError(f"Ychk block must be ({em.k}, {pf.ib}), got {ychk.shape}")


def right_update_encoded_reference(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    ychk: np.ndarray,
    *,
    counter: FlopCounter | None = None,
) -> None:
    """The pre-pooling checksum-extended right update."""
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    _check_blocks(em, pf, vce, ychk)
    v2ce = np.vstack([pf.v[ib - 1 :, :], vce])
    em.ext[0:n, p + ib : n + k] -= pf.y[0:n, :] @ v2ce.T
    if counter is not None:
        counter.add("right_update", F.gemm_flops(n, n - p - ib, ib))
        counter.add("abft_maintain", k * F.gemv_flops(n, ib))
    if ib > 1:
        v1 = np.tril(pf.v[: ib - 1, : ib - 1])
        em.ext[0 : p + 1, p + 1 : p + ib] -= pf.y[0 : p + 1, : ib - 1] @ v1.T
        if counter is not None:
            counter.add("right_update", F.trmm_flops(p + 1, ib - 1, False))
    em.ext[n:, p + ib : n] -= ychk @ pf.v[ib - 1 : n - p - 1, :].T
    if counter is not None:
        counter.add("abft_maintain", k * F.gemv_flops(n - p - ib, ib))


def left_update_encoded_reference(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    *,
    counter: FlopCounter | None = None,
) -> None:
    """The pre-pooling checksum-extended left update."""
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    _check_blocks(em, pf, vce, None)
    cols = slice(p + ib, n + k)
    c_data = em.ext[p + 1 : n, cols]
    w = pf.t.T @ (pf.v.T @ c_data)
    c_data -= pf.v @ w
    em.ext[n:, p + ib : n] -= vce @ w[:, : n - p - ib]
    if counter is not None:
        m = n - p - 1
        ncols = n + k - (p + ib)
        counter.add(
            "left_update",
            F.gemm_flops(ib, ncols, m) + F.trmm_flops(ib, ncols, True) + F.gemm_flops(m, ncols, ib),
        )
        counter.add("abft_maintain", k * F.gemv_flops(ncols, ib))


def reverse_left_update_encoded_reference(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    *,
    counter: FlopCounter | None = None,
) -> None:
    """The pre-pooling reverse left update."""
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    cols = slice(p + ib, n + k)
    c_data = em.ext[p + 1 : n, cols]
    w_rev = pf.t @ (pf.v.T @ c_data)
    c_data -= pf.v @ w_rev
    w_fwd = pf.t.T @ (pf.v.T @ c_data)
    em.ext[n:, p + ib : n] += vce @ w_fwd[:, : n - p - ib]
    if counter is not None:
        m = n - p - 1
        ncols = n + k - (p + ib)
        counter.add("abft_recover", 2 * F.gemm_flops(ib, ncols, m) + F.gemm_flops(m, ncols, ib))


def reverse_right_update_encoded_reference(
    em: EncodedMatrix,
    pf: PanelFactors,
    vce: np.ndarray,
    ychk: np.ndarray,
    *,
    counter: FlopCounter | None = None,
) -> None:
    """The pre-pooling reverse right update."""
    n, p, ib, k = em.n, pf.p, pf.ib, em.k
    v2ce = np.vstack([pf.v[ib - 1 :, :], vce])
    em.ext[0:n, p + ib : n + k] += pf.y[0:n, :] @ v2ce.T
    if ib > 1:
        v1 = np.tril(pf.v[: ib - 1, : ib - 1])
        em.ext[0 : p + 1, p + 1 : p + ib] += pf.y[0 : p + 1, : ib - 1] @ v1.T
    em.ext[n:, p + ib : n] += ychk @ pf.v[ib - 1 : n - p - 1, :].T
    if counter is not None:
        counter.add("abft_recover", F.gemm_flops(n, n - p - ib + k, ib))


def decode_residuals_reference(dr: np.ndarray, dc: np.ndarray, tol: float) -> list[LocatedError]:
    """The scalar peeling decoder (see
    :func:`repro.abft.location.decode_residuals`).

    Decode row/column residuals into located errors by peeling.

    *dr*/*dc* hold ``fresh − maintained`` sums (a corruption of magnitude
    ``m`` at (i, j) contributes ``+m`` to both ``dr[i]`` and ``dc[j]``; a
    corrupted row-checksum element contributes ``−m`` to ``dr[i]`` only).
    The arrays are consumed (modified in place on a copy made by the
    caller). Shared by the H-matrix locator and the Q protector.
    """
    errors: list[LocatedError] = []

    def close(a: float, b: float) -> bool:
        # residual comparisons need a magnitude-relative term: the sums'
        # roundoff scales with the corruption size itself
        return abs(a - b) <= max(tol, 1e-9 * max(abs(a), abs(b)))

    # non-finite residuals (Inf/NaN corruption) always count as bad lines —
    # plain magnitude comparison would silently drop them
    bad_rows = set(np.flatnonzero((np.abs(dr) > tol) | ~np.isfinite(dr)).tolist())
    bad_cols = set(np.flatnonzero((np.abs(dc) > tol) | ~np.isfinite(dc)).tolist())

    guard = len(bad_rows) + len(bad_cols) + 1
    for _ in range(guard):
        if not bad_rows and not bad_cols:
            break

        # Checksum-element corruption: residual on one side only. For a
        # corrupted checksum the fresh sum is the truth, so the stored
        # checksum is off by -residual.
        if bad_rows and not bad_cols:
            for i in sorted(bad_rows):
                errors.append(LocatedError("row_checksum", i, -1, float(-dr[i])))
            bad_rows.clear()
            continue
        if bad_cols and not bad_rows:
            for j in sorted(bad_cols):
                errors.append(LocatedError("col_checksum", -1, j, float(-dc[j])))
            bad_cols.clear()
            continue

        # Structural rule: a single bad row owns every bad column's error.
        if len(bad_rows) == 1:
            i = next(iter(bad_rows))
            total = sum(dc[j] for j in bad_cols)
            if not close(dr[i], total) and np.isfinite(total):
                raise UncorrectableError(
                    f"inconsistent residuals: row {i} residual {dr[i]:.3e} vs "
                    f"column total {total:.3e}"
                )
            for j in sorted(bad_cols):
                errors.append(LocatedError("data", i, j, float(dc[j])))
            bad_rows.clear()
            bad_cols.clear()
            continue
        if len(bad_cols) == 1:
            j = next(iter(bad_cols))
            total = sum(dr[i] for i in bad_rows)
            if not close(dc[j], total) and np.isfinite(total):
                raise UncorrectableError(
                    f"inconsistent residuals: column {j} residual {dc[j]:.3e} vs "
                    f"row total {total:.3e}"
                )
            for i in sorted(bad_rows):
                errors.append(LocatedError("data", i, j, float(dr[i])))
            bad_rows.clear()
            bad_cols.clear()
            continue

        # Magnitude peeling: a (row, col) pair matching uniquely on both
        # sides must be a lone error on each of its lines.
        peeled = False
        for i in sorted(bad_rows):
            matches = [j for j in bad_cols if close(dr[i], dc[j])]
            if len(matches) == 1:
                j = matches[0]
                back = [i2 for i2 in bad_rows if close(dc[j], dr[i2])]
                if len(back) == 1:
                    m = float(dr[i])
                    errors.append(LocatedError("data", i, j, m))
                    dr[i] -= m
                    dc[j] -= m
                    bad_rows.discard(i)
                    if abs(dc[j]) <= tol:
                        bad_cols.discard(j)
                    peeled = True
                    break
        if not peeled:
            raise UncorrectableError(
                "error pattern cannot be peeled (rectangular or ambiguous): "
                f"rows {sorted(bad_rows)}, cols {sorted(bad_cols)}"
            )
    else:
        raise UncorrectableError(
            f"peeling did not converge: rows {sorted(bad_rows)}, cols {sorted(bad_cols)}"
        )
    return errors


def decode_residuals_weighted_reference(
    drb: np.ndarray, dcb: np.ndarray, weights: np.ndarray, tol: float
) -> list[LocatedError]:
    """The scalar weighted decoder (see
    :func:`repro.abft.location.decode_residuals_weighted`).

    Decode residuals under the weighted (k ≥ 2) encoding.

    *drb* is (N, k): per-row ``fresh − maintained`` for every channel;
    *dcb* is (k, N) for the columns; *weights* is the (k, N) weight
    matrix whose channel 1 is strictly increasing.

    The extra channel turns location into a **ratio test** (Huang &
    Abraham): a lone error of magnitude ``m`` at (i, j) gives
    ``drb[i] = m · weights[:, j]``, so ``drb[i, 1] / drb[i, 0] = w₁(j)``
    identifies ``j`` directly — per *line*, independent of the other
    lines. Peeling a located error from all four residual vectors then
    exposes the next one, which is what decodes patterns the unit
    encoding provably cannot (the 2-rows × 2-cols L-shape).

    A corrupted checksum *element* perturbs exactly one channel on one
    side (``drb[i, q] = −m``, everything else clean) and is recognized by
    that signature.
    """
    n, k = drb.shape
    if k < 2:
        raise UncorrectableError("weighted decode needs at least two channels")
    w1 = weights[1]
    errors: list[LocatedError] = []

    def bad(x: np.ndarray) -> bool:
        return bool(np.any(~np.isfinite(x)) or np.any(np.abs(x) > tol))

    def match_tol(m: float) -> float:
        return max(tol, 1e-8 * abs(m))

    def try_line(vec: np.ndarray, along_rows: bool, idx: int) -> bool:
        """Ratio-decode one line: *idx* is the row index when
        *along_rows*, else the column index; the ratio recovers the
        crossing index on the other axis."""
        m = float(vec[0])
        if not np.isfinite(m) or abs(m) <= tol:
            return False
        ratio = float(vec[1]) / m
        other = int(round(ratio * n)) - 1
        if not (0 <= other < n):
            return False
        # verify across ALL channels: vec ≈ m * weights[:, other]
        target = m * weights[:, other]
        if np.any(np.abs(vec - target) > match_tol(m)):
            return False
        if along_rows:
            errors.append(LocatedError("data", idx, other, m))
            drb[idx] -= target
            dcb[:, other] -= m * weights[:, idx]
        else:
            errors.append(LocatedError("data", other, idx, m))
            dcb[:, idx] -= target
            drb[other] -= m * weights[:, idx]
        return True

    guard = 2 * n + 4
    for _ in range(guard):
        bad_rows = [i for i in range(n) if bad(drb[i])]
        bad_cols = [j for j in range(n) if bad(dcb[:, j])]
        if not bad_rows and not bad_cols:
            break
        progress = False
        for i in bad_rows:
            if try_line(drb[i], True, i):
                progress = True
                break
        if progress:
            continue
        for j in bad_cols:
            if try_line(dcb[:, j], False, j):
                progress = True
                break
        if progress:
            continue
        # checksum-element signatures: exactly one channel of one side hot
        for i in bad_rows:
            hot = [q for q in range(k) if abs(drb[i, q]) > tol or not np.isfinite(drb[i, q])]
            if len(hot) == 1:
                q = hot[0]
                errors.append(LocatedError("row_checksum", i, -1, float(-drb[i, q]), q))
                drb[i, q] = 0.0
                progress = True
        for j in bad_cols:
            hot = [q for q in range(k) if abs(dcb[q, j]) > tol or not np.isfinite(dcb[q, j])]
            if len(hot) == 1:
                q = hot[0]
                errors.append(LocatedError("col_checksum", -1, j, float(-dcb[q, j]), q))
                dcb[q, j] = 0.0
                progress = True
        if not progress:
            raise UncorrectableError(
                "weighted decode stalled: "
                f"rows {bad_rows[:8]}, cols {bad_cols[:8]}"
            )
    else:
        raise UncorrectableError("weighted decode did not converge")
    return errors


# -- the clean-path protection helpers ---------------------------------------


def one_norm_reference(a: np.ndarray) -> float:
    """The n²-temporary 1-norm (see :func:`repro.linalg.verify.one_norm`);
    the drivers passed it ``np.asarray(a, dtype=np.float64)``."""
    if a.ndim != 2:
        raise ShapeError(f"one_norm expects a matrix, got shape {a.shape}")
    return float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0


def refresh_finished_segment_reference(
    em: EncodedMatrix, p: int, ib: int, *, counter: FlopCounter | None = None
) -> None:
    """The ``np.triu`` segment refresh (see
    :meth:`repro.abft.encoding.EncodedMatrix.refresh_finished_segment`)."""
    n = em.n
    hi = min(p + ib, n)
    if hi <= p:
        return
    rows = min(hi + 1, n)  # column j's segment is rows [0, min(j+2, n))
    seg = np.triu(em.ext[:rows, p:hi], -(p + 1))
    em.ext[n:, p:hi] = em.weights[:, :rows] @ seg
    if counter is not None:
        counter.add("abft_maintain", em.k * F.segment_refresh_flops(n, p, ib))


class QProtectorReference(QProtector):
    """:class:`~repro.abft.qprotect.QProtector` with the allocating block:
    a fresh ``np.zeros`` block and a fresh ``np.tri`` mask per call."""

    def _block(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        src = a[lo + Q_OFFSET : self.n, lo:hi]
        blk = np.zeros(src.shape, order="F")
        # a masked copy, not np.tril: its where() crawls over F-ordered input
        np.copyto(blk, src, where=np.tri(*src.shape, dtype=bool))
        return blk


def checkpoint_save_reference(em: EncodedMatrix, p: int, ib: int) -> PanelCheckpoint:
    """The copying panel checkpoint (see
    :meth:`repro.abft.checkpoint.DisklessCheckpointStore.save`): fresh
    copies of the panel and the checksum segment, and fresh guard sums."""
    n = em.n
    panel = em.data[:, p : p + ib].copy(order="F")
    return PanelCheckpoint(
        p=p,
        ib=ib,
        panel=panel,
        col_chk_seg=em.ext[n:, p : p + ib].copy(order="F"),
        guard_sums=panel.sum(axis=0),
    )


def threshold_reference(
    policy: ThresholdPolicy,
    n: int,
    norm_a: float,
    sre: float,
    sce: float,
    *,
    dtype: object = np.float64,
    m2: float | None = None,
) -> float:
    """The per-call threshold (see
    :meth:`repro.abft.detection.ThresholdPolicy.threshold`): it resolves
    the kind and re-derives the lane eps on every call."""
    eps = lane_eps(dtype)
    kind = policy.resolve(dtype)
    if kind == "variance":
        if m2 is not None and math.isfinite(m2):
            return policy.sigma_factor * eps * math.sqrt(max(float(n) * m2, 1.0))
        kind = "norm"
    if kind == "norm":
        scale = max(1.0, norm_a) * n
    elif kind == "running":
        scale = max(1.0, abs(sre), abs(sce)) * n
    elif kind == "absolute":
        scale = 1.0
    else:
        raise DetectionError(f"unknown threshold policy kind {policy.kind!r}")
    return policy.eps_factor * eps * scale


def detector_check_reference(
    policy: ThresholdPolicy,
    norm_a: float,
    em: EncodedMatrix,
    *,
    counter: FlopCounter | None = None,
) -> tuple[bool, float | None]:
    """One per-call detector check (see
    :meth:`repro.abft.detection.Detector.check`): ``(detected, threshold)``,
    the threshold None when a non-finite statistic decided first."""
    n = em.n
    dtype = em.ext.dtype
    sre = float(np.sum(em.row_checksums))
    sce = float(np.sum(em.col_checksums))
    if counter is not None:
        k = getattr(em, "k", 1)
        counter.add("abft_detect", 2 * k * k * F.dot_flops(n))
    if not (np.isfinite(sre) and np.isfinite(sce)):
        return True, None
    if getattr(em, "k", 1) > 1:
        gaps = em.cross_gaps()
        if not np.all(np.isfinite(gaps)):
            return True, None
        gap = float(np.max(gaps))
    else:
        gap = abs(sre - sce)
    m2 = checksum_second_moment(em) if policy.needs_m2(dtype) else None
    tol = threshold_reference(policy, n, norm_a, sre, sce, dtype=dtype, m2=m2)
    return gap > tol, tol


# -- the Hessenberg Q ----------------------------------------------------------


def larft_reference(
    v: np.ndarray,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larft",
) -> np.ndarray:
    """The column-loop DLARFT (see :func:`repro.linalg.wy.larft`): one
    GEMV and one TRMV per reflector, forward / columnwise.

    A stack runs each item through the same GEMVs as a 2-D call, so for
    per-item F-ordered input ``T[b]`` is byte-identical to
    ``larft_reference(v[b], taus[b])``. A zero tau leaves its column of
    T zero: the 2-D call skips it, a stack masks it per item.
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


def orghr_reference(
    a_packed: np.ndarray,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "orghr",
) -> np.ndarray:
    """The rank-1 DORGHR (see :func:`repro.linalg.orghr.orghr`): one
    ``np.outer`` update per reflector."""
    n = a_packed.shape[0]
    if a_packed.shape[1] < n or taus.shape[0] < max(n - 1, 0):
        raise ShapeError(f"orghr: inconsistent shapes A {a_packed.shape}, taus {taus.shape}")
    q = np.eye(n, order="F", dtype=a_packed.dtype)
    # Accumulate Q = H_0 H_1 ... H_{n-2} by applying reflectors backwards;
    # H_i only touches rows i+1.., whose columns <= i stay canonical, so the
    # update can be confined to the trailing principal block.
    for i in range(n - 2, -1, -1):
        tau = taus[i]
        if tau == 0.0:
            continue
        u = np.empty(n - i - 1, dtype=a_packed.dtype)
        u[0] = 1.0
        u[1:] = a_packed[i + 2 : n, i]
        block = q[i + 1 : n, i + 1 : n]
        w = u @ block
        block -= tau * np.outer(u, w)
        if counter is not None:
            counter.add(category, 4 * (n - i - 1) * (n - i - 1))
    return q


def apply_q_reference(
    a_packed: np.ndarray,
    taus: np.ndarray,
    c: np.ndarray,
    *,
    trans: bool = False,
    counter: FlopCounter | None = None,
    category: str = "apply_q",
) -> np.ndarray:
    """The rank-1 ``Q @ C`` / ``Qᵀ @ C`` (see
    :func:`repro.linalg.orghr.apply_q`), in place."""
    n = a_packed.shape[0]
    if c.shape[0] != n:
        raise ShapeError(f"apply_q: C has {c.shape[0]} rows, expected {n}")
    order = range(n - 1) if trans else range(n - 2, -1, -1)
    for i in order:
        tau = taus[i]
        if tau == 0.0:
            continue
        u = np.empty(n - i - 1, dtype=a_packed.dtype)
        u[0] = 1.0
        u[1:] = a_packed[i + 2 : n, i]
        rows = c[i + 1 : n, :]
        w = u @ rows
        rows -= tau * np.outer(u, w)
        if counter is not None:
            counter.add(category, 4 * (n - i - 1) * c.shape[1])
    return c


# -- the pooled panel ----------------------------------------------------------


def larfg_reference(
    alpha: float,
    x: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larfg",
) -> Reflector:
    """The per-call DLARFG (see :func:`repro.linalg.householder.larfg`)."""
    if x.ndim != 1:
        raise ShapeError(f"larfg expects a vector, got shape {x.shape}")
    n = x.size
    if counter is not None:
        counter.add(category, F.larfg_flops(n + 1))
    if n == 0:
        return Reflector(float(alpha), 0.0, x)
    # sqrt(x . x) over a contiguous operand is bitwise what np.linalg.norm
    # computes for a 1-D vector (it ravels a strided one into a copy
    # first); BLAS dot over a strided view sums in another order
    xc = x if x.flags.c_contiguous else x.copy()
    xnorm = float(np.sqrt(xc.dot(xc)))
    if xnorm == 0.0:
        return Reflector(float(alpha), 0.0, x)
    beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
    tau = (beta - alpha) / beta
    x /= alpha - beta
    return Reflector(float(beta), float(tau), x)


def lahr2_pooled_reference(
    a: np.ndarray,
    p: int,
    ib: int,
    n: int,
    *,
    counter: FlopCounter | None = None,
    category: str = "panel",
    workspace: Workspace | None = None,
) -> PanelFactors:
    """The pooled DLAHR2 with a ``larfg`` call per column (see
    :func:`repro.linalg.lahr2.lahr2`)."""
    if not (0 <= p and p + ib < n <= min(a.shape)):
        raise ShapeError(f"invalid panel: p={p}, ib={ib}, n={n}, A shape {a.shape}")
    if ib < 1:
        raise ShapeError(f"panel width must be >= 1, got {ib}")

    rows = a.shape[0]
    m1 = n - p - 1  # rows of the dense V block
    dt = a.dtype
    ws = workspace or Workspace()
    v_full = ws.buf("lahr2.v_full", (rows, ib), zero=True, dtype=dt)
    y = ws.buf("lahr2.y", (n, ib), dtype=dt)
    t = ws.buf("lahr2.t", (ib, ib), zero=True, dtype=dt)
    taus = ws.vec("lahr2.taus", ib, zero=True, dtype=dt)
    g = ws.vec("lahr2.g", m1, dtype=dt)
    wjs = ws.buf("lahr2.wjs", (ib, 2), dtype=dt)
    # the VᵀvⱼTᵀ projection chain runs through one stacked (ib, 2) block:
    # column 0 holds the raw projection, column 1 the T-scaled result —
    # a single pooled temporary (each column is a contiguous vector).
    wj = wjs[:, 0]
    wj2 = wjs[:, 1]
    v = v_full[p + 1 : n, :]
    # loop-invariant row windows, hoisted out of the per-column hot loop
    arows = a[p + 1 : n]
    ya = y[p + 1 : n]
    ei = 0.0

    for j in range(ib):
        c = p + j  # global column of reflector j
        bcol = arows[:, c]  # rows p+1..n-1 of column c: the pivot is bcol[j]
        if j > 0:
            # the j reflectors so far, shared by both updates and Y/T below
            yprev = ya[:, :j]
            vprev = v[:, :j]
            tprev = t[:j, :j]
            w = wj[:j]
            w2 = wj2[:j]
            # (1) right-update contribution to column c. The needed V-row
            # (global row p+j) is row j-1 of the dense block — identical
            # to the packed storage row, unit entry included (it is still
            # 1.0 in storage at this point).
            np.matmul(yprev, v[j - 1, :j], out=g)
            bcol -= g

            # (2) left update: apply (I - V Tᵀ Vᵀ) to this column. The
            # dense V (explicit units, explicit zeros) turns the
            # triangular/rectangular split of LAPACK into two GEMVs.
            np.matmul(vprev.T, bcol, out=w)
            np.matmul(tprev.T, w, out=w2)
            np.matmul(vprev, w2, out=g)
            bcol -= g
            # restore the subdiagonal entry overwritten by the unit of
            # reflector j-1
            a[p + j, p + j - 1] = ei

        # Generate reflector j annihilating a[p+j+2 : n, c]
        pivot_row = p + j + 1
        ei, tau, _ = larfg_reference(bcol[j], bcol[j + 1 :])
        bcol[j] = 1.0

        vj = bcol[j:]  # full reflector vector (unit entry in place)
        v[j:, j] = vj  # incremental dense V (rows above j are already zero)

        # Y[p+1:n, j] = tau_j * ( A[p+1:n, p+j+1:n] @ vj  -  Y[p+1:n, :j] @ (V2ᵀ vj) )
        ycol = ya[:, j]
        np.matmul(arows[:, pivot_row:n], vj, out=ycol)
        if j > 0:
            np.matmul(vprev[j:].T, vj, out=w)  # tcol
            np.matmul(yprev, w, out=g)
            ycol -= g
            # T[:j, j] = T[:j,:j] @ (-tau_j * tcol)
            np.multiply(w, -tau, out=w2)
            np.matmul(tprev, w2, out=t[:j, j])
        ycol *= tau
        t[j, j] = tau
        taus[j] = tau

    # restore the subdiagonal entry below the last panel column
    a[p + ib, p + ib - 1] = ei

    # Compute Y[0 : p+1, :] — the top rows: Y_top = A_top @ V (split into
    # the unit-lower-trapezoid part and the rectangular remainder), then @ T.
    k = p + 1
    yt = ws.buf("lahr2.ytop", (k, ib), dtype=dt)
    yt2 = ws.buf("lahr2.ytop2", (k, ib), dtype=dt)
    np.matmul(a[0:k, p + 1 : p + 1 + ib], v[:ib, :], out=yt)
    if n > p + 1 + ib:
        np.matmul(a[0:k, p + 1 + ib : n], v[ib:, :], out=yt2)
        yt += yt2
    np.matmul(yt, t, out=yt2)
    y[0:k, :] = yt2
    if counter is not None:
        counter.add(category, F.lahr2_flops(n, p, ib))

    return PanelFactors(
        p=p, ib=ib, v=v, t=t, y=y, taus=taus, ei=float(ei), v_full=v_full
    )


def larfg_batched_reference(
    alpha: np.ndarray,
    x: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larfg",
) -> tuple[np.ndarray, np.ndarray]:
    """The stacked DLARFG that scales *x* in place (see
    :func:`repro.batch.panel.larfg_batched`)."""
    from repro.batch.panel import hypot_vectorizes_exactly

    if x.ndim != 2:
        raise ShapeError(f"larfg_batched expects a (B, m) block, got {x.shape}")
    b, m = x.shape
    if counter is not None:
        counter.add(category, F.batched_flops(b, F.larfg_flops(m + 1)))
    # beta/tau/denom live in the stack dtype so the per-item arithmetic
    # reproduces the scalar larfg exactly in both lanes: the scalar code
    # computes tau and the scaling denominator with a *weak* Python-float
    # beta against the strong element dtype (NEP 50), i.e. in x.dtype —
    # which is what computing from the cast ``bt_c = beta[i]`` does here.
    beta = np.empty(b, dtype=x.dtype)
    tau = np.zeros(b, dtype=x.dtype)
    if m == 0:
        beta[:] = alpha
        return beta, tau
    # per-item sqrt(x . x) — bitwise what np.linalg.norm computes on a
    # 1-D vector
    xnorm = np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
    active = xnorm != 0.0
    denom = np.ones(b, dtype=x.dtype)
    # Vectorized tail.  The scalar kernel runs hypot/copysign on Python
    # floats (i.e. in float64) and casts the result once into the lane
    # dtype before deriving tau and the scaling denominator — reproduced
    # here operation for operation, so the bytes match B scalar calls
    # exactly.  Only the hypot itself is conditional: np.hypot when the
    # one-time probe proved bit-parity with math.hypot, otherwise a
    # per-item math.hypot sweep (hypot(|al|, 0) == |al| exactly, so
    # running it for inactive items too is harmless — beta is
    # overwritten with alpha for those below).
    a64 = np.asarray(alpha, dtype=np.float64)
    x64 = xnorm.astype(np.float64)
    if hypot_vectorizes_exactly():
        h64 = np.hypot(a64, x64)
    else:
        h64 = np.array([math.hypot(p, q) for p, q in zip(a64.tolist(), x64.tolist())])
    beta[:] = alpha
    np.copyto(beta, (-np.copysign(h64, a64)).astype(x.dtype), where=active)
    np.divide(beta - alpha, beta, out=tau, where=active)
    np.subtract(alpha, beta, out=denom, where=active)
    if active.all():
        x /= denom[:, None]
    else:
        np.divide(x, denom[:, None], out=x, where=active[:, None])
    return beta, tau
