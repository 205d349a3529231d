"""Error location (paper §IV-F) — single errors and non-rectangular
multi-error patterns.

After the rollback restores a checksum-consistent previous state, fresh
row/column sums of the mathematical matrix are recomputed and compared
against the maintained checksum vectors. Rows and columns whose residual
exceeds the threshold are candidates:

* one row + one column           → a single data error at their crossing;
* bad rows with *no* bad columns → the row-checksum elements themselves
  were hit (a data error always perturbs both vectors); symmetric for
  columns;
* several rows and columns       → multiple simultaneous errors, resolved
  by **iterative peeling**:

  1. if only one bad row remains, every remaining bad column's error lies
     in that row (magnitude = the column residual); symmetric for one bad
     column;
  2. otherwise peel any (row, column) pair whose residuals match uniquely
     — such a pair can only be a lone error on both of its lines.

  The paper's correctability condition — error positions not forming a
  rectangle — is exactly the condition under which peeling makes progress
  (a rectangle with consistent magnitudes leaves every line with ≥2
  errors and no unique match). An unpeelable pattern raises
  :class:`~repro.errors.UncorrectableError`.

Location is O(N²) array work next to the O(N³) reduction, and the
decoders keep it so: they test whole sets of lines with NumPy instead of
one (row, column) pair or one line per Python call, which matters most
when a recovery tier decodes a smeared pattern of hundreds of lines
before it refuses it. Their results are those of the scalar decoders
kept in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import UncorrectableError
from repro.linalg.flops import FlopCounter
from repro.abft.encoding import EncodedMatrix


@dataclass(frozen=True)
class LocatedError:
    """A located soft error.

    ``kind`` is ``"data"`` (fix ``A[row, col]``), ``"row_checksum"``
    (fix the row-checksum element ``[row]`` of *channel*) or
    ``"col_checksum"`` (dito for a column checksum); ``magnitude`` is the
    signed corruption the correction must remove (corrupted value minus
    true value). *channel* is always 0 under the paper's unit encoding.
    """

    kind: str
    row: int
    col: int
    magnitude: float
    channel: int = 0


@dataclass
class LocationReport:
    """Everything the locator derived, for reporting and tests."""

    errors: list[LocatedError] = field(default_factory=list)
    row_residuals: np.ndarray | None = None
    col_residuals: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.errors)


def residual_threshold(em: EncodedMatrix, norm_a: float, eps_factor: float = 1.0e3) -> float:
    """Per-line residual threshold for candidate selection.

    At float64 this is the norm-scaled bound the paper implies
    (``eps_factor · eps · max(1, ‖A‖₁) · N``). Below double precision
    that bound sits orders of magnitude *above* the variance-adaptive
    detection threshold — corruption the detector flags would be
    unlocatable, forcing a restart — so the fp32 lane scales with the
    observed checksum energy instead: ``sigma_factor · eps · sqrt(m2)``,
    the per-line analogue of the V-ABFT grand-sum rule (one sqrt(N)
    fewer, since a line residual accumulates N terms, not N²). The
    caller's *eps_factor* still acts as a relative tighten/loosen knob.
    """
    eps = float(np.finfo(em.ext.dtype).eps)
    if em.ext.dtype.itemsize >= 8:
        return eps_factor * eps * max(1.0, norm_a) * em.n
    from repro.abft.detection import (
        DEFAULT_EPS_FACTOR,
        DEFAULT_SIGMA_FACTOR,
        checksum_second_moment,
    )

    m2 = checksum_second_moment(em)
    if not np.isfinite(m2) or m2 <= 0.0:
        return eps_factor * eps * max(1.0, norm_a) * em.n
    rel = eps_factor / DEFAULT_EPS_FACTOR
    return rel * DEFAULT_SIGMA_FACTOR * eps * float(np.sqrt(max(m2, 1.0)))


#: Bad rows per block when :func:`decode_residuals` builds its match
#: table, so each float temporary holds 64 x (bad columns) entries.
_MATCH_ROWS = 64


def _close(a, b, tol: float):
    """The residual match test, elementwise: ``|a − b| ≤ max(tol,
    1e-9·max(|a|, |b|))``. Residual comparisons need the magnitude-relative
    term: the sums' roundoff scales with the corruption size itself."""
    return np.abs(a - b) <= np.maximum(tol, 1e-9 * np.maximum(np.abs(a), np.abs(b)))


class _MatchTable:
    """The (bad row x bad column) match table of the peeling decoder,
    kept as counts.

    Entry (r, c) is ``_close(dr[rows[r]], dc[cols[c]])``. Peeling needs
    only each row's match count, each column's, and the column of a row
    with one match, so only those are kept. A peel retires a row whose one
    match is a column matched by that row alone, then re-matches that
    column against its new residual, so no other entry changes and the
    counts update in one pass over the live rows.
    """

    def __init__(self, dr: np.ndarray, dc: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, tol: float):
        self.dc, self.cols, self.tol = dc, cols, tol
        self.a = dr[rows]
        self.live = np.ones(rows.size, dtype=bool)
        self.row_count = np.empty(rows.size, dtype=np.intp)
        self.first = np.empty(rows.size, dtype=np.intp)
        self.col_count = np.zeros(cols.size, dtype=np.intp)
        b = dc[cols]
        for lo in range(0, rows.size, _MATCH_ROWS):
            hi = min(lo + _MATCH_ROWS, rows.size)
            block = _close(self.a[lo:hi, None], b, tol)
            self.row_count[lo:hi] = block.sum(axis=1)
            self.first[lo:hi] = block.argmax(axis=1)
            self.col_count += block.sum(axis=0)

    def next_pair(self) -> tuple[int, int] | None:
        """Positions of the first live row, in row order, with exactly one
        match whose column matches back exactly once; None if none does."""
        one = np.flatnonzero(self.live & (self.row_count == 1))
        ok = one[self.col_count[self.first[one]] == 1]
        if not ok.size:
            return None
        r = int(ok[0])
        return r, int(self.first[r])

    def peeled(self, r: int, c: int, col_clean: bool) -> None:
        """Retire row *r* and re-match column *c* (dropped if clean)."""
        self.live[r] = False
        self.col_count[c] = 0
        if col_clean:
            return
        hit = _close(self.a, self.dc[self.cols[c]], self.tol) & self.live
        self.first[hit & (self.row_count == 0)] = c
        self.row_count += hit
        self.col_count[c] = int(hit.sum())


def decode_residuals(dr: np.ndarray, dc: np.ndarray, tol: float) -> list[LocatedError]:
    """Decode row/column residuals into located errors by peeling.

    *dr*/*dc* hold float64 ``fresh − maintained`` sums (a corruption of
    magnitude ``m`` at (i, j) contributes ``+m`` to both ``dr[i]`` and
    ``dc[j]``; a corrupted row-checksum element contributes ``−m`` to
    ``dr[i]`` only). The arrays are consumed (modified in place on a copy
    made by the caller). Shared by the H-matrix locator, the Q protector
    and the tridiagonal audit.

    The magnitude peel works on whole arrays: the (bad rows x bad
    columns) match table is built once with NumPy, in blocks of
    :data:`_MATCH_ROWS` rows, and each peel updates its counts in one
    pass (:class:`_MatchTable`). The result — errors, magnitudes and
    error messages — is the scalar decoder's
    (:func:`repro.perf.reference.decode_residuals_reference`), which
    tests hold it to.
    """
    errors: list[LocatedError] = []

    # non-finite residuals (Inf/NaN corruption) always count as bad lines —
    # plain magnitude comparison would silently drop them
    bad_rows = set(np.flatnonzero((np.abs(dr) > tol) | ~np.isfinite(dr)).tolist())
    bad_cols = set(np.flatnonzero((np.abs(dc) > tol) | ~np.isfinite(dc)).tolist())
    table: _MatchTable | None = None

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
        # The total is summed in set order: its rounding reaches the
        # consistency verdict and the message.
        if len(bad_rows) == 1:
            i = next(iter(bad_rows))
            total = sum(dc[j] for j in bad_cols)
            if not _close(dr[i], total, tol) and np.isfinite(total):
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
            if not _close(dc[j], total, tol) and np.isfinite(total):
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
        if table is None:
            rows = np.array(sorted(bad_rows), dtype=np.intp)
            cols = np.array(sorted(bad_cols), dtype=np.intp)
            table = _MatchTable(dr, dc, rows, cols, tol)
        pair = table.next_pair()
        if pair is None:
            raise UncorrectableError(
                "error pattern cannot be peeled (rectangular or ambiguous): "
                f"rows {sorted(bad_rows)}, cols {sorted(bad_cols)}"
            )
        r, c = pair
        i, j = int(rows[r]), int(cols[c])
        m = float(dr[i])
        errors.append(LocatedError("data", i, j, m))
        dr[i] -= m
        dc[j] -= m
        bad_rows.discard(i)
        col_clean = abs(dc[j]) <= tol
        if col_clean:
            bad_cols.discard(j)
        table.peeled(r, c, col_clean)
    else:
        raise UncorrectableError(
            f"peeling did not converge: rows {sorted(bad_rows)}, cols {sorted(bad_cols)}"
        )
    return errors


def locate_errors(
    em: EncodedMatrix,
    finished_cols: int,
    norm_a: float,
    *,
    eps_factor: float = 1.0e3,
    counter: FlopCounter | None = None,
) -> LocationReport:
    """Locate every correctable error in the (rolled-back) encoded matrix.

    Parameters
    ----------
    em:
        The encoded matrix, rolled back to a checksum-consistent state
        (apart from the corruption being located).
    finished_cols:
        Number of reduced columns at the rolled-back state (their
        sub-subdiagonal storage is Q data, excluded from the sums).
    norm_a:
        1-norm of the original input (threshold scale).

    Raises
    ------
    UncorrectableError
        If the residual pattern cannot be resolved by peeling (the paper's
        rectangle condition) or is internally inconsistent.
    """
    tol = residual_threshold(em, norm_a, eps_factor)
    fresh_r, fresh_c = em.fresh_sums(finished_cols, counter=counter)

    if em.k > 1:
        drb = np.asarray(fresh_r - em.row_checksum_block, dtype=np.float64).copy()
        dcb = np.asarray(fresh_c - em.col_checksum_block, dtype=np.float64).copy()
        report = LocationReport(
            row_residuals=drb[:, 0].copy(), col_residuals=dcb[0].copy()
        )
        report.errors = decode_residuals_weighted(drb, dcb, em.weights, tol)
        return report

    dr = np.asarray(fresh_r - em.row_checksums, dtype=np.float64).copy()
    dc = np.asarray(fresh_c - em.col_checksums, dtype=np.float64).copy()

    report = LocationReport(row_residuals=dr.copy(), col_residuals=dc.copy())
    report.errors = decode_residuals(dr, dc, tol)
    return report


def _ratio_decode(vecs: np.ndarray, weights: np.ndarray, tol: float) -> np.ndarray:
    """The ratio test on many lines at once.

    *vecs* is (lines, k): one line's residual on every channel per row.
    Returns, per line, the crossing index on the other axis that a lone
    error ``vec = m · weights[:, index]`` gives (``m = vec[0]``,
    ``index = round(n · vec[1] / m) − 1``), or −1 where the line is not
    ratio-decodable: ``m`` non-finite or within *tol*, a non-finite
    ratio, an index out of range, or some channel farther than
    ``max(tol, 1e-8·|m|)`` from the prediction. The prediction is formed
    in the weights' dtype, as a scalar ``m`` times a weight column is.
    """
    n = weights.shape[1]
    m = vecs[:, 0]
    with np.errstate(all="ignore"):
        other = np.rint(vecs[:, 1] / m * n) - 1
        ok = np.isfinite(m) & (np.abs(m) > tol) & (other >= 0) & (other < n)
        idx = np.where(ok, other, 0).astype(np.intp)
        target = m.astype(weights.dtype)[:, None] * weights[:, idx].T
        far = np.abs(vecs - target) > np.maximum(tol, 1e-8 * np.abs(m))[:, None]
    ok &= ~far.any(axis=1)
    return np.where(ok, idx, -1)


def decode_residuals_weighted(
    drb: np.ndarray, dcb: np.ndarray, weights: np.ndarray, tol: float
) -> list[LocatedError]:
    """Decode residuals under the weighted (k ≥ 2) encoding.

    *drb* is (N, k): per-row float64 ``fresh − maintained`` for every
    channel; *dcb* is (k, N) for the columns; *weights* is the (k, N)
    weight matrix whose channel 1 is strictly increasing.

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

    Each round finds the bad lines and runs the ratio test on all of them
    as array expressions (:func:`_ratio_decode`), then peels the first
    success: rows in order, then columns. A line whose ratio is not
    finite is simply not ratio-decodable. Otherwise the result is the
    scalar decoder's
    (:func:`repro.perf.reference.decode_residuals_weighted_reference`).
    """
    n, k = drb.shape
    if k < 2:
        raise UncorrectableError("weighted decode needs at least two channels")
    errors: list[LocatedError] = []

    guard = 2 * n + 4
    for _ in range(guard):
        hot_r = (np.abs(drb) > tol) | ~np.isfinite(drb)  # (n, k)
        hot_c = (np.abs(dcb) > tol) | ~np.isfinite(dcb)  # (k, n)
        bad_rows = np.flatnonzero(hot_r.any(axis=1))
        bad_cols = np.flatnonzero(hot_c.any(axis=0))
        if not bad_rows.size and not bad_cols.size:
            break

        # ratio peel: the first decodable row, else the first column
        peel = None
        if bad_rows.size:
            other = _ratio_decode(drb[bad_rows], weights, tol)
            hits = np.flatnonzero(other >= 0)
            if hits.size:
                peel = (True, int(bad_rows[hits[0]]), int(other[hits[0]]))
        if peel is None and bad_cols.size:
            other = _ratio_decode(dcb[:, bad_cols].T, weights, tol)
            hits = np.flatnonzero(other >= 0)
            if hits.size:
                peel = (False, int(bad_cols[hits[0]]), int(other[hits[0]]))
        if peel is not None:
            along_rows, idx, other = peel
            if along_rows:
                m = float(drb[idx, 0])
                errors.append(LocatedError("data", idx, other, m))
                drb[idx] -= m * weights[:, other]
                dcb[:, other] -= m * weights[:, idx]
            else:
                m = float(dcb[0, idx])
                errors.append(LocatedError("data", other, idx, m))
                dcb[:, idx] -= m * weights[:, other]
                drb[other] -= m * weights[:, idx]
            continue

        # checksum-element signatures: exactly one channel of one side hot
        progress = False
        for i in bad_rows[hot_r[bad_rows].sum(axis=1) == 1].tolist():
            q = int(np.argmax(hot_r[i]))
            errors.append(LocatedError("row_checksum", i, -1, float(-drb[i, q]), q))
            drb[i, q] = 0.0
            progress = True
        for j in bad_cols[hot_c[:, bad_cols].sum(axis=0) == 1].tolist():
            q = int(np.argmax(hot_c[:, j]))
            errors.append(LocatedError("col_checksum", -1, j, float(-dcb[q, j]), q))
            dcb[q, j] = 0.0
            progress = True
        if not progress:
            raise UncorrectableError(
                "weighted decode stalled: "
                f"rows {bad_rows[:8].tolist()}, cols {bad_cols[:8].tolist()}"
            )
    else:
        raise UncorrectableError("weighted decode did not converge")
    return errors
