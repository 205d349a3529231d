"""Protection of the Q matrix — the Householder vectors (paper §IV-E, Fig. 5).

The reflector vectors live strictly below the first subdiagonal of the
finished columns; they are written once per panel and never modified or
read again until Q is formed, so a pair of host-side checksum vectors
suffices:

* ``Qr_chk`` (the dashed line on the *left* in Fig. 5) — one row checksum
  per matrix row, updated incrementally as each panel contributes its
  partial sums;
* ``Qc_chk`` (the dashed line at the *bottom*) — one column checksum per
  finished column, generated segment by segment and never touched again.

Maintenance costs two GEMV-class sweeps per panel; the hybrid driver
schedules them on the CPU underneath the GPU's trailing-matrix update so
they are off the critical path (the paper's headline overlap trick).
Here they are two reductions over one masked block per panel.
Verification happens once, at the end of the factorization, because a Q
error cannot propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import UncorrectableError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.abft.location import LocatedError, LocationReport, decode_residuals

#: Columns per block when :meth:`QProtector.fresh_sums` sweeps the region.
_SWEEP_COLS = 64

#: The first protected subdiagonal: the Hessenberg and tridiagonal
#: reductions store their reflectors below the first subdiagonal.
Q_OFFSET = 2


def _q_mask_col(n: int, j: int) -> slice:
    """Rows of column *j* that belong to the protected reflector region."""
    return slice(j + Q_OFFSET, n)


@dataclass
class QProtector:
    """Maintains and verifies the Q-region checksums.

    Parameters
    ----------
    n:
        Matrix order.
    eps_factor:
        Same roundoff-margin policy as the H detector.
    """

    n: int
    eps_factor: float = 1.0e3
    finished_cols: int = 0
    qr_chk: np.ndarray = field(init=False)
    qc_chk: np.ndarray = field(init=False)

    # the reused float64 block of _block and its cached mask
    _buf: np.ndarray = field(init=False, repr=False, compare=False)
    _upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.qr_chk = np.zeros(self.n)
        self.qc_chk = np.zeros(self.n)
        self._buf = np.empty(0)
        self._upper = np.ones((0, 0), dtype=bool)

    def reset(self) -> None:
        """Forget all maintained state (the full-restart tier: the Q
        region it summarized no longer exists)."""
        self.qr_chk[:] = 0.0
        self.qc_chk[:] = 0.0
        self.finished_cols = 0

    def _block(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The protected entries of columns ``[lo, hi)`` as a float64 copy.

        Rows run from ``lo + Q_OFFSET`` down, so column ``lo + c`` owns rows
        ``c ..`` of the block; the strict upper triangle, which is not
        reflector storage, is zeroed. The block is one reused F-ordered
        buffer (valid until the next call): a plain copy, then zeros
        through a cached mask of the strict upper triangle, which lies
        in the block's top ``cols`` rows (not ``np.tril``, whose
        ``where()`` crawls over F-ordered input).
        """
        src = a[lo + Q_OFFSET : self.n, lo:hi]
        rows, cols = src.shape
        if self._buf.size < rows * cols:
            self._buf = np.empty(rows * cols)
        if self._upper.shape[0] < cols:
            self._upper = ~np.tri(cols, dtype=bool)
        blk = self._buf[: rows * cols].reshape((rows, cols), order="F")
        blk[...] = src
        top = min(rows, cols)
        np.copyto(blk[:top], 0.0, where=self._upper[:top, :cols])
        return blk

    # -- maintenance -------------------------------------------------------

    def update_for_panel(
        self,
        a: np.ndarray,
        p: int,
        ib: int,
        *,
        counter: FlopCounter | None = None,
    ) -> None:
        """Fold the freshly generated panel ``[p, p+ib)`` into the checksums.

        Must be called exactly once per finished panel, in order.
        """
        if p != self.finished_cols:
            raise UncorrectableError(
                f"Q checksum panels must arrive in order: expected {self.finished_cols}, got {p}"
            )
        blk = self._block(a, p, p + ib)
        self.qc_chk[p : p + ib] = blk.sum(axis=0)
        self.qr_chk[p + Q_OFFSET : self.n] += blk.sum(axis=1)
        if counter is not None:
            counter.add("abft_qprotect", F.q_segment_flops(self.n, p, ib, Q_OFFSET))
        self.finished_cols = p + ib

    def rollback_panel(self, a: np.ndarray, p: int, ib: int) -> None:
        """Undo :meth:`update_for_panel` for the *most recent* panel.

        Called by the deep-rollback path before the panel's reflector
        storage is overwritten by the unwinding similarity.
        """
        if p + ib != self.finished_cols:
            raise UncorrectableError(
                f"can only roll back the last Q panel (finished={self.finished_cols}, "
                f"got [{p}, {p + ib}))"
            )
        self.qr_chk[p + Q_OFFSET : self.n] -= self._block(a, p, p + ib).sum(axis=1)
        self.qc_chk[p : p + ib] = 0.0
        self.finished_cols = p

    # -- verification ------------------------------------------------------

    def fresh_sums(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recompute both checksum vectors from the stored Q region.

        The region is swept in blocks of :data:`_SWEEP_COLS` columns, so
        the float64 copy stays small instead of costing 8·n² bytes.
        """
        fr = np.zeros(self.n)
        fc = np.zeros(self.n)
        for lo in range(0, self.finished_cols, _SWEEP_COLS):
            hi = min(lo + _SWEEP_COLS, self.finished_cols)
            blk = self._block(a, lo, hi)
            fc[lo:hi] = blk.sum(axis=0)
            fr[lo + Q_OFFSET :] += blk.sum(axis=1)
        return fr, fc

    def threshold(self, dtype: np.dtype | type = np.float64) -> float:
        # DLARFG bounds every stored reflector entry by 1, so each sum
        # has at most n terms of magnitude <= 1 whatever the scale of A.
        # eps of the *storage* dtype: corrections write float64 checksum
        # arithmetic back into the stored Q region, so at fp32 the
        # re-verification residual carries single-precision cast noise.
        eps = float(np.finfo(np.dtype(dtype)).eps)
        return self.eps_factor * eps * self.n

    def verify(self, a: np.ndarray, *, counter: FlopCounter | None = None) -> LocationReport:
        """Locate Q-region errors (paper: once, at the end of the run)."""
        fr, fc = self.fresh_sums(a)
        if counter is not None:
            counter.add("abft_qprotect", 2 * self.n * F.dot_flops(self.n))
        dr = fr - self.qr_chk
        dc = fc - self.qc_chk
        report = LocationReport(row_residuals=dr.copy(), col_residuals=dc.copy())
        report.errors = decode_residuals(dr, dc, self.threshold(a.dtype))
        return report

    def correct(
        self,
        a: np.ndarray,
        errors: list[LocatedError],
        *,
        counter: FlopCounter | None = None,
    ) -> int:
        """Correct located Q-region errors in place (paper's dot-product
        formula applied along the column segment)."""
        n = self.n
        for e in errors:
            if e.kind == "data":
                i, j = e.row, e.col
                rows = _q_mask_col(n, j)
                if not (rows.start <= i < n and 0 <= j < self.finished_cols):
                    raise UncorrectableError(f"Q error index out of range: ({i}, {j})")
                col = a[rows, j]
                # the other entries, summed in float64 like the maintained
                # checksums, without the faulty one: subtracting a large
                # fault back out of the sum would leave its rounding behind
                k = i - rows.start
                others = float(np.sum(col[:k], dtype=np.float64)) + float(
                    np.sum(col[k + 1 :], dtype=np.float64)
                )
                a[i, j] = self.qc_chk[j] - others
                if counter is not None:
                    counter.add("abft_correct", F.dot_flops(col.size) + 1)
            elif e.kind == "row_checksum":
                i = e.row
                total = 0.0
                for j in range(self.finished_cols):
                    if i >= j + Q_OFFSET:
                        total += float(a[i, j])
                self.qr_chk[i] = total
            elif e.kind == "col_checksum":
                j = e.col
                rows = _q_mask_col(n, j)
                self.qc_chk[j] = float(np.sum(a[rows, j], dtype=np.float64))
            else:
                raise UncorrectableError(f"unknown Q error kind {e.kind!r}")
        return len(errors)

    def verify_and_correct(
        self, a: np.ndarray, *, counter: FlopCounter | None = None
    ) -> LocationReport:
        """End-of-factorization check: locate, correct, re-verify."""
        report = self.verify(a, counter=counter)
        if report.errors:
            self.correct(a, report.errors, counter=counter)
            residual = self.verify(a, counter=counter)
            if residual.errors:
                raise UncorrectableError(
                    f"Q correction did not converge: {residual.errors}"
                )
        return report
