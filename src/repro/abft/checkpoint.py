"""Diskless checkpointing of the active panel (paper §IV, Plank et al.).

Before each panel factorization the fault-tolerant driver snapshots the
panel columns (all N rows) and the column-checksum entries that the
iteration will overwrite, into a main-memory buffer. On detection, the
rollback restores the panel from this buffer — the factorization itself
is *not* reversible (Householder generation is nonlinear in the data),
which is exactly why the paper pairs reverse computation (for the linear
trailing updates) with a diskless checkpoint (for the panel).

The store keeps only the most recent checkpoint: once an iteration's
detection check passes, the previous panel can never be needed again.

Two hardening extensions beyond the paper:

* **Self-repairing checkpoints.** The buffer itself is inside the fault
  surface (Bosilca et al.'s point: checksum state must survive the
  faults it guards against), so each snapshot carries guard rows: its
  unit per-column sums and, in float64 on both lanes, its sums weighted
  by the encoding's linear and quadratic channels (``w(i) = (i+1)/n``
  and ``w(i)²``). At restore time a column whose unit sum moved is
  checked against all three: one struck element at row i moves them by
  ``e``, ``e w(i)`` and ``e w(i)²``, so the Huang–Abraham ratio places
  it and a saved sum repairs it. A column the guards cannot pin to one
  element (two strikes, a non-finite value) is restored as it is and
  reported, so the driver escalates.
* **The restart tier's substrate** (:meth:`save_initial`): a read-only
  view of the driver's input plus copies of its encode-time checksum
  blocks (k·2N values), kept for the lifetime of the run. A recovery
  path corrupted beyond local repair re-encodes the input and redoes
  the factorization from iteration 0. The kept checksums verify the
  input first (Bosilca et al.: the state recovery depends on must be
  verified too), so a restart never starts from a matrix that changed
  during the run. No n² snapshot is taken.

The panel checkpoint lives in store-owned buffers, allocated on the
first save and reused by every later one; a :class:`PanelCheckpoint`
holds views into them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, UncorrectableError
from repro.abft.encoding import EncodedMatrix, make_weight_block
from repro.utils.precision import lane_eps

#: Rounding allowance of the repair's tolerances, in units of eps times
#: the absolute weighted sum of the column.
_REPAIR_SLACK = 16.0


@functools.lru_cache(maxsize=64)
def guard_weights(n: int) -> np.ndarray:
    """The weighted guard rows' weights, (2, n) float64 and read-only: the
    encoding's linear and quadratic channels, ``w(i) = (i+1)/n`` and
    ``w(i)²``. Cached per n, since every run of a size builds them."""
    w = make_weight_block(n, 3)[1:]
    w.flags.writeable = False
    return w


def _unit_agrees(now, saved) -> np.ndarray:
    """Whether unit column sums *now* still match the save-time ones."""
    return np.isclose(now, saved, rtol=1e-12, atol=0.0) & np.isfinite(now)


@dataclass
class PanelCheckpoint:
    """Snapshot taken at the top of one iteration. Its arrays are views
    into the store's buffers, valid until the store's next save."""

    p: int
    ib: int
    panel: np.ndarray        # (N, ib) copy of columns [p, p+ib)
    col_chk_seg: np.ndarray  # (k, ib) copy of every channel's Ac_chk[p : p+ib]
    guard_sums: np.ndarray = field(default=None)  # save-time per-column sums
    # save-time per-column sums weighted by guard_weights(N), (2, ib) float64
    weighted_sums: np.ndarray = field(default=None)

    @property
    def nbytes(self) -> int:
        return self.panel.nbytes + self.col_chk_seg.nbytes

    def suspect_columns(self) -> list[int]:
        """Panel columns whose current sum disagrees with the save-time sum."""
        if self.guard_sums is None:
            return []
        bad = ~_unit_agrees(self.panel.sum(axis=0), self.guard_sums)
        return [int(j) for j in np.nonzero(bad)[0]]

    def repair(self, j: int) -> bool:
        """Repair one struck element of panel column *j* in place from its
        guard rows; True when every guard agrees with the column again.

        A lone error ``e`` at row ``i`` moves the unit sum by ``e`` and
        the weighted ones by ``e w(i)`` and ``e w(i)²``, so the ratio of
        the two float64 guards, ``n Δq/Δw − 1``, is ``i`` (the unit sum's
        own rounding would blur a small fp32 strike's place), and all
        three deltas must name the same ``e`` there, the unit one to its
        lane's rounding. Two strikes in one column can fit the unit and
        linear guards (equal ones at rows ``i ± d`` look like ``2e`` at
        ``i``); the quadratic one differs from that by ``2e d²/n²``, so
        it tells them apart unless that is within its rounding allowance.
        The element is rewritten from a saved float64 sum minus the other
        entries, as :meth:`~repro.abft.qprotect.QProtector.correct` does:
        the unit sum on the float64 lane, the linear one on fp32, whose
        unit sum is an fp32 sum. A column the guards cannot explain (two
        strikes, a non-finite or inconsistent ratio) is left unwritten.
        """
        col = self.panel[:, j]
        n = col.size
        x = np.vstack([np.ones(n), guard_weights(n)])
        saved = np.array([self.guard_sums[j], *self.weighted_sums[:, j]])
        # the unit sum is a lane sum; the weighted ones are float64
        eps = np.array([lane_eps(col.dtype), lane_eps(np.float64), lane_eps(np.float64)])

        def deltas():
            """Each guard's delta and its rounding allowance."""
            return x @ col - saved, _REPAIR_SLACK * eps * (x @ np.abs(col))

        d, tol = deltas()
        if not np.isfinite(d).all() or not np.isfinite(tol).all() or d[1] == 0.0:
            return False
        ratio = n * float(d[2]) / float(d[1]) - 1.0
        if not -0.5 < ratio < n - 0.5:
            return False
        i = int(round(ratio))
        err, res = d / x[:, i], tol / x[:, i]  # the error each guard names
        if abs(err[1] - err[0]) > res[1] + res[0] or abs(err[2] - err[1]) > res[2] + res[1]:
            return False
        r = 0 if col.dtype == np.float64 else 1
        others = float(x[r, :i] @ col[:i]) + float(x[r, i + 1 :] @ col[i + 1 :])
        old = col[i]
        col[i] = (saved[r] - others) / x[r, i]
        d, tol = deltas()
        # the rewritten element is exact to its guard's rounding and one
        # rounding to the lane
        slack = tol[1:] + x[1:, i] * (tol[r] / x[r, i] + eps[0] * abs(float(col[i])))
        if _unit_agrees(col.sum(), self.guard_sums[j]) and (np.abs(d[1:]) <= slack).all():
            return True
        col[i] = old
        return False


class DisklessCheckpointStore:
    """Holds the single live panel checkpoint, the restart substrate, and
    usage statistics."""

    def __init__(self) -> None:
        self.current: PanelCheckpoint | None = None
        # the restart substrate: a read-only view of the input and its
        # encode-time row- and column-checksum blocks
        self.source: np.ndarray | None = None
        self.source_checksums: tuple[np.ndarray, np.ndarray] | None = None
        # the panel checkpoint's buffers, allocated on the first save:
        # the extended panel columns (data, then column checksums), their
        # unit guard sums, and the weights and float64 sums of the two
        # weighted guard rows
        self._columns: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._wsums: np.ndarray | None = None
        self.saves = 0
        self.restores = 0
        self.peak_bytes = 0
        self.initial_saves = 0
        self.initial_restores = 0
        self.corruption_detected = 0

    def save(self, em: EncodedMatrix, p: int, ib: int) -> PanelCheckpoint:
        """Snapshot panel ``[p, p+ib)`` of *em*; replaces any prior checkpoint."""
        n, rows, dt = em.n, em.ext.shape[0], em.ext.dtype
        cols = self._columns
        if (cols is None or cols.shape[0] != rows or cols.shape[1] < ib or cols.dtype != dt
                or self._weights.shape[1] != n):
            cols = self._columns = np.empty((rows, ib), dtype=dt, order="F")
            self._sums = np.empty(ib, dtype=dt)
            self._weights = guard_weights(n)
            self._wsums = np.empty(2 * ib)
        cols = cols[:, :ib]
        cols[...] = em.ext[:, p : p + ib]
        panel = cols[:n]
        sums = panel.sum(axis=0, out=self._sums[:ib])
        wsums = np.matmul(self._weights, panel, out=self._wsums[: 2 * ib].reshape(2, ib))
        cp = PanelCheckpoint(p=p, ib=ib, panel=panel, col_chk_seg=cols[n:],
                             guard_sums=sums, weighted_sums=wsums)
        self.current = cp
        self.saves += 1
        self.peak_bytes = max(self.peak_bytes, cp.nbytes)
        return cp

    def restore(self, em: EncodedMatrix, *, verify: bool = False):
        """Write the checkpointed panel and checksum segments back into *em*.

        With ``verify=True`` each column whose guard sums moved is first
        repaired (:meth:`PanelCheckpoint.repair`), and the call returns
        ``(checkpoint, suspect_columns)`` with the columns it could not
        repair. Those are restored anyway (the follow-up locate pass sees
        the corruption against the maintained checksums and can often
        correct it — and escalation covers the rest).
        """
        cp = self.current
        if cp is None:
            raise ReproError("no panel checkpoint to restore")
        suspects = cp.suspect_columns() if verify else []
        if suspects:
            self.corruption_detected += len(suspects)
            suspects = [j for j in suspects if not cp.repair(j)]
        em.data[:, cp.p : cp.p + cp.ib] = cp.panel
        em.ext[em.n :, cp.p : cp.p + cp.ib] = cp.col_chk_seg
        self.restores += 1
        if verify:
            return cp, suspects
        return cp

    def drop_current(self) -> None:
        """Invalidate the live panel checkpoint (restart path: the state
        it snapshots no longer exists)."""
        self.current = None

    # -- the restart tier's substrate --------------------------------------

    def save_initial(self, em: EncodedMatrix, source: np.ndarray) -> None:
        """Keep the restart substrate for the run: a read-only view of
        *source*, the input *em* was just encoded from, and copies of
        *em*'s encode-time checksum blocks. The caller must not write
        *source* until the run ends; :meth:`restore_initial` checks it."""
        view = source.view()
        view.flags.writeable = False
        n = em.n
        self.source = view
        self.source_checksums = (
            em.ext[:n, n:].copy(order="F"),
            em.ext[n:, :n].copy(order="F"),
        )
        self.initial_saves += 1

    def restore_initial(self, em: EncodedMatrix) -> None:
        """Rebuild the entire encoded state from the input: copy it into
        *em* and re-encode.

        Raises :class:`~repro.errors.UncorrectableError` when the
        re-encoded checksum blocks differ, bytewise (so NaN payloads
        compare too), from the encode-time ones: the input changed
        during the run, and restarting would reduce a different matrix.
        """
        if self.source is None:
            raise ReproError("no input saved to restart from")
        n = em.n
        em.data[...] = self.source
        em.encode()
        rows, cols = self.source_checksums
        if (
            em.ext[:n, n:].tobytes(order="F") != rows.tobytes(order="F")
            or em.ext[n:, :n].tobytes(order="F") != cols.tobytes(order="F")
        ):
            raise UncorrectableError(
                "restart refused: the input matrix changed during the run "
                "(its re-encoded checksums differ from the encode-time ones)"
            )
        self.initial_restores += 1
