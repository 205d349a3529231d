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

* **Self-verifying checkpoints.** The buffer itself is inside the fault
  surface (Bosilca et al.'s point: checksum state must survive the
  faults it guards against), so each snapshot carries its own per-column
  sums, checked at restore time. A corrupted buffer is still restored —
  the locate/correct pass that follows every restore can often repair
  the damage — but the suspect columns are reported so the driver can
  escalate when it cannot.
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

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, UncorrectableError
from repro.abft.encoding import EncodedMatrix


@dataclass
class PanelCheckpoint:
    """Snapshot taken at the top of one iteration. Its arrays are views
    into the store's buffers, valid until the store's next save."""

    p: int
    ib: int
    panel: np.ndarray        # (N, ib) copy of columns [p, p+ib)
    col_chk_seg: np.ndarray  # (k, ib) copy of every channel's Ac_chk[p : p+ib]
    guard_sums: np.ndarray = field(default=None)  # save-time per-column sums

    @property
    def nbytes(self) -> int:
        return self.panel.nbytes + self.col_chk_seg.nbytes

    def suspect_columns(self) -> list[int]:
        """Panel columns whose current sum disagrees with the save-time sum."""
        if self.guard_sums is None:
            return []
        now = self.panel.sum(axis=0)
        bad = ~np.isclose(now, self.guard_sums, rtol=1e-12, atol=0.0)
        bad |= ~np.isfinite(now)
        return [int(j) for j in np.nonzero(bad)[0]]


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
        # the extended panel columns (data, then column checksums) and
        # their guard sums
        self._columns: np.ndarray | None = None
        self._sums: np.ndarray | None = None
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
        if cols is None or cols.shape[0] != rows or cols.shape[1] < ib or cols.dtype != dt:
            cols = self._columns = np.empty((rows, ib), dtype=dt, order="F")
            self._sums = np.empty(ib, dtype=dt)
        cols = cols[:, :ib]
        cols[...] = em.ext[:, p : p + ib]
        panel = cols[:n]
        sums = panel.sum(axis=0, out=self._sums[:ib])
        cp = PanelCheckpoint(p=p, ib=ib, panel=panel, col_chk_seg=cols[n:], guard_sums=sums)
        self.current = cp
        self.saves += 1
        self.peak_bytes = max(self.peak_bytes, cp.nbytes)
        return cp

    def restore(self, em: EncodedMatrix, *, verify: bool = False):
        """Write the checkpointed panel and checksum segments back into *em*.

        With ``verify=True`` returns ``(checkpoint, suspect_columns)``;
        suspect columns are restored anyway (the follow-up locate pass
        sees the corruption against the maintained checksums and can
        often correct it — and escalation covers the rest).
        """
        cp = self.current
        if cp is None:
            raise ReproError("no panel checkpoint to restore")
        suspects = cp.suspect_columns() if verify else []
        if suspects:
            self.corruption_detected += len(suspects)
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
