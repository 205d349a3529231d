"""Shadow protection of the tau scalars.

The tau array is tiny (N-1 float64s) but load-bearing: every Householder
transform in the formation of Q reads it, yet no checksum in the paper's
scheme covers it — a corrupted tau silently destroys the orthogonal
factor while the H-side residual stays clean. A full shadow copy costs
8(N-1) bytes (noise next to the O(N·nb) panel checkpoint) and makes
repair trivial: majority-of-two plus the invariant that an unfinished
panel's taus are exactly zero.

The *primary* array is the fault target; the shadow is trusted (struck
independently with probability ~0 under the single-fault model — and the
adversarial grid targets the primary, matching how the live array is the
one exposed to kernel traffic).
"""

from __future__ import annotations

import numpy as np


class TauGuard:
    """Keeps a shadow of the finished-panel tau scalars."""

    def __init__(self, n_taus: int):
        self.shadow = np.zeros(max(n_taus, 0))
        self.finished = 0  # taus [0, finished) are committed
        self.repairs = 0

    def record(self, taus: np.ndarray, p: int, ib: int) -> None:
        """Commit panel ``[p, p+ib)``'s freshly generated taus."""
        hi = min(p + ib, self.shadow.size)
        self.shadow[p:hi] = taus[p:hi]
        self.finished = max(self.finished, hi)

    def rollback(self, p: int, ib: int) -> None:
        """Un-commit the most recent panel (deep-rollback path)."""
        hi = min(p + ib, self.shadow.size)
        self.shadow[p:hi] = 0.0
        self.finished = min(self.finished, p)

    def reset(self) -> None:
        """Forget everything (full-restart path)."""
        self.shadow[:] = 0.0
        self.finished = 0

    def verify_and_repair(self, taus: np.ndarray) -> list[int]:
        """Overwrite any primary tau that disagrees with the shadow.

        Returns the repaired indices. Unfinished entries must be zero —
        a fault landing past ``finished`` is repaired to zero.
        """
        limit = min(taus.size, self.shadow.size)
        want = self.shadow[:limit].copy()
        want[self.finished :] = 0.0
        bad = np.flatnonzero(taus[:limit] != want)  # NaN never compares equal
        taus[bad] = want[bad]
        self.repairs += bad.size
        return bad.tolist()
