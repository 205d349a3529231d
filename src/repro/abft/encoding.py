"""Checksum encoding of the input matrix (paper §IV-B, Fig. 3) —
generalized to multiple weight channels (Huang & Abraham, the paper's
refs [11]–[13]).

The paper's scheme is the single **unit channel**: the N x N input is
embedded in an (N+1) x (N+1) array whose last column holds ``r = A e``
(``Ar_chk``) and last row holds ``c = eᵀ A`` (``Ac_chk``). With ``k``
channels the array is (N+k) x (N+k): channel ``q`` contributes the
column ``A w_q`` and the row ``w_qᵀ A``, where ``w_0 = e`` and further
channels are powers of the normalized linear weights ``w_1(i) = (i+1)/N``
(kept O(1) so thresholds don't blow up). The extra channel buys
**per-line error localisation by ratio** — ``(A w_1)_i / (A w_0)_i``
recovers the faulty column index of a single error in row i — which is
what resolves multi-error patterns the unit scheme alone provably cannot
(see ``decode_residuals_weighted``).

During the factorization the maintained checksums track the
*mathematical* matrix — the one in which annihilated entries are
genuinely zero even though the storage re-uses them for Householder
vectors (the paper's "yellow part and red part" of Fig. 4(f)). The
``fresh_*`` methods therefore mask the Q region (strictly below the
first subdiagonal of *finished* columns) when recomputing sums for
detection and location.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.linalg.flops import FlopCounter
from repro.linalg import flops as F


def linear_weights(n: int, dtype: np.dtype | type = np.float64) -> np.ndarray:
    """The default second channel: ``w(i) = (i+1)/n`` — strictly
    increasing (so the ratio test inverts uniquely) and O(1)-bounded."""
    return ((np.arange(n, dtype=np.float64) + 1.0) / n).astype(dtype, copy=False)


def make_weight_block(
    n: int, channels: int, dtype: np.dtype | type = np.float64
) -> np.ndarray:
    """The (k, n) weight matrix: unit row first, then the linear channel,
    then (rarely needed) quadratic and higher polynomial channels.

    Weights are generated in float64 and cast to *dtype*, so the fp32
    lane uses the correctly-rounded singles of the same mathematical
    weights."""
    if channels < 1:
        raise ShapeError(f"need at least one checksum channel, got {channels}")
    dt = np.dtype(dtype)
    rows = [np.ones(n, dtype=dt)]
    base = linear_weights(n)
    for q in range(1, channels):
        rows.append((base**q).astype(dt, copy=False))
    return np.vstack(rows)


class EncodedMatrix:
    """An N x N matrix extended with k checksum columns and k checksum rows.

    Attributes
    ----------
    ext:
        The (N+k) x (N+k) Fortran-ordered storage. ``ext[:N, :N]`` is the
        matrix data, ``ext[:N, N:]`` the row-checksum columns (one per
        channel), ``ext[N:, :N]`` the column-checksum rows. The
        (k x k) corner is *scratch by contract*: nothing ever reads it,
        and the fused in-place kernels of :mod:`repro.abft.checksums`
        may write into it (their stacked GEMM covers the full extended
        column block), so its contents are unspecified.
    weights:
        The (k, N) weight matrix; row 0 is all-ones (the paper's scheme).

    ``ext`` may also be a ``(B, N+k, N+k)`` stack with every item
    F-contiguous (:class:`~repro.batch.stack.EncodedMatrixBatch`): the
    views, :meth:`encode`, :meth:`refresh_finished_segment` and
    :meth:`cross_gaps` then act on every item through the same calls,
    giving each item the bytes its own matrix would get. The recovery
    methods (``_masked``, the ``fresh_*`` sums, :meth:`checksum_gap`)
    take one matrix: a stack is never recovered, only ejected.
    """

    # reused scratch of refresh_finished_segment: the masked panel, sized
    # on the first call for n rows at its width (a segment has at most n
    # rows), and the strictly upper triangular mask of its tail; and of
    # _masked: the masked matrix and the Q region's mask
    # (class defaults, so views built without __init__ have them too)
    _seg: np.ndarray | None = None
    _upper: np.ndarray | None = None
    _mat: np.ndarray | None = None
    _qmask: np.ndarray | None = None

    def __init__(
        self,
        a: np.ndarray,
        *,
        channels: int = 1,
        counter: FlopCounter | None = None,
    ):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"EncodedMatrix needs a square matrix, got {a.shape}")
        n = a.shape[0]
        self.n = n
        dt = a.dtype if a.dtype == np.float32 else np.dtype(np.float64)
        self.weights = make_weight_block(n, channels, dt)
        self.k = self.weights.shape[0]
        # every entry but the scratch corner is written below; the corner
        # is zeroed so that a kernel whose operand spans it reads numbers
        self.ext = np.empty((n + self.k, n + self.k), order="F", dtype=dt)
        self.ext[:n, :n] = a
        self.ext[n:, n:] = 0.0
        self.encode(counter=counter)

    # -- views ------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The N x N matrix block (a view)."""
        return self.ext[..., : self.n, : self.n]

    @property
    def row_checksums(self) -> np.ndarray:
        """The unit-channel row-checksum column ``Ar_chk`` (a view)."""
        return self.ext[..., : self.n, self.n]

    @property
    def col_checksums(self) -> np.ndarray:
        """The unit-channel column-checksum row ``Ac_chk`` (a view)."""
        return self.ext[..., self.n, : self.n]

    @property
    def row_checksum_block(self) -> np.ndarray:
        """All k row-checksum columns, shape (N, k) (a view)."""
        return self.ext[..., : self.n, self.n :]

    @property
    def col_checksum_block(self) -> np.ndarray:
        """All k column-checksum rows, shape (k, N) (a view)."""
        return self.ext[..., self.n :, : self.n]

    # -- encoding ----------------------------------------------------------

    def encode(self, *, counter: FlopCounter | None = None) -> None:
        """(Re)compute every checksum vector from the matrix data.

        This is the paper's Algorithm 3 line 2 — two GEMV-class sweeps
        per channel (``FLOPinit = k(4N² − 2N)``).
        """
        n = self.n
        self.ext[..., :n, n:] = self.data @ self.weights.T
        self.ext[..., n:, :n] = self.weights @ self.data
        if counter is not None:
            b = math.prod(self.ext.shape[:-2])
            counter.add("abft_init", b * 2 * self.k * n * F.dot_flops(n))

    # -- fresh sums over the mathematical (yellow+red) matrix --------------

    def _masked(self, finished_cols: int) -> np.ndarray:
        """The mathematical matrix: Q-region of finished columns zeroed.

        A copy of the data into reused C-ordered scratch, the layout
        ``data.copy()`` returns, so products with it give the same bits;
        the region (entries ``(i, j)`` with ``j < finished_cols`` and
        ``i ≥ j + 2``) is zeroed through a cached mask. The next call
        overwrites the scratch, so callers use the result at once.
        """
        n = self.n
        done = max(0, min(finished_cols, n))
        if self._mat is None:
            self._mat = np.empty((n, n), dtype=self.ext.dtype)
            self._qmask = np.tri(n, n, -2, dtype=bool)
        m = self._mat
        m[...] = self.data
        np.copyto(m[:, :done], 0.0, where=self._qmask[:, :done])
        return m

    def fresh_sums(
        self, finished_cols: int, *, counter: FlopCounter | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh row and column checksums of the mathematical matrix from
        one masked copy: the unit sums (length N each) when k = 1, else
        every channel's blocks, (N, k) and (k, N). Each side is the same
        product as its one-sided method."""
        n = self.n
        m = self._masked(finished_cols)
        if counter is not None:
            counter.add("abft_locate", 2 * self.k * n * F.dot_flops(n))
        if self.k == 1:
            ones = np.ones(n, dtype=self.ext.dtype)
            return m @ ones, ones @ m
        return m @ self.weights.T, self.weights @ m

    def fresh_row_sums(
        self, finished_cols: int, *, counter: FlopCounter | None = None
    ) -> np.ndarray:
        """Recompute unit row sums of the mathematical matrix (length N)."""
        n = self.n
        if counter is not None:
            counter.add("abft_locate", n * F.dot_flops(n))
        return self._masked(finished_cols) @ np.ones(n, dtype=self.ext.dtype)

    def fresh_col_sums(
        self, finished_cols: int, *, counter: FlopCounter | None = None
    ) -> np.ndarray:
        """Recompute unit column sums of the mathematical matrix (length N)."""
        n = self.n
        if counter is not None:
            counter.add("abft_locate", n * F.dot_flops(n))
        return np.ones(n, dtype=self.ext.dtype) @ self._masked(finished_cols)

    def fresh_row_block(
        self, finished_cols: int, *, counter: FlopCounter | None = None
    ) -> np.ndarray:
        """All channels' fresh row checksums, shape (N, k)."""
        n = self.n
        if counter is not None:
            counter.add("abft_locate", self.k * n * F.dot_flops(n))
        return self._masked(finished_cols) @ self.weights.T

    def fresh_col_block(
        self, finished_cols: int, *, counter: FlopCounter | None = None
    ) -> np.ndarray:
        """All channels' fresh column checksums, shape (k, N)."""
        n = self.n
        if counter is not None:
            counter.add("abft_locate", self.k * n * F.dot_flops(n))
        return self.weights @ self._masked(finished_cols)

    def refresh_finished_segment(
        self, p: int, ib: int, *, counter: FlopCounter | None = None
    ) -> None:
        """Freeze the column checksums of newly finished columns.

        When panel ``[p, p+ib)`` completes, its columns' final H values
        are in place (rows ``0 .. j+1`` of column ``j``); every channel's
        maintained column checksum for those columns is frozen to the
        weighted column sum of H ("computed segment by segment", as the
        paper describes for the analogous Q checksums in Fig. 5). The
        whole panel is one product with the columns' rows below their
        H segments masked to zero.

        The masked panel is ``np.triu(ext[:rows, p:hi], -(p + 1))``, built
        as a masked copy into reused C-ordered scratch: C is the layout
        ``np.triu`` returns, so the product's operands, and its bits, are
        the same without a fresh array and a ``where()`` per panel.
        """
        n = self.n
        hi = min(p + ib, n)
        if hi <= p:
            return
        rows = min(hi + 1, n)  # column j's segment is rows [0, min(j+2, n))
        w = hi - p
        lead = self.ext.shape[:-2]
        b = math.prod(lead)
        size = b * rows * w
        if self._seg is None or self._seg.size < size:
            self._seg = np.empty(b * n * w, dtype=self.ext.dtype)
        if self._upper is None or self._upper.shape[1] < w:
            self._upper = ~np.tri(w, dtype=bool)
        seg = self._seg[:size].reshape(lead + (rows, w))
        # rows [0, p+2) are whole; row p+2+r keeps the columns right of r
        full = min(p + 2, rows)
        seg[..., :full, :] = self.ext[..., :full, p:hi]
        low = seg[..., full:, :]
        low[...] = 0.0
        np.copyto(low, self.ext[..., full:rows, p:hi], where=self._upper[: rows - full, :w])
        self.ext[..., n:, p:hi] = self.weights[:, :rows] @ seg
        if counter is not None:
            counter.add("abft_maintain", b * self.k * F.segment_refresh_flops(n, p, ib))

    # -- convenience -------------------------------------------------------

    def checksum_gap(self) -> float:
        """``|Sre − Sce|`` on the unit channel — the paper's detector
        statistic (cross-channel statistics live in the Detector)."""
        return abs(float(np.sum(self.row_checksums)) - float(np.sum(self.col_checksums)))

    def cross_gaps(self) -> np.ndarray:
        """The (k, k) matrix of cross-channel statistics
        ``|r_p · w_q − c_q · w_p|``; every entry is ~0 on consistent
        state because both sides equal ``w_pᵀ A w_q``."""
        r = self.row_checksum_block  # (..., n, k): columns are A w_p
        c = self.col_checksum_block  # (..., k, n): rows are w_qᵀ A
        left = self.weights @ r      # (k, k): [q, p] = w_qᵀ (A w_p)
        right = c @ self.weights.T   # (k, k): [q, p] = (w_qᵀ A) w_p
        return np.abs(left - right)
