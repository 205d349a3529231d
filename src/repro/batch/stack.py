"""Stacked (batched) storage for B same-shape problems.

The batched engine reduces a stack of B matrices through 3-D NumPy ops
— one ``np.matmul`` over a ``(B, m, n)`` operand dispatches B GEMMs from
a single Python call, which is where the small-n throughput comes from
(the arithmetic per item is unchanged; only the interpreter overhead is
amortized).

Two layout invariants make the batched kernels **bit-identical** to the
scalar ones:

* every item slice ``stack[b]`` must be F-contiguous, exactly like the
  Fortran-ordered matrices the scalar drivers operate on (same memory
  order in means the same BLAS paths and the same accumulation order
  out).  :func:`fstack` produces that layout via the transpose trick:
  an ``(r, c, B)`` F-ordered block viewed as ``(B, r, c)``.
* stacked ``np.matmul`` performs the same per-item GEMM the scalar call
  would; mirrored call-for-call, a batched kernel therefore reproduces
  the scalar results byte-for-byte (asserted by the golden tests in
  ``tests/test_batch_golden.py``).

:class:`EncodedMatrixBatch` is the stacked counterpart of
:class:`~repro.abft.encoding.EncodedMatrix`: B checksum-extended
matrices sharing one ``(B, n+k, n+k)`` storage, with per-item
:class:`EncodedMatrix` *views* available for the fault-injection hooks.
"""

from __future__ import annotations

import numpy as np

from repro.abft.encoding import EncodedMatrix, make_weight_block
from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.perf.workspace import Workspace


def fstack(
    b: int, rows: int, cols: int, dtype: np.dtype | type = np.float64
) -> np.ndarray:
    """A zeroed ``(b, rows, cols)`` stack whose every item is F-contiguous.

    Allocated as an ``(rows, cols, b)`` Fortran block and viewed with the
    batch axis first, so ``out[k]`` has exactly the memory layout of a
    fresh ``np.zeros((rows, cols), order="F")``.
    """
    return np.zeros((rows, cols, b), order="F", dtype=dtype).transpose(2, 0, 1)


def stack_buf(
    workspace: Workspace,
    name: str,
    b: int,
    rows: int,
    cols: int,
    *,
    zero: bool = False,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """A pooled ``(b, rows, cols)`` per-item-F scratch stack, drawn from
    the workspace arena (grow-only, reused across panel calls — the same
    contract as the scalar kernels' ``Workspace.buf``)."""
    flat = workspace.buf(name, (rows, cols, b), order="F", zero=zero, dtype=dtype)
    return flat.transpose(2, 0, 1)


def as_item_f_stack(mats: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Copy *mats* (a list of equal-shape 2-D arrays, or a 3-D array)
    into a fresh per-item-F stack."""
    if isinstance(mats, np.ndarray):
        if mats.ndim != 3:
            raise ShapeError(f"need a (B, r, c) stack, got shape {mats.shape}")
        seq = [mats[i] for i in range(mats.shape[0])]
    else:
        seq = list(mats)
    if not seq:
        raise ShapeError("empty batch")
    r, c = seq[0].shape
    for m in seq:
        if m.shape != (r, c):
            raise ShapeError(f"batch items disagree on shape: {m.shape} vs {(r, c)}")
    dt = np.result_type(*(m.dtype for m in seq))
    dt = dt if dt == np.float32 else np.dtype(np.float64)
    out = fstack(len(seq), r, c, dt)
    for i, m in enumerate(seq):
        out[i] = m
    return out


class EncodedMatrixBatch:
    """B checksum-extended matrices in one stacked storage.

    ``ext`` is ``(B, n+k, n+k)`` with every item F-contiguous — item
    ``b`` has byte-for-byte the layout of a scalar
    :class:`~repro.abft.encoding.EncodedMatrix` built from the same
    input.  The (k x k) corners are scratch by contract, exactly as in
    the scalar class.
    """

    def __init__(
        self,
        a_stack: np.ndarray,
        *,
        channels: int = 1,
        counter: FlopCounter | None = None,
    ):
        if a_stack.ndim != 3 or a_stack.shape[1] != a_stack.shape[2]:
            raise ShapeError(
                f"EncodedMatrixBatch needs a (B, n, n) stack, got {a_stack.shape}"
            )
        self.b = a_stack.shape[0]
        n = a_stack.shape[1]
        self.n = n
        dt = a_stack.dtype if a_stack.dtype == np.float32 else np.dtype(np.float64)
        self.weights = make_weight_block(n, channels, dt)
        self.k = self.weights.shape[0]
        self.ext = fstack(self.b, n + self.k, n + self.k, dt)
        self.ext[:, :n, :n] = a_stack
        self.encode(counter=counter)

    # -- views ------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The (B, n, n) matrix block (a view)."""
        return self.ext[:, : self.n, : self.n]

    def item(self, b: int) -> EncodedMatrix:
        """A scalar :class:`EncodedMatrix` *view* over item *b*.

        Shares the stacked storage (mutations go both ways); used to
        hand per-item state to the fault-injection hooks and to build
        per-item results.
        """
        em = EncodedMatrix.__new__(EncodedMatrix)
        em.n = self.n
        em.weights = self.weights
        em.k = self.k
        em.ext = self.ext[b]
        return em

    # -- encoding ----------------------------------------------------------

    def encode(self, *, counter: FlopCounter | None = None) -> None:
        """(Re)compute every item's checksum vectors from its data
        (the stacked Algorithm 3 line 2)."""
        n = self.n
        np.matmul(self.data, self.weights.T[None], out=self.ext[:, :n, n:])
        np.matmul(self.weights[None], self.data, out=self.ext[:, n:, :n])
        if counter is not None:
            counter.add(
                "abft_init", F.batched_flops(self.b, 2 * self.k * n * F.dot_flops(n))
            )

    def refresh_finished_segment(
        self, p: int, ib: int, *, counter: FlopCounter | None = None
    ) -> None:
        """Freeze the column checksums of newly finished columns, for
        every item at once (stacked
        :meth:`EncodedMatrix.refresh_finished_segment`)."""
        n = self.n
        for j in range(p, min(p + ib, n)):
            hi = min(j + 2, n)
            np.matmul(
                self.weights[None, :, :hi],
                self.ext[:, :hi, j][:, :, None],
                out=self.ext[:, n:, j][:, :, None],
            )
            if counter is not None:
                counter.add(
                    "abft_maintain", F.batched_flops(self.b, self.k * F.dot_flops(hi))
                )

    # -- detection statistics ----------------------------------------------

    def sum_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-item ``(Sre, Sce)`` — the unit-channel grand sums the
        detector compares (vectorized over the batch)."""
        n = self.n
        sre = np.sum(self.ext[:, :n, n], axis=1)
        sce = np.sum(self.ext[:, n, :n], axis=1)
        return sre, sce

    def cross_gaps(self) -> np.ndarray:
        """The stacked (B, k, k) cross-channel statistics (see
        :meth:`EncodedMatrix.cross_gaps`)."""
        r = self.ext[:, : self.n, self.n :]
        c = self.ext[:, self.n :, : self.n]
        left = np.matmul(self.weights[None], r)
        right = np.matmul(c, self.weights.T[None])
        return np.abs(left - right)
