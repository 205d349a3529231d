"""Stacked (batched) storage for B same-shape problems.

The batched engine reduces a stack of B matrices through 3-D NumPy ops
— one ``np.matmul`` over a ``(B, m, n)`` operand dispatches B GEMMs from
a single Python call, which is where the small-n throughput comes from
(the arithmetic per item is unchanged; only the interpreter overhead is
amortized).

Two layout invariants let the scalar kernels take a stack and stay
**bit-identical** to B matrix calls:

* every item slice ``stack[b]`` must be F-contiguous, exactly like the
  Fortran-ordered matrices the scalar drivers operate on (same memory
  order in means the same BLAS paths and the same accumulation order
  out).  :func:`fstack` produces that layout via the transpose trick:
  an ``(r, c, B)`` F-ordered block viewed as ``(B, r, c)``, and
  :meth:`~repro.perf.workspace.Workspace.per_item` draws scratch stacks
  the same way.
* stacked ``np.matmul`` performs the same per-item GEMM the scalar call
  would, so a kernel written with ``...`` indexing reproduces the
  scalar results byte-for-byte on a stack (asserted by the golden tests
  in ``tests/test_batch_golden.py``).

:class:`EncodedMatrixBatch` is :class:`~repro.abft.encoding.EncodedMatrix`
over B checksum-extended matrices sharing one ``(B, n+k, n+k)``
storage: it adds only the stack constructor and per-item
:class:`EncodedMatrix` *views* for the detector and the fault-injection
hooks.
"""

from __future__ import annotations

import numpy as np

from repro.abft.encoding import EncodedMatrix, make_weight_block
from repro.errors import ShapeError
from repro.linalg.flops import FlopCounter


def fstack(
    b: int, rows: int, cols: int, dtype: np.dtype | type = np.float64
) -> np.ndarray:
    """A zeroed ``(b, rows, cols)`` stack whose every item is F-contiguous.

    Allocated as an ``(rows, cols, b)`` Fortran block and viewed with the
    batch axis first, so ``out[k]`` has exactly the memory layout of a
    fresh ``np.zeros((rows, cols), order="F")``.
    """
    return np.zeros((rows, cols, b), order="F", dtype=dtype).transpose(2, 0, 1)


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


class EncodedMatrixBatch(EncodedMatrix):
    """B checksum-extended matrices in one stacked storage.

    ``ext`` is ``(B, n+k, n+k)`` with every item F-contiguous — item
    ``b`` has byte-for-byte the layout of a scalar
    :class:`~repro.abft.encoding.EncodedMatrix` built from the same
    input.  The views, :meth:`encode`, :meth:`refresh_finished_segment`
    and :meth:`cross_gaps` are the scalar class's own, acting on every
    item at once.  The (k x k) corners are scratch by contract, exactly
    as in the scalar class.
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
        b, n = a_stack.shape[:2]
        self.n = n
        dt = a_stack.dtype if a_stack.dtype == np.float32 else np.dtype(np.float64)
        self.weights = make_weight_block(n, channels, dt)
        self.k = self.weights.shape[0]
        self.ext = fstack(b, n + self.k, n + self.k, dt)
        self.ext[:, :n, :n] = a_stack
        self.encode(counter=counter)

    def item(self, b: int) -> EncodedMatrix:
        """A scalar :class:`EncodedMatrix` *view* over item *b*.

        Shares the stacked storage (mutations go both ways); used to
        hand per-item state to the detector and the fault-injection
        hooks, and to build per-item results.
        """
        em = EncodedMatrix.__new__(EncodedMatrix)
        em.n = self.n
        em.weights = self.weights
        em.k = self.k
        em.ext = self.ext[b]
        return em
