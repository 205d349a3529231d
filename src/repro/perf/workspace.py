"""A per-driver scratch arena for the factorization hot path.

Every functional driver iteration used to allocate its temporaries fresh:
``np.zeros`` for V/T/Y in ``lahr2``, an ``np.vstack`` plus an implicit
GEMM product array in each encoded update, and the subtraction pass that
follows. At N=512 that is several MB of allocation and an extra full
memory sweep per iteration — pure overhead against the paper's claim that
ABFT maintenance is nearly free.

:class:`Workspace` replaces all of that with named, grown-once buffers.
Buffers are handed out as exact-shape views of flat pools, so a request
for an ``(m, k)`` Fortran block is genuinely F-contiguous. A trailing
update of a matrix adds its product into the storage in place
(:func:`repro.perf.gemm.fold`) and needs no buffer; the products that
``fold`` forms with ``np.matmul`` (a stack's, a row-major C's, or a
one-row or one-column output's) land in one pooled buffer per dtype
(``gemm.prod``).

A workspace is private to one driver invocation (it is not thread-safe,
and the V/Y/T buffers of iteration *i* are only valid until iteration
*i+1* overwrites them — exactly the lifetime the paper's reverse
computation premise already assumes).
"""

from __future__ import annotations

import numpy as np


#: (name, dtype as passed) -> (pool key, normalised dtype), shared by every
#: arena: a pure function of its key, over the fixed set of buffer names
_KEYS: dict[tuple[str, object], tuple[str, np.dtype]] = {}

#: an arena forgets its handed-out views when it holds this many
_MAX_VIEWS = 1024


class Workspace:
    """Named scratch buffers, allocated once and reused across iterations.

    ``buf(name, shape)`` returns a view of a flat pool reshaped to
    exactly *shape* — contiguous in the requested order, grown (never
    shrunk) on demand. Contents persist between calls only while the
    requested shape stays the same; callers that need a zeroed buffer pass
    ``zero=True``. Pools are float64 by default; other lane dtypes get
    their own pools keyed ``"<name>@<dtype>"`` so a mixed-precision worker
    never reinterprets bytes across lanes. A repeated request gets the
    same view object back, until a pool grows.
    """

    def __init__(self) -> None:
        self._pools: dict[str, np.ndarray] = {}
        # (name, dtype, shape, order) -> the view handed out for it; the
        # reshape costs about half a call, and every view goes stale
        # when a pool grows
        self._views: dict[tuple, np.ndarray] = {}

    def buf(
        self,
        name: str,
        shape: tuple[int, ...],
        *,
        order: str = "F",
        zero: bool = False,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """An exact-shape view of the named pool at *dtype*."""
        view = self._views.get((name, dtype, shape, order))
        if view is None:
            view = self._view(name, shape, order, dtype)
        if zero:
            view[...] = 0.0
        return view

    def _view(self, name: str, shape: tuple[int, ...], order: str, dtype) -> np.ndarray:
        memo = _KEYS.get((name, dtype))
        if memo is None:
            dt = np.dtype(dtype)
            memo = _KEYS[name, dtype] = (name if dt == np.float64 else f"{name}@{dt.name}", dt)
        key, dt = memo
        size = 1
        for dim in shape:
            size *= int(dim)
        pool = self._pools.get(key)
        if pool is None or pool.size < size:
            pool = np.empty(max(size, 1), dtype=dt)
            self._pools[key] = pool
            self._views.clear()
        elif len(self._views) >= _MAX_VIEWS:
            self._views.clear()
        view = self._views[name, dtype, shape, order] = pool[:size].reshape(shape, order=order)
        return view

    def vec(
        self,
        name: str,
        n: int,
        *,
        zero: bool = False,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A 1-D scratch vector of length *n*."""
        return self.buf(name, (int(n),), zero=zero, dtype=dtype)

    def per_item(
        self,
        name: str,
        lead: tuple[int, ...],
        shape: tuple[int, int],
        *,
        zero: bool = False,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A ``lead + shape`` scratch stack whose every item is
        F-contiguous, the layout of a 2-D :meth:`buf` of *shape*.

        The pool is a ``shape + lead`` Fortran block viewed with the lead
        axes first. A 2-D request (``lead == ()``) is the plain
        :meth:`buf`, so a matrix kernel gets the very buffer it asks for.
        """
        if not lead:
            return self.buf(name, shape, zero=zero, dtype=dtype)
        flat = self.buf(name, shape + lead, order="F", zero=zero, dtype=dtype)
        return flat.transpose(*range(2, 2 + len(lead)), 0, 1)

    def matrix_like(self, name: str, src: np.ndarray, *, order: str = "F") -> np.ndarray:
        """A named pooled buffer holding a writable copy of *src*.

        The zero-allocation landing pad for matrices arriving through
        the shared-memory data plane: a worker's read-only attached view
        is copied into a grown-once arena buffer instead of a fresh
        ``ndarray`` per job, so a warm worker's steady state allocates
        nothing even for drivers that mutate their input.
        """
        out = self.buf(name, tuple(src.shape), order=order, dtype=src.dtype)
        out[...] = src
        return out

    def presize(
        self,
        n: int,
        nb: int,
        k: int = 0,
        *,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        """Pre-allocate the panel-sized buffers for an (n, nb, k) run so
        the steady state performs no allocation at all."""
        rows = n + k
        self.buf("lahr2.v_full", (rows, nb), dtype=dtype)
        self.buf("lahr2.y", (n, nb), dtype=dtype)
        self.buf("lahr2.t", (nb, nb), dtype=dtype)
        self.buf("lahr2.taus", (nb,), dtype=dtype)
        self.vec("lahr2.g", n, dtype=dtype)
        self.buf("lahr2.wjs", (nb, 2), dtype=dtype)
        self.buf("lahr2.ytop", (n, nb), dtype=dtype)
        self.buf("lahr2.ytop2", (n, nb), dtype=dtype)
        self.buf("upd.yce", (rows, nb), dtype=dtype)
        self.buf("upd.v2ce", (rows, nb), dtype=dtype)
        self.buf("upd.w1c", (nb, rows), order="C", dtype=dtype)
        self.buf("upd.w2c", (nb, rows), order="C", dtype=dtype)
        # fold's matmul-then-fold: a matrix reaches it only with a
        # one-row or one-column output (the top rows at p = 0)
        self.vec("gemm.prod", rows, dtype=dtype)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(pool.nbytes for pool in self._pools.values())

    @property
    def buffers(self) -> int:
        """Number of named pools currently allocated."""
        return len(self._pools)

    def clear(self) -> None:
        """Release every pool (the arena itself stays usable)."""
        self._pools.clear()
        self._views.clear()


# One arena per process, for workers that run many driver invocations
# back to back (the serve scheduler's pool workers and the campaign
# executor's). A single driver invocation still owns its arena
# exclusively — the serving layer guarantees one job at a time per
# worker, which is the same lifetime contract as the per-invocation
# arenas above.
_PROCESS_WS: Workspace | None = None


def process_workspace() -> Workspace:
    """The per-process shared arena (created on first use).

    Buffer pools grow to the largest job the worker has seen and are
    then reused allocation-free by every smaller job — the serving-layer
    analogue of ``presize``. Call :meth:`Workspace.clear` to release the
    memory between batches.
    """
    global _PROCESS_WS
    if _PROCESS_WS is None:
        _PROCESS_WS = Workspace()
    return _PROCESS_WS
