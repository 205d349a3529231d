"""The one GEMM provider of the trailing updates: ``C ← C ± A·B`` in place.

The paper's trailing updates (Algorithm 3 lines 8, 10 and 11, MAGMA's
DGEMM and DLARFB) update A with ``β = 1``: the product is added to C in
the pass that computes it. ``np.matmul`` has no ``β``, so a product
written to a buffer and then folded in reads and writes C a second
time. :func:`fold` instead calls the ``?gemm`` of the OpenBLAS that
NumPy itself loaded (found under ``numpy.libs`` in ``/proc/self/maps``)
through ``ctypes``, with ``β = 1``. NumPy's library stays the only BLAS
in the process, with its one thread pool.

The product is rounded column-major, whatever C's own layout: the call
is the one NumPy's ``matmul`` makes for an F-ordered output, the
row-major ``cᵀ = bᵀ·aᵀ``. With ``α = ±1`` the kernel rounds
``c ± Σ`` once per entry, as the fold of that buffered product does, so
the bytes are those of matmul-then-fold. A caller that wants a
row-major C's own layout folds the transposed problem,
``fold(cᵀ, bᵀ, aᵀ, α)``.

Whatever the in-place call cannot take runs matmul-then-fold instead,
with the same bytes: a C that is not column-major, an inner dimension
over :data:`MAX_INNER`, a stack (the batch lane), an output with one row
or one column (NumPy dispatches GEMV there), mixed or non-float dtypes,
operands that may overlap (NumPy runs SYRK for ``x @ xᵀ``), an operand
without a unit stride or with a negative one, a read-only C (which
raises, as ``c -= …`` does), and a process whose NumPy exposes no cblas
GEMM. That product lands in one pooled buffer per dtype of the
caller's :class:`~repro.perf.workspace.Workspace` (``gemm.prod``), or
in a fresh array without one. :data:`SYMBOL` names the bound
double-precision symbol, and is ``None`` when nothing was bound.
"""

from __future__ import annotations

import ctypes
import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.perf.workspace import Workspace

# CBLAS enums
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112

#: The largest inner dimension the in-place call takes. OpenBLAS adds a
#: product into C one K-block (its ``GEMM_Q``) at a time, so past one
#: block ``β = 1`` rounds each partial sum into C where the buffered
#: product adds them up first: with NumPy 2.4's OpenBLAS 0.3.31 on an
#: AVX-512 Xeon the fp64 bytes part from K = 385 and the fp32 bytes by
#: K = 512. The updates' K is the panel width (32 by default).
MAX_INNER = 128

#: (prefix, suffix, integer type) of the cblas GEMM exports tried, in
#: order: NumPy 2.x wheels (scipy-openblas64), ILP64 OpenBLAS, LP64 cblas
_NAMINGS = (
    ("scipy_cblas_", "64_", ctypes.c_int64),
    ("cblas_", "64_", ctypes.c_int64),
    ("cblas_", "", ctypes.c_int32),
)


def _numpy_blas(maps: str = "/proc/self/maps") -> str | None:
    """The BLAS library NumPy loaded from its own ``numpy.libs``, read
    from the process's memory map (any other BLAS mapped, SciPy's
    included, is passed over)."""
    try:
        with open(maps) as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path)
                parent = os.path.basename(os.path.dirname(path))
                if parent == "numpy.libs" and "blas" in name.lower():
                    return path
    except OSError:
        pass
    return None


def _bind() -> tuple[str | None, str | None, dict]:
    """(library path, dgemm symbol, {dtype: bound ?gemm}) or all empty."""
    path = _numpy_blas()
    if path is None:
        return None, None, {}
    lib = ctypes.CDLL(path)  # already mapped: the same handle, no second copy
    for prefix, suffix, index in _NAMINGS:
        try:
            fns = {
                np.dtype(dt): (getattr(lib, f"{prefix}{ch}gemm{suffix}"), scalar)
                for ch, dt, scalar in (
                    ("d", np.float64, ctypes.c_double),
                    ("s", np.float32, ctypes.c_float),
                )
            }
        except AttributeError:
            continue
        for fn, scalar in fns.values():
            fn.restype = None
            fn.argtypes = (
                [ctypes.c_int] * 3 + [index] * 3
                + [scalar, ctypes.c_void_p, index, ctypes.c_void_p, index]
                + [scalar, ctypes.c_void_p, index]
            )
        return path, f"{prefix}dgemm{suffix}", {dt: fn for dt, (fn, _) in fns.items()}
    return None, None, {}


#: The bound library's path and its dgemm symbol (``None`` when unbound).
LIBRARY, SYMBOL, _GEMM = _bind()


def _row_major(x: np.ndarray) -> tuple[int, int] | None:
    """(transpose flag, leading dimension) of *x* as a row-major BLAS
    operand, NumPy's ``is_blasable2d`` test: a unit stride on one axis
    and a leading stride that spans the other; ``None`` otherwise."""
    isz = x.itemsize
    (r, s), (sr, sc) = x.shape, x.strides
    if sc == isz and sr % isz == 0 and sr // isz >= s:
        return _NO_TRANS, sr // isz
    if sr == isz and sc % isz == 0 and sc // isz >= r:
        return _TRANS, sc // isz
    return None


def fold(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    alpha: float,
    workspace: Workspace | None = None,
) -> None:
    """``c += alpha·(a @ b)`` in place (``β = 1``), ``alpha`` = ±1, the
    product rounded as ``np.matmul`` rounds it into a column-major array.

    A column-major matrix C goes through one in-place ``?gemm`` call
    whenever it can (see the module docstring); everything else runs
    ``np.matmul`` into a column-major product, in *workspace*'s pooled
    buffer when one is given, and folds it in.
    """
    if alpha not in (1.0, -1.0):
        raise ValueError(f"fold takes alpha = ±1, got {alpha}")
    gemm = _GEMM.get(c.dtype)
    if (
        gemm is not None
        and c.ndim == a.ndim == b.ndim == 2
        and a.dtype == b.dtype == c.dtype
        and 0 < a.shape[1] == b.shape[0] <= MAX_INNER
        and c.shape == (a.shape[0], b.shape[1])
        and min(c.shape) > 1
        and c.flags.writeable
        and not np.may_share_memory(c, a)
        and not np.may_share_memory(c, b)
        and not np.may_share_memory(a, b)
    ):
        # NumPy's call for a column-major product: the row-major cᵀ = bᵀ·aᵀ
        ct, x, y = c.T, b.T, a.T
        lc, lx, ly = _row_major(ct), _row_major(x), _row_major(y)
        if lc is not None and lc[0] == _NO_TRANS and lx is not None and ly is not None:
            gemm(
                _ROW_MAJOR, lx[0], ly[0], ct.shape[0], ct.shape[1], x.shape[1],
                alpha, x.ctypes.data, lx[1], y.ctypes.data, ly[1],
                1.0, ct.ctypes.data, lc[1],
            )
            return
    # matmul-then-fold, the product formed transposed into a C-ordered
    # buffer: a column-major view of it, whatever c's layout
    shape = c.shape[:-2] + (c.shape[-1], c.shape[-2])
    if workspace is not None:
        prod = workspace.buf("gemm.prod", shape, order="C", dtype=c.dtype)
    else:
        prod = np.empty(shape, dtype=c.dtype)
    np.matmul(b.swapaxes(-1, -2), a.swapaxes(-1, -2), out=prod)
    (np.subtract if alpha == -1 else np.add)(c, prod.swapaxes(-1, -2), out=c)
