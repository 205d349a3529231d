"""``repro.perf.gemm.fold``: the in-place ``β = 1`` GEMM of every trailing
update, pinned byte for byte against the matmul-then-fold form it
replaces (the product formed column-major, then ``c -= …`` or
``c += …``).

The shape classes are the update kernels' own operands, sliced out of an
extended storage the way the kernels slice them: the trailing right
block, the left update's row window, the in-panel top rows (one row at
p = 0) and the rank-1 update of ib = 1.
"""

import importlib

import numpy as np
import pytest

from repro.batch.stack import fstack
from repro.linalg import gehrd, wy
from repro.perf import gemm
from repro.perf.gemm import fold
from repro.perf.workspace import Workspace
from repro.utils.rng import random_matrix

N, K = 96, 2  # matrix order and checksum rows of the storage

needs_blas = pytest.mark.skipif(gemm.SYMBOL is None, reason="NumPy exposes no cblas GEMM here")


def _product(a, b):
    """``a @ b`` formed transposed into a C-ordered buffer: a column-major
    view of the product."""
    return np.matmul(b.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _reference(c, a, b, alpha):
    """Matmul-then-fold: the column-major product folded into a copy of c."""
    return c - _product(a, b) if alpha == -1 else c + _product(a, b)


def _storage(order, dtype, seed):
    rng = np.random.default_rng(seed)
    return np.asarray(rng.standard_normal((N + K, N + K)), dtype=dtype, order=order)


def _operands(cls, p, ib, order, dtype, seed=0):
    """(c, a, b) of one update kernel's fold at panel (p, ib)."""
    rng = np.random.default_rng(seed + 1)
    ext = _storage(order, dtype, seed)
    rows = N + K

    def block(r, s):
        return np.asarray(rng.standard_normal((r, s)), dtype=dtype, order=order)

    if cls == "right":  # C[:, p+ib:] -= [Y; Ychk] [V2; Vce]ᵀ
        nt = N - p - ib
        return ext[:, p + ib :], block(rows, ib), block(nt + K, ib).T
    if cls == "left":  # C[p+1:, p+ib:] -= [V; Vce] W over the row window
        v_full = block(rows, ib)
        return ext[p + 1 :, p + ib :], v_full[p + 1 :], block(ib, rows - p - ib)
    # "top": A[0:p+1, p+1:p+ib] -= Y_top V1ᵀ
    y = block(N, ib)
    v = block(N - p - 1, ib)
    return ext[: p + 1, p + 1 : p + ib], y[: p + 1, : ib - 1], v[: ib - 1, : ib - 1].T


CASES = [
    ("right", 16, 16),
    ("right", 40, 7),
    ("right", 30, 1),  # ib = 1: a rank-1 update
    ("left", 16, 16),
    ("left", 50, 32),
    ("left", 30, 1),
    ("top", 16, 16),
    ("top", 0, 16),  # p = 0: a one-row output
    ("top", 40, 2),  # ib = 2: a one-column output
]


@pytest.mark.parametrize("cls,p,ib", CASES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("alpha", [-1.0, 1.0])
@pytest.mark.parametrize("order", ["F", "C"])
def test_fold_matches_matmul_then_fold_bytes(cls, p, ib, dtype, alpha, order):
    c, a, b = _operands(cls, p, ib, order, dtype)
    want = _reference(c, a, b, alpha)
    fold(c, a, b, alpha)
    assert np.array_equal(c, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("alpha", [-1.0, 1.0])
def test_stack_matches_matmul_then_fold_bytes(dtype, alpha):
    rng = np.random.default_rng(4)
    c = fstack(3, N + K, N, dtype=dtype)
    c[...] = rng.standard_normal(c.shape)
    a = fstack(3, N + K, 16, dtype=dtype)
    a[...] = rng.standard_normal(a.shape)
    b = fstack(3, N - 20, 16, dtype=dtype).swapaxes(-1, -2)
    b[...] = rng.standard_normal(b.shape)
    c = c[..., 20:]
    want = _reference(c, a, b, alpha)
    fold(c, a, b, alpha, Workspace())
    assert np.array_equal(c, want)


def test_alpha_other_than_a_sign_raises():
    c, a, b = _operands("right", 16, 16, "F", np.float64)
    before = c.copy()
    with pytest.raises(ValueError, match="alpha"):
        fold(c, a, b, 0.5)
    assert np.array_equal(c, before)


def _count_products(monkeypatch):
    calls = []

    class _CountingNp:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, *args, **kwargs):
            calls.append(args[0].shape)
            return np.matmul(*args, **kwargs)

    monkeypatch.setattr(gemm, "np", _CountingNp())
    return calls


class TestPath:
    @needs_blas
    @pytest.mark.parametrize("cls,p,ib", [c for c in CASES if c[2] > 2 and c[1] > 0])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_column_major_c_takes_the_in_place_call(self, monkeypatch, cls, p, ib, dtype):
        c, a, b = _operands(cls, p, ib, "F", dtype)
        want = _reference(c, a, b, -1.0)
        calls = _count_products(monkeypatch)
        fold(c, a, b, -1.0)
        assert calls == [] and np.array_equal(c, want)

    def test_a_row_major_c_folds_a_column_major_product(self, monkeypatch):
        c, a, b = _operands("right", 16, 16, "C", np.float64)
        want = _reference(c, a, b, -1.0)
        calls = _count_products(monkeypatch)
        fold(c, a, b, -1.0)
        assert calls == [b.T.shape] and np.array_equal(c, want)


class TestCallersKeepTheirLayout:
    """``gehrd``'s updates round a column-major product, and ``larfb``
    rounds its product in C's own layout, for any input order."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gehrd_of_a_c_ordered_matrix(self, monkeypatch, dtype):
        a = np.ascontiguousarray(random_matrix(130, seed=2, dtype=dtype))
        got = gehrd(a.copy(), nb=16)

        def buffered_fold(c, a, b, alpha, workspace=None):
            c -= _product(a, b)

        gehrd_module = importlib.import_module("repro.linalg.gehrd")
        monkeypatch.setattr(gehrd_module, "fold", buffered_fold)
        want = gehrd(a.copy(), nb=16)
        assert np.array_equal(got.a, want.a) and np.array_equal(got.taus, want.taus)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("m,cols,k", [(48, 97, 16), (33, 81, 32)])
    def test_larfb_of_either_order(self, monkeypatch, dtype, order, side, m, cols, k):
        rng = np.random.default_rng(5)
        v = np.asarray(rng.standard_normal((m, k)), dtype)
        t = np.triu(np.asarray(rng.standard_normal((k, k)), dtype))
        shape = (m, cols) if side == "left" else (cols, m)
        c = np.asarray(rng.standard_normal(shape), dtype, order=order)
        got = wy.larfb(v, t, c.copy(order="K"), side=side)

        def product_like_c(c, a, b):
            c -= np.matmul(a, b, out=np.empty_like(c))

        monkeypatch.setattr(wy, "_fold_in_layout", product_like_c)
        want = wy.larfb(v, t, c.copy(order="K"), side=side)
        assert np.array_equal(got, want)


class TestFallback:
    @pytest.mark.parametrize("cls,p,ib", CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_unbound_symbol_keeps_the_bytes(self, monkeypatch, cls, p, ib, dtype, order):
        c, a, b = _operands(cls, p, ib, order, dtype)
        want = _reference(c, a, b, -1.0)
        monkeypatch.setattr(gemm, "_GEMM", {})
        fold(c, a, b, -1.0)
        assert np.array_equal(c, want)

    def test_aliased_operand_is_read_before_the_write(self):
        x = np.asfortranarray(np.random.default_rng(5).standard_normal((40, 30)))
        c, a = x[:, 3:], x[:, :5]  # C overlaps A's last two columns
        b = np.random.default_rng(6).standard_normal((5, 27))
        want = _reference(c, a.copy(), b, -1.0)
        fold(c, a, b, -1.0)
        assert np.array_equal(c, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_inner_dimension_past_the_bound_keeps_the_bytes(self, dtype):
        """BLAS adds a long inner product into C block by block; past
        MAX_INNER the fold forms the whole product first, as matmul does."""
        rng = np.random.default_rng(9)
        k = 4 * gemm.MAX_INNER
        c = np.asfortranarray(rng.standard_normal((200, 150)), dtype=dtype)
        a = np.asfortranarray(rng.standard_normal((200, k)), dtype=dtype)
        b = np.asfortranarray(rng.standard_normal((150, k)), dtype=dtype).T
        want = _reference(c, a, b, -1.0)
        fold(c, a, b, -1.0)
        assert np.array_equal(c, want)

    def test_negative_strides(self):
        rng = np.random.default_rng(7)
        c = np.asfortranarray(rng.standard_normal((30, 20)))
        a = np.asfortranarray(rng.standard_normal((30, 4)))[::-1]
        b = rng.standard_normal((4, 20))[:, ::-1]
        want = _reference(c, a, b, 1.0)
        fold(c, a, b, 1.0)
        assert np.array_equal(c, want)

    def test_read_only_c_raises(self):
        c, a, b = _operands("right", 16, 16, "F", np.float64)
        before = c.copy()
        c.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            fold(c, a, b, -1.0)
        assert np.array_equal(c, before)


class TestNumpyBlas:
    """The bound library is the BLAS NumPy mapped from ``numpy.libs``,
    never another one mapped beside it (SciPy's, from ``scipy.libs``)."""

    SCIPY = "/env/lib/python3/site-packages/scipy.libs/libscipy_openblas-1a2b3c4d.so"
    NUMPY = "/env/lib/python3/site-packages/numpy.libs/libscipy_openblas64_-5e6f7a8b.so"

    @staticmethod
    def _maps(tmp_path, *paths):
        lines = [
            f"7f00{i:04x}000-7f00{i:04x}fff r-xp 00000000 08:01 {100 + i} {p}"
            for i, p in enumerate(paths)
        ]
        maps = tmp_path / "maps"
        maps.write_text("\n".join(lines + ["7ffd000-7ffe000 rw-p 00000000 00:00 0 [stack]"]) + "\n")
        return str(maps)

    def test_numpy_libs_is_picked_over_scipy_libs(self, tmp_path):
        maps = self._maps(tmp_path, "/usr/lib/libc.so.6", self.SCIPY, self.NUMPY)
        assert gemm._numpy_blas(maps) == self.NUMPY

    def test_scipy_libs_alone_binds_nothing(self, tmp_path):
        maps = self._maps(tmp_path, "/usr/lib/libc.so.6", self.SCIPY)
        assert gemm._numpy_blas(maps) is None

    def test_unreadable_map_binds_nothing(self, tmp_path):
        assert gemm._numpy_blas(str(tmp_path / "absent")) is None
