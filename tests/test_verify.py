"""Tests for the verification metrics (the paper's residual definitions)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg import gehrd, orghr
from repro.linalg.verify import (
    eigenvalue_drift,
    extract_hessenberg,
    factorization_residual,
    hessenberg_defect,
    is_hessenberg,
    one_norm,
    orthogonality_residual,
    residual_matrix,
)
from repro.utils.rng import random_matrix


def _orthogonal(n: int, seed: int) -> np.ndarray:
    fac = gehrd(random_matrix(n, seed=seed), nb=32)
    return orghr(fac.a, fac.taus)


class TestOneNorm:
    def test_known_value(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]], order="F")
        assert one_norm(a) == 6.0  # max column abs-sum: |−2| + |4| = 6

    def test_matches_numpy(self):
        a = random_matrix(17, seed=1)
        assert one_norm(a) == pytest.approx(np.linalg.norm(a, 1))

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            one_norm(np.zeros(3))

    def test_empty(self):
        assert one_norm(np.zeros((0, 0))) == 0.0


class TestResiduals:
    def test_exact_factorization_zero(self):
        a = random_matrix(10, seed=2)
        q = np.eye(10)
        assert factorization_residual(a, q, a.copy()) < 1e-16

    def test_perturbation_scales(self):
        a = random_matrix(10, seed=3)
        h = a.copy()
        h[0, 0] += 1.0
        r = factorization_residual(a, np.eye(10), h)
        assert r == pytest.approx(1.0 / (10 * one_norm(a)), rel=1e-12)

    def test_orthogonality_identity(self):
        assert orthogonality_residual(np.eye(8)) == 0.0

    def test_orthogonality_rotation(self):
        th = 0.3
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], order="F")
        assert orthogonality_residual(q) < 1e-15

    def test_orthogonality_detects_scaling(self):
        q = 2.0 * np.eye(4)
        assert orthogonality_residual(q) == pytest.approx(3.0 / 4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            factorization_residual(np.eye(3), np.eye(3), np.eye(4))


class TestHessenbergAwareResidual:
    """Q·H skips the rows below H's subdiagonal block by block; a block
    whose skipped rows hold anything is multiplied in full."""

    N = 131  # off-grid: several column blocks and a ragged last one

    def test_dense_h_is_exact(self):
        n = self.N
        q = _orthogonal(n, seed=1)
        h = random_matrix(n, seed=2)  # dense: nothing below the subdiagonal is zero
        a = q @ h @ q.T
        assert factorization_residual(a, q, h) <= 8 * np.finfo(float).eps
        ref = np.linalg.norm(a - q @ h @ q.T, 1) / (n * np.linalg.norm(a, 1))
        assert factorization_residual(a, q, h) == pytest.approx(ref, abs=4e-16)

    @pytest.mark.parametrize("row, col", [(2, 0), (130, 0), (70, 40), (130, 128)])
    def test_one_entry_below_the_subdiagonal_counts(self, row, col):
        n = self.N
        q = _orthogonal(n, seed=3)
        h = np.triu(random_matrix(n, seed=4), -1)
        a = q @ h @ q.T
        h[row, col] = 1.0
        want = np.linalg.norm(a - q @ h @ q.T, 1) / (n * np.linalg.norm(a, 1))
        assert want > 1e-6  # far above roundoff: dropping the entry would show
        assert factorization_residual(a, q, h) == pytest.approx(want, rel=1e-12)

    def test_hessenberg_h_matches_the_full_product(self):
        n = self.N
        a = random_matrix(n, seed=5)
        fac = gehrd(a.copy(order="F"), nb=32)
        q, h = orghr(fac.a, fac.taus), extract_hessenberg(fac.a)
        r = residual_matrix(a, q, h)
        assert r.flags.f_contiguous
        assert np.max(np.abs(r - (a - q @ h @ q.T))) <= 4 * n * np.finfo(float).eps

    def test_stack_items_match_the_scalar_bytes(self):
        # a mixed stack: Hessenberg items and one dense item, so one
        # block is skipped for some items and multiplied in full for another
        n, b = self.N, 3
        qs = np.stack([_orthogonal(n, seed=10 + i) for i in range(b)])
        hs = np.stack([np.triu(random_matrix(n, seed=20 + i), -1) for i in range(b)])
        hs[1] = random_matrix(n, seed=30)
        a = np.stack([random_matrix(n, seed=40 + i) for i in range(b)])
        r = residual_matrix(a, qs, hs)
        for i in range(b):
            assert r[i].flags.f_contiguous
            assert r[i].tobytes(order="A") == residual_matrix(a[i], qs[i], hs[i]).tobytes(order="A")


class TestHessenbergStructure:
    def test_defect_zero_for_hessenberg(self):
        h = np.triu(random_matrix(12, seed=4), -1)
        assert hessenberg_defect(h) == 0.0
        assert is_hessenberg(h)

    def test_defect_detects_violation(self):
        h = np.triu(random_matrix(12, seed=5), -1)
        h[5, 2] = 0.25
        assert hessenberg_defect(h) == pytest.approx(0.25)
        assert not is_hessenberg(h)
        assert is_hessenberg(h, tol=0.3)

    def test_small_matrices(self):
        assert hessenberg_defect(np.zeros((1, 1))) == 0.0
        assert hessenberg_defect(np.ones((2, 2))) == 0.0

    def test_extract(self):
        a = random_matrix(6, seed=6)
        h = extract_hessenberg(a)
        assert is_hessenberg(h)
        np.testing.assert_array_equal(np.triu(a, -1), h)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_extract_is_one_f_ordered_copy_with_triu_bytes(self, order):
        a = np.asarray(random_matrix(37, seed=6), order=order)
        a[5, 0] = -0.0
        h = extract_hessenberg(a)
        assert h.flags.f_contiguous and not np.shares_memory(h, a)
        assert h.tobytes(order="F") == np.triu(a, -1).tobytes(order="F")

    def test_extract_stack_is_per_item_f(self):
        a = np.stack([random_matrix(9, seed=s) for s in range(3)])
        h = extract_hessenberg(a)
        for i in range(3):
            assert h[i].flags.f_contiguous
            assert h[i].tobytes(order="F") == np.triu(a[i], -1).tobytes(order="F")


class TestEigenvalueDrift:
    def test_zero_for_similar(self):
        a = random_matrix(8, seed=7)
        assert eigenvalue_drift(a, a.copy()) < 1e-12

    def test_detects_change(self):
        a = random_matrix(8, seed=8)
        b = a.copy()
        b[0, 0] += 5.0
        assert eigenvalue_drift(a, b) > 0.1
