"""Tests for the blocked (gehrd) and unblocked (gehd2) Hessenberg drivers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg import (
    FlopCounter,
    extract_hessenberg,
    factorization_residual,
    gehd2,
    gehrd,
    hessenberg_defect,
    orghr,
    orthogonality_residual,
)
from repro.linalg import flops as F
from repro.utils.rng import MatrixKind, random_matrix


def _full_check(a0, nb=None, nx=None):
    a = a0.copy(order="F")
    if nb is None:
        taus = gehd2(a)
    else:
        kw = {"nb": nb}
        if nx is not None:
            kw["nx"] = nx
        fac = gehrd(a, **kw)
        taus = fac.taus
    h = extract_hessenberg(a)
    q = orghr(a, taus)
    return (
        factorization_residual(a0, q, h),
        orthogonality_residual(q),
        hessenberg_defect(h),
    )


class TestGehd2:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
    def test_correctness(self, n):
        a0 = random_matrix(n, seed=n)
        resid, orth, defect = _full_check(a0)
        assert resid < 1e-14
        assert orth < 1e-14
        assert defect == 0.0

    def test_already_hessenberg_input(self):
        a0 = random_matrix(30, MatrixKind.HESSENBERG, seed=1)
        resid, orth, _ = _full_check(a0)
        assert resid < 1e-14 and orth < 1e-14

    def test_eigenvalues_preserved(self):
        a0 = random_matrix(25, seed=2)
        a = a0.copy(order="F")
        gehd2(a)
        h = extract_hessenberg(a)
        e0 = np.sort_complex(np.linalg.eigvals(a0))
        e1 = np.sort_complex(np.linalg.eigvals(h))
        np.testing.assert_allclose(e0, e1, atol=1e-10)


class TestGehrd:
    @pytest.mark.parametrize("n,nb", [(10, 4), (33, 8), (64, 16), (97, 32), (158, 32)])
    def test_correctness(self, n, nb):
        a0 = random_matrix(n, seed=n + nb)
        resid, orth, defect = _full_check(a0, nb=nb, nx=nb)
        assert resid < 1e-14
        assert orth < 1e-14
        assert defect == 0.0

    def test_matches_unblocked(self):
        """Blocked and unblocked produce the same H up to roundoff-level
        sign conventions — compare via eigenvalues and residuals."""
        a0 = random_matrix(48, seed=3)
        ab = a0.copy(order="F")
        au = a0.copy(order="F")
        gehrd(ab, nb=8, nx=8)
        gehd2(au)
        eb = np.sort_complex(np.linalg.eigvals(extract_hessenberg(ab)))
        eu = np.sort_complex(np.linalg.eigvals(extract_hessenberg(au)))
        np.testing.assert_allclose(eb, eu, atol=1e-10)

    def test_matches_scipy(self):
        import scipy.linalg as sla

        a0 = random_matrix(60, seed=4)
        a = a0.copy(order="F")
        fac = gehrd(a, nb=16, nx=16)
        h = extract_hessenberg(a)
        h_ref = sla.hessenberg(a0)
        # H is unique up to column/row sign flips; compare |subdiagonals|
        np.testing.assert_allclose(
            np.abs(np.diag(h, -1)), np.abs(np.diag(h_ref, -1)), atol=1e-10
        )

    def test_flop_count_close_to_model(self):
        n = 96
        a = random_matrix(n, seed=5).copy(order="F")
        cnt = FlopCounter()
        gehrd(a, nb=16, nx=16, counter=cnt)
        assert cnt.total == pytest.approx(F.gehrd_flops(n), rel=0.25)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            gehrd(np.zeros((3, 4), order="F"))

    def test_nb_larger_than_n(self):
        a0 = random_matrix(10, seed=7)
        resid, orth, defect = _full_check(a0, nb=64)
        assert resid < 1e-14 and defect == 0.0

    def test_result_properties(self):
        a = random_matrix(20, seed=8).copy(order="F")
        fac = gehrd(a, nb=4, nx=4)
        assert fac.n == 20
        assert fac.h.shape == (20, 20)
        assert hessenberg_defect(fac.h) == 0.0


class TestApplyQ:
    def test_apply_q_matches_explicit(self):
        from repro.linalg import apply_q

        a0 = random_matrix(30, seed=9)
        a = a0.copy(order="F")
        fac = gehrd(a, nb=8, nx=8)
        q = orghr(a, fac.taus)
        c = np.asfortranarray(np.random.default_rng(0).standard_normal((30, 4)))
        ref = q @ c
        got = c.copy(order="F")
        apply_q(a, fac.taus, got)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_apply_q_transpose(self):
        from repro.linalg import apply_q

        a0 = random_matrix(30, seed=10)
        a = a0.copy(order="F")
        fac = gehrd(a, nb=8, nx=8)
        q = orghr(a, fac.taus)
        c = np.asfortranarray(np.random.default_rng(1).standard_normal((30, 3)))
        ref = q.T @ c
        got = c.copy(order="F")
        apply_q(a, fac.taus, got, trans=True)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_qt_a_q_is_h(self):
        from repro.linalg import apply_q

        a0 = random_matrix(24, seed=11)
        a = a0.copy(order="F")
        fac = gehrd(a, nb=8, nx=8)
        work = a0.copy(order="F")
        apply_q(a, fac.taus, work, trans=True)   # Qᵀ A
        work = np.asfortranarray(work.T)
        apply_q(a, fac.taus, work, trans=True)   # Qᵀ (Qᵀ A)ᵀ = Qᵀ Aᵀ Q …
        h = extract_hessenberg(a)
        np.testing.assert_allclose(np.asfortranarray(work.T), h, atol=1e-12)
