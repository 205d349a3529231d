"""Unit tests for the DLAHR2 panel factorization."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg import FlopCounter
from repro.linalg.lahr2 import lahr2
from repro.linalg.wy import block_reflector
from repro.utils.rng import random_matrix


class TestLahr2Structure:
    def test_v_unit_diagonal(self):
        a = random_matrix(20, seed=0)
        pf = lahr2(a, 0, 4, 20)
        for j in range(4):
            assert pf.v[j, j] == 1.0
            np.testing.assert_array_equal(pf.v[:j, j], 0.0)

    def test_t_upper_triangular_with_taus(self):
        a = random_matrix(20, seed=1)
        pf = lahr2(a, 0, 4, 20)
        np.testing.assert_array_equal(np.tril(pf.t, -1), 0.0)
        np.testing.assert_allclose(np.diag(pf.t), pf.taus)

    def test_block_reflector_orthogonal(self):
        a = random_matrix(24, seed=2)
        pf = lahr2(a, 0, 6, 24)
        u = block_reflector(pf.v, pf.t)
        np.testing.assert_allclose(u @ u.T, np.eye(23), atol=1e-13)

    def test_panel_columns_annihilated(self):
        # After a full iteration's updates the panel columns must be upper
        # Hessenberg; lahr2 itself already annihilates below the subdiag
        # within the panel (modulo the stored reflector data).
        n, ib = 20, 4
        a0 = random_matrix(n, seed=3)
        a = a0.copy(order="F")
        pf = lahr2(a, 0, ib, n)
        # the reflector tails are stored; the implied math entries are zero
        # — verify via the beta chain: subdiagonal entries match reflector
        # betas
        assert a[ib, ib - 1] == pytest.approx(pf.ei)

    def test_invalid_panel_raises(self):
        a = random_matrix(10, seed=4)
        with pytest.raises(ShapeError):
            lahr2(a, 8, 4, 10)  # p + ib >= n
        with pytest.raises(ShapeError):
            lahr2(a, 0, 0, 10)


class TestLahr2Math:
    def test_y_equals_apre_v_t(self):
        """The identity the FT checksum maintenance relies on:
        Y = A_pre[:, p+1:n] @ V @ T."""
        n, ib = 30, 5
        a0 = random_matrix(n, seed=5)
        a = a0.copy(order="F")
        pf = lahr2(a, 0, ib, n)
        y_math = a0[:, 1:n] @ pf.v @ pf.t
        np.testing.assert_allclose(pf.y, y_math, atol=1e-12)

    def test_y_identity_second_panel(self):
        from repro.linalg.gehrd import apply_left_update, apply_right_updates

        n, ib = 30, 5
        a = random_matrix(n, seed=6).copy(order="F")
        pf = lahr2(a, 0, ib, n)
        apply_right_updates(a, pf, n)
        apply_left_update(a, pf, n)
        a_pre = a.copy()
        pf2 = lahr2(a, ib, ib, n)
        y_math = a_pre[:, ib + 1 : n] @ pf2.v @ pf2.t
        np.testing.assert_allclose(pf2.y, y_math, atol=1e-12)

    def test_similarity_preserved_after_full_iteration(self):
        """One full blocked iteration must be an orthogonal similarity:
        eigenvalues unchanged."""
        from repro.linalg.gehrd import apply_left_update, apply_right_updates

        n, ib = 24, 6
        a0 = random_matrix(n, seed=7)
        a = a0.copy(order="F")
        pf = lahr2(a, 0, ib, n)
        apply_right_updates(a, pf, n)
        apply_left_update(a, pf, n)
        # reconstruct the mathematical matrix: zero stored reflectors
        math = a.copy()
        for j in range(ib):
            math[j + 2 :, j] = 0.0
        e0 = np.sort_complex(np.linalg.eigvals(a0))
        e1 = np.sort_complex(np.linalg.eigvals(math))
        np.testing.assert_allclose(e0, e1, atol=1e-10)

    def test_flop_accounting_nonzero(self):
        a = random_matrix(20, seed=8)
        cnt = FlopCounter()
        lahr2(a, 0, 4, 20, counter=cnt)
        assert cnt.category_total("panel") > 0

    def test_offset_panel(self):
        """lahr2 at p>0 must only touch rows/cols within the active range."""
        n, p, ib = 24, 8, 4
        a = random_matrix(n, seed=9).copy(order="F")
        before = a.copy()
        lahr2(a, p, ib, n)
        # columns left of the panel untouched
        np.testing.assert_array_equal(a[:, :p], before[:, :p])

    def test_extended_storage_untouched(self):
        """With an (n+1)x(n+1) extended array, lahr2 must not read or write
        the checksum row/column (active bound n)."""
        n, ib = 20, 4
        ext = np.zeros((n + 1, n + 1), order="F")
        ext[:n, :n] = random_matrix(n, seed=10)
        ext[n, :] = 77.0
        ext[:, n] = 88.0
        lahr2(ext, 0, ib, n)
        np.testing.assert_array_equal(ext[n, :n], 77.0)
        np.testing.assert_array_equal(ext[:n, n], 88.0)


class TestLahr2FlopContract:
    """lahr2 charges its flops once per call; the charge must equal what
    the frozen per-column reference records, column by column."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "n,p,ib",
        [
            (20, 0, 1),    # ib = 1: no inter-column updates at all
            (20, 18, 1),   # the last possible panel, one row below its pivot
            (40, 8, 8),
            (41, 32, 8),   # ragged last panel: p + ib = n - 1
            (64, 0, 32),
            (97, 64, 32),  # ragged: fewer rows below the panel than ib
            (128, 96, 16),
        ],
    )
    def test_panel_charge_equals_per_column_reference(self, n, p, ib, dtype):
        from repro.linalg import flops as F
        from repro.perf.reference import lahr2_reference

        a = random_matrix(n, seed=n + p, dtype=dtype).copy(order="F")
        got, want = FlopCounter(), FlopCounter()
        lahr2(a.copy(order="F"), p, ib, n, counter=got)
        lahr2_reference(a.copy(order="F"), p, ib, n, counter=want)
        assert got.snapshot() == want.snapshot()
        assert got.category_total("panel") == F.lahr2_flops(n, p, ib)

    def test_segment_closed_forms_match_per_column_sums(self):
        from repro.linalg import flops as F

        for n in range(2, 40):
            for p in range(0, n + 2):
                for ib in (1, 2, 5, 8):
                    cols = range(p, p + ib)
                    for offset in (1, 2):
                        want = sum(2 * F.dot_flops(max(n - j - offset, 1)) for j in cols)
                        assert F.q_segment_flops(n, p, ib, offset) == want
                    want = sum(F.dot_flops(min(j + 2, n)) for j in range(p, min(p + ib, n)))
                    assert F.segment_refresh_flops(n, p, ib) == want
