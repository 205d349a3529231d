"""Tests for Q-matrix protection (paper §IV-E, Fig. 5)."""

import numpy as np
import pytest

from repro.abft import QProtector
from repro.core import FTConfig, ft_gehrd
from repro.errors import UncorrectableError
from repro.faults import FaultInjector, FaultSpec
from repro.faults.regions import AREA_NO_PROPAGATION, classify, finished_cols_at
from repro.linalg import gehrd
from repro.utils.rng import random_matrix


def _factorized(n=48, nb=8, seed=0):
    a = random_matrix(n, seed=seed).copy(order="F")
    gehrd(a, nb=nb, nx=nb)
    return a


def _per_column_sums(a, n, cols):
    """Q checksums summed one column at a time: column ``j`` owns rows
    ``j+2 ..`` of the stored reflectors."""
    fr, fc = np.zeros(n), np.zeros(n)
    for j in range(cols):
        col = a[j + 2 : n, j].astype(np.float64)
        fc[j] = col.sum()
        fr[j + 2 : n] += col
    return fr, fc


class TestMaintenance:
    def test_incremental_matches_fresh(self):
        n, nb = 48, 8
        a = _factorized(n, nb, seed=1)
        qp = QProtector(n)
        for p in range(0, n - 1 - nb, nb):
            qp.update_for_panel(a, p, nb)
        fr, fc = qp.fresh_sums(a)
        np.testing.assert_allclose(qp.qr_chk, fr, atol=1e-12)
        np.testing.assert_allclose(qp.qc_chk, fc, atol=1e-12)

    def test_panels_must_arrive_in_order(self):
        a = _factorized(seed=2)
        qp = QProtector(48)
        qp.update_for_panel(a, 0, 8)
        with pytest.raises(UncorrectableError):
            qp.update_for_panel(a, 16, 8)  # skipped panel at p=8

    def test_column_segment_frozen_value(self):
        n, nb = 32, 8
        a = _factorized(n, nb, seed=3)
        qp = QProtector(n)
        qp.update_for_panel(a, 0, nb)
        for j in range(nb):
            assert qp.qc_chk[j] == pytest.approx(float(np.sum(a[j + 2 :, j])), abs=1e-13)


class TestVerifyAndCorrect:
    def test_clean_q_verifies(self):
        n, nb = 48, 8
        a = _factorized(n, nb, seed=4)
        qp = QProtector(n)
        for p in range(0, n - 1 - nb, nb):
            qp.update_for_panel(a, p, nb)
        assert qp.verify(a).count == 0

    def test_corrupted_reflector_located_and_corrected(self):
        n, nb = 48, 8
        a = _factorized(n, nb, seed=5)
        qp = QProtector(n)
        for p in range(0, n - 1 - nb, nb):
            qp.update_for_panel(a, p, nb)
        true_val = float(a[20, 3])  # Q region: row 20 >= 3+2, col 3 finished
        a[20, 3] += 0.75
        report = qp.verify_and_correct(a)
        assert report.count == 1
        assert report.errors[0].row == 20 and report.errors[0].col == 3
        assert a[20, 3] == pytest.approx(true_val, abs=1e-12)

    def test_two_corruptions_different_columns(self):
        n, nb = 48, 8
        a = _factorized(n, nb, seed=6)
        qp = QProtector(n)
        for p in range(0, n - 1 - nb, nb):
            qp.update_for_panel(a, p, nb)
        t1, t2 = float(a[10, 2]), float(a[30, 17])
        a[10, 2] += 1.0
        a[30, 17] -= 2.0
        qp.verify_and_correct(a)
        assert a[10, 2] == pytest.approx(t1, abs=1e-12)
        assert a[30, 17] == pytest.approx(t2, abs=1e-12)

    def test_corrupted_checksum_element_rebuilt(self):
        n, nb = 48, 8
        a = _factorized(n, nb, seed=7)
        qp = QProtector(n)
        for p in range(0, n - 1 - nb, nb):
            qp.update_for_panel(a, p, nb)
        qp.qr_chk[25] += 5.0  # the checksum itself gets hit
        report = qp.verify_and_correct(a)
        assert report.errors[0].kind == "row_checksum"
        assert qp.verify(a).count == 0

    def test_unfinished_region_not_covered(self):
        """Errors beyond the finished columns are outside Q protection
        (they are the H checksums' job)."""
        n, nb = 48, 8
        a = _factorized(n, nb, seed=8)
        qp = QProtector(n)
        qp.update_for_panel(a, 0, nb)  # only the first panel is protected
        a[40, 30] += 9.0               # column 30 not yet protected
        assert qp.verify(a).count == 0


class TestPerPanelMaintenance:
    """Each panel is folded in as one masked block; the sums must match
    a column-at-a-time recomputation to roundoff on every layout the
    drivers pass."""

    @staticmethod
    def _maintain(a, n, panels):
        qp = QProtector(n)
        for p, ib in panels:
            qp.update_for_panel(a, p, ib)
        return qp

    def test_ragged_last_panel(self):
        # the last panel is wider than the rows below it: n - p - 2 < ib
        n = 40
        a = random_matrix(n, seed=11).copy(order="F")
        panels = [(0, 16), (16, 16), (32, 8)]
        assert n - 32 - 2 < 8
        qp = self._maintain(a, n, panels)
        fr, fc = _per_column_sums(a, n, n)
        np.testing.assert_allclose(qp.qr_chk, fr, atol=1e-13)
        np.testing.assert_allclose(qp.qc_chk, fc, atol=1e-13)
        got_r, got_c = qp.fresh_sums(a)
        np.testing.assert_allclose(got_r, fr, atol=1e-13)
        np.testing.assert_allclose(got_c, fc, atol=1e-13)

    def test_transposed_c_ordered_view(self):
        # QProtector reads any layout: the transpose of the F-ordered
        # storage is a C-ordered view
        n = 30
        ext = random_matrix(n, seed=13).copy(order="F")
        at = ext.T
        assert at.flags.c_contiguous and not at.flags.f_contiguous
        qp = self._maintain(at, n, [(i, 1) for i in range(n - 1)])
        fr, fc = _per_column_sums(at, n, n - 1)
        np.testing.assert_allclose(qp.qr_chk, fr, atol=1e-13)
        np.testing.assert_allclose(qp.qc_chk, fc, atol=1e-13)
        at[20, 4] += 1.0
        report = qp.verify(at)
        assert [(e.row, e.col) for e in report.errors] == [(20, 4)]

    def test_rollback_restores_pre_panel_sums(self):
        n, nb = 48, 8
        a = _factorized(n, nb, seed=14)
        qp = self._maintain(a, n, [(0, nb), (nb, nb)])
        before_r, before_c = qp.qr_chk.copy(), qp.qc_chk.copy()
        qp.update_for_panel(a, 2 * nb, nb)
        qp.rollback_panel(a, 2 * nb, nb)
        assert qp.finished_cols == 2 * nb
        np.testing.assert_allclose(qp.qr_chk, before_r, atol=1e-14)
        np.testing.assert_array_equal(qp.qc_chk, before_c)
        with pytest.raises(UncorrectableError):
            qp.rollback_panel(a, 0, nb)  # not the most recent panel

    def test_fp32_storage_sums_in_float64(self):
        n, nb = 40, 8
        a = random_matrix(n, seed=15, dtype=np.float32).copy(order="F")
        qp = self._maintain(a, n, [(0, nb), (nb, nb)])
        fr, fc = _per_column_sums(a, n, 2 * nb)
        assert qp.qr_chk.dtype == np.float64
        np.testing.assert_allclose(qp.qr_chk, fr, atol=1e-13)
        np.testing.assert_allclose(qp.qc_chk, fc, atol=1e-13)


class TestQRegionBound:
    """The Q-region bound is ``10³·eps·n``: DLARFG bounds every
    stored reflector entry by 1, so the bound carries no ‖A‖ scale. Scaled
    by ‖A‖₁, it stood above 1 at fp32 and n=512 and let a 1.0 fault in a
    finished reflector through unlocated."""

    def test_threshold_has_no_matrix_scale(self):
        qp = QProtector(512)
        eps32 = float(np.finfo(np.float32).eps)
        assert qp.threshold(np.float32) == pytest.approx(1.0e3 * eps32 * 512)
        assert qp.threshold(np.float32) < 0.1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_area3_fault_corrected(self, dtype):
        n, nb = 256, 32
        a = random_matrix(n, seed=3, dtype=dtype)
        spec = FaultSpec(iteration=4, row=200, col=40, magnitude=1.0)
        assert classify(200, 40, finished_cols_at(4, n, nb), n) == AREA_NO_PROPAGATION
        clean = ft_gehrd(a, FTConfig(nb=nb))
        res = ft_gehrd(a, FTConfig(nb=nb), injector=FaultInjector([spec]))
        assert res.detections == 0  # a Q error never reaches the H checksums
        assert [(e.row, e.col) for e in res.q_report.errors] == [(200, 40)]
        eps = float(np.finfo(dtype).eps)
        np.testing.assert_allclose(res.a, clean.a, rtol=0, atol=8 * eps)

    def test_large_fault_corrected_without_its_rounding(self):
        # the correction sums the column's other entries instead of
        # subtracting the faulty value back out of the full sum
        n, nb = 96, 32
        a = random_matrix(n, seed=4)
        clean = ft_gehrd(a, FTConfig(nb=nb))
        spec = FaultSpec(iteration=2, row=80, col=20, magnitude=1.0e6)
        res = ft_gehrd(a, FTConfig(nb=nb), injector=FaultInjector([spec]))
        assert res.q_report.count == 1
        assert abs(res.a[80, 20] - clean.a[80, 20]) <= 4 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(4))
    def test_no_false_positive_on_clean_runs(self, seed, dtype):
        res = ft_gehrd(random_matrix(256, seed=100 + seed, dtype=dtype), FTConfig(nb=32))
        assert res.q_report.count == 0
        worst = max(
            np.abs(res.q_report.row_residuals).max(),
            np.abs(res.q_report.col_residuals).max(),
        )
        assert worst < QProtector(256).threshold(dtype) / 100
