"""Tests for the diskless panel checkpoint store."""

import numpy as np
import pytest

from repro.abft import DisklessCheckpointStore, EncodedMatrix
from repro.errors import ReproError
from repro.utils.rng import random_matrix


class TestCheckpointStore:
    def test_save_restore_roundtrip(self):
        em = EncodedMatrix(random_matrix(16, seed=1))
        store = DisklessCheckpointStore()
        store.save(em, 4, 4)
        saved = em.data[:, 4:8].copy()
        em.data[:, 4:8] = -1.0
        em.col_checksums[4:8] = 0.0
        store.restore(em)
        np.testing.assert_array_equal(em.data[:, 4:8], saved)

    def test_restore_includes_checksum_segment(self):
        em = EncodedMatrix(random_matrix(16, seed=2))
        store = DisklessCheckpointStore()
        seg = em.col_checksums[0:4].copy()
        store.save(em, 0, 4)
        em.col_checksums[0:4] = 123.0
        store.restore(em)
        np.testing.assert_array_equal(em.col_checksums[0:4], seg)

    def test_only_latest_checkpoint_kept(self):
        em = EncodedMatrix(random_matrix(16, seed=3))
        store = DisklessCheckpointStore()
        store.save(em, 0, 4)
        store.save(em, 4, 4)
        assert store.current.p == 4
        assert store.saves == 2

    def test_restore_without_save_raises(self):
        em = EncodedMatrix(random_matrix(8, seed=4))
        with pytest.raises(ReproError):
            DisklessCheckpointStore().restore(em)

    def test_peak_bytes_matches_panel_size(self):
        """The paper's §V storage claim: the checkpoint is panel-sized."""
        n, nb = 64, 16
        em = EncodedMatrix(random_matrix(n, seed=5))
        store = DisklessCheckpointStore()
        store.save(em, 0, nb)
        assert store.peak_bytes == 8 * (n * nb + nb)

    def test_restore_does_not_touch_other_columns(self):
        em = EncodedMatrix(random_matrix(16, seed=6))
        store = DisklessCheckpointStore()
        store.save(em, 4, 4)
        before = em.data[:, 8:].copy()
        em.data[:, 4:8] = 0.0
        store.restore(em)
        np.testing.assert_array_equal(em.data[:, 8:], before)


LANES = (np.float64, np.float32)


def _saved(dtype, n=96, ib=16, p=16):
    em = EncodedMatrix(random_matrix(n, seed=11, dtype=dtype))
    store = DisklessCheckpointStore()
    cp = store.save(em, p, ib)
    return em, store, cp, cp.panel.copy(order="F")


class TestCheckpointRepair:
    """The guard rows place one struck element of a column and the
    restore repairs it; anything else is restored as it is and reported."""

    @pytest.mark.parametrize("dtype", LANES)
    @pytest.mark.parametrize("row", [0, 47, 95])
    def test_one_strike_is_repaired(self, dtype, row):
        em, store, cp, saved = _saved(dtype)
        cp.panel[row, 5] += 1.0
        assert cp.suspect_columns() == [5]
        _, suspects = store.restore(em, verify=True)
        assert suspects == []
        assert store.corruption_detected == 1
        if dtype == np.float32:
            # repaired from the float64 weighted sum: the very bits
            assert cp.panel.tobytes() == saved.tobytes()
        else:
            np.testing.assert_allclose(cp.panel, saved, rtol=0, atol=1e-13)
        # the restore wrote the repaired panel back
        assert em.data[:, 16:32].tobytes() == cp.panel.tobytes()
        assert cp.suspect_columns() == []

    @pytest.mark.parametrize("n, mag", [(96, 1e-6), (512, 1e-6), (512, 1e-4)])
    def test_small_fp32_strikes_are_placed_by_the_float64_guards(self, n, mag):
        """A small fp32 strike moves the unit sum by about that sum's own
        rounding, which blurs the unit/linear ratio; the two float64
        guards place it, and the flagged columns get their very bits back."""
        em, store, cp, saved = _saved(np.float32, n=n, ib=32, p=0)
        rows = np.random.default_rng(n).integers(0, n, 32)
        for j, row in enumerate(rows):
            cp.panel[row, j] += np.float32(mag)
        flagged = cp.suspect_columns()
        assert len(flagged) >= 16
        _, suspects = store.restore(em, verify=True)
        assert suspects == []
        assert cp.panel[:, flagged].tobytes() == saved[:, flagged].tobytes()

    @pytest.mark.parametrize("dtype", LANES)
    @pytest.mark.parametrize("rows, mags", [
        ((20, 40), (1.0, 1.0)),   # fits the unit and linear guards at row 30
        ((10, 50), (2.0, 2.0)),
        ((3, 70), (1.0, -0.5)),
        ((30, 31), (1.0, 1.0)),
    ])
    def test_two_strikes_in_one_column_stay_suspect(self, dtype, rows, mags):
        em, store, cp, saved = _saved(dtype)
        for row, mag in zip(rows, mags):
            cp.panel[row, 5] += mag
        struck = cp.panel.copy(order="F")
        _, suspects = store.restore(em, verify=True)
        assert suspects == [5]
        assert store.corruption_detected == 1
        # left exactly as struck, and restored that way
        assert cp.panel.tobytes() == struck.tobytes()
        assert em.data[:, 16:32].tobytes() == struck.tobytes()

    @pytest.mark.parametrize("dtype", LANES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_strike_stays_suspect(self, dtype, value):
        em, store, cp, saved = _saved(dtype)
        cp.panel[40, 2] = value
        _, suspects = store.restore(em, verify=True)
        assert suspects == [2]
        assert store.corruption_detected == 1

    @pytest.mark.parametrize("dtype", LANES)
    def test_strikes_in_two_columns_are_each_repaired(self, dtype):
        em, store, cp, saved = _saved(dtype)
        cp.panel[7, 1] += 3.0
        cp.panel[88, 14] -= 0.25
        cp.panel[50, 9] = np.nan
        _, suspects = store.restore(em, verify=True)
        assert suspects == [9]
        assert store.corruption_detected == 3
        keep = [j for j in range(16) if j != 9]
        np.testing.assert_allclose(cp.panel[:, keep], saved[:, keep], rtol=0, atol=1e-13)

    def test_restore_without_verify_repairs_nothing(self):
        em, store, cp, saved = _saved(np.float64)
        cp.panel[10, 3] += 1.0
        store.restore(em)
        assert cp.panel[10, 3] == saved[10, 3] + 1.0
        assert store.corruption_detected == 0
