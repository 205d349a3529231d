"""Tests for the checksum encoding layer (paper §IV-B, Fig. 3)."""

import numpy as np
import pytest

from repro.abft.encoding import EncodedMatrix
from repro.errors import ShapeError
from repro.linalg import FlopCounter
from repro.utils.rng import random_matrix


class TestEncode:
    def test_layout(self):
        a = random_matrix(10, seed=1)
        em = EncodedMatrix(a)
        assert em.ext.shape == (11, 11)
        np.testing.assert_array_equal(em.data, a)

    def test_row_checksums_are_row_sums(self):
        a = random_matrix(10, seed=2)
        em = EncodedMatrix(a)
        np.testing.assert_allclose(em.row_checksums, a @ np.ones(10), rtol=1e-14)

    def test_col_checksums_are_col_sums(self):
        a = random_matrix(10, seed=3)
        em = EncodedMatrix(a)
        np.testing.assert_allclose(em.col_checksums, np.ones(10) @ a, rtol=1e-14)

    def test_views_are_live(self):
        em = EncodedMatrix(random_matrix(6, seed=4))
        em.data[0, 0] = 99.0
        assert em.ext[0, 0] == 99.0
        em.row_checksums[2] = -1.0
        assert em.ext[2, 6] == -1.0

    def test_gap_zero_after_encode(self):
        em = EncodedMatrix(random_matrix(32, seed=5))
        assert em.checksum_gap() < 1e-12

    def test_counter(self):
        cnt = FlopCounter()
        EncodedMatrix(random_matrix(8, seed=6), counter=cnt)
        assert cnt.category_total("abft_init") > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            EncodedMatrix(np.zeros((3, 4)))


class TestFreshSums:
    def test_no_mask_when_nothing_finished(self):
        a = random_matrix(12, seed=7)
        em = EncodedMatrix(a)
        np.testing.assert_allclose(em.fresh_row_sums(0), a @ np.ones(12), rtol=1e-14)
        np.testing.assert_allclose(em.fresh_col_sums(0), np.ones(12) @ a, rtol=1e-14)

    def test_masking_excludes_q_region(self):
        a = random_matrix(12, seed=8)
        em = EncodedMatrix(a)
        finished = 4
        masked = a.copy()
        for j in range(finished):
            masked[j + 2 :, j] = 0.0
        np.testing.assert_allclose(em.fresh_row_sums(finished), masked @ np.ones(12))
        np.testing.assert_allclose(em.fresh_col_sums(finished), np.ones(12) @ masked)

    def test_refresh_finished_segment(self):
        a = random_matrix(12, seed=9)
        em = EncodedMatrix(a)
        em.col_checksums[:] = 0.0
        em.refresh_finished_segment(0, 3)
        for j in range(3):
            expected = float(np.sum(a[: j + 2, j]))
            assert em.col_checksums[j] == pytest.approx(expected, rel=1e-13)
        assert np.all(em.col_checksums[3:] == 0.0)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("p,ib", [(4, 4), (9, 3), (10, 5)])
    def test_panel_refresh_matches_per_column_products(self, p, ib, channels):
        # one masked product per panel; (9, 3) ends at column n-1, whose
        # segment is the whole column, and (10, 5) runs past n
        n = 12
        em = EncodedMatrix(random_matrix(n, seed=10), channels=channels)
        em.ext[n:, :n] = 0.0
        em.refresh_finished_segment(p, ib)
        for j in range(n):
            hi = min(j + 2, n)
            want = em.weights[:, :hi] @ em.ext[:hi, j] if p <= j < p + ib else 0.0
            np.testing.assert_allclose(em.ext[n:, j], want, rtol=1e-13, atol=0)


class TestSegmentScratch:
    def test_one_scratch_buffer_per_matrix(self, monkeypatch):
        """The refresh's masked-panel scratch is sized once, for the
        largest segment (n rows), not regrown as the segment's rows grow."""
        from repro.core import FTConfig, ft_gehrd

        seen = []
        real = EncodedMatrix.refresh_finished_segment

        def spy(self, p, ib, **kw):
            real(self, p, ib, **kw)
            seen.append(self._seg)

        monkeypatch.setattr(EncodedMatrix, "refresh_finished_segment", spy)
        ft_gehrd(random_matrix(128, seed=1), FTConfig(nb=16))
        assert len(seen) == 8
        assert len({id(buf) for buf in seen}) == 1
        assert seen[0].size == 128 * 16
