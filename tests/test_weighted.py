"""Tests for the multi-channel (Huang-Abraham weighted) checksum
extension — the generalization of the paper's unit encoding that decodes
error patterns the unit scheme provably cannot."""

import numpy as np
import pytest

from repro.abft import (
    EncodedMatrix,
    Detector,
    ThresholdPolicy,
    correct_all,
    linear_weights,
    locate_errors,
    make_weight_block,
)
from repro.core import FTConfig, ft_gehrd
from repro.errors import ShapeError, UncorrectableError
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import (
    extract_hessenberg,
    factorization_residual,
    one_norm,
    orghr,
)
from repro.utils.rng import random_matrix


class TestWeightBlocks:
    def test_linear_weights_strictly_increasing_bounded(self):
        w = linear_weights(100)
        assert np.all(np.diff(w) > 0)
        assert w[0] == pytest.approx(0.01) and w[-1] == 1.0

    def test_make_weight_block_unit_first(self):
        w = make_weight_block(10, 3)
        assert w.shape == (3, 10)
        np.testing.assert_array_equal(w[0], 1.0)
        np.testing.assert_allclose(w[2], linear_weights(10) ** 2)

    def test_invalid_channels(self):
        with pytest.raises(ShapeError):
            make_weight_block(10, 0)

    def test_custom_weights_validated(self):
        a = random_matrix(8, seed=1)
        with pytest.raises(ShapeError):
            EncodedMatrix(a, weights=np.ones((2, 5)))
        with pytest.raises(ShapeError):
            # channel 0 must be unit
            EncodedMatrix(a, weights=np.vstack([2 * np.ones(8), np.ones(8)]))


class TestEncodingInvariants:
    def test_layout_and_views(self):
        a = random_matrix(10, seed=2)
        em = EncodedMatrix(a, channels=2)
        assert em.ext.shape == (12, 12)
        assert em.row_checksum_block.shape == (10, 2)
        assert em.col_checksum_block.shape == (2, 10)
        np.testing.assert_allclose(em.row_checksum_block[:, 0], a @ np.ones(10))
        np.testing.assert_allclose(em.row_checksum_block[:, 1], a @ linear_weights(10))

    def test_cross_gaps_zero_on_consistent_state(self):
        em = EncodedMatrix(random_matrix(24, seed=3), channels=2)
        assert float(np.max(em.cross_gaps())) < 1e-12

    def test_theorem1_with_two_channels(self):
        """The maintained weighted checksums survive the factorization."""
        from repro.abft import (
            left_update_encoded,
            right_update_encoded,
            v_col_checksums,
            y_col_checksums,
        )
        from repro.linalg.lahr2 import lahr2

        n, nb = 48, 8
        em = EncodedMatrix(random_matrix(n, seed=4), channels=2)
        p = 0
        while n - 1 - p > 0:
            ib = min(nb, n - 1 - p)
            pf = lahr2(em.ext, p, ib, n)
            vce = v_col_checksums(pf, em)
            assert vce.shape == (2, ib)
            ychk = y_col_checksums(em, pf)
            right_update_encoded(em, pf, vce, ychk)
            left_update_encoded(em, pf, vce)
            em.refresh_finished_segment(p, ib)
            p += ib
            frb = em.fresh_row_block(p)
            fcb = em.fresh_col_block(p)
            assert np.max(np.abs(em.row_checksum_block - frb)) < 1e-11
            assert np.max(np.abs(em.col_checksum_block - fcb)) < 1e-11


class TestWeightedDetection:
    def test_detector_uses_cross_statistics(self):
        a = random_matrix(32, seed=5)
        em = EncodedMatrix(a, channels=2)
        det = Detector(ThresholdPolicy(), one_norm(a))
        assert det.check(em) is False
        em.ext[3, em.n + 1] += 1.0  # corrupt a WEIGHTED checksum element
        assert det.check(em) is True


class TestWeightedLocation:
    def _em(self, n=32, seed=0):
        a = random_matrix(n, seed=seed)
        return EncodedMatrix(a, channels=2), one_norm(a), a

    def test_single_error_ratio_decode(self):
        em, norm_a, a = self._em(seed=6)
        em.data[7, 19] += 2.5
        rep = locate_errors(em, 0, norm_a)
        assert rep.count == 1
        e = rep.errors[0]
        assert (e.row, e.col) == (7, 19)
        assert e.magnitude == pytest.approx(2.5, rel=1e-9)

    def test_l_shape_now_decodes(self):
        """The pattern the unit encoding provably cannot resolve
        (test_location.py::test_three_errors_l_shape_is_ambiguous)."""
        em, norm_a, a = self._em(seed=7)
        em.data[1, 1] += 1.0
        em.data[1, 8] += 2.0
        em.data[12, 8] += 4.0
        rep = locate_errors(em, 0, norm_a)
        got = {(e.row, e.col, round(e.magnitude, 6)) for e in rep.errors}
        assert got == {(1, 1, 1.0), (1, 8, 2.0), (12, 8, 4.0)}
        correct_all(em, rep.errors, 0)
        np.testing.assert_allclose(em.data, a, atol=1e-10)

    def test_equal_magnitudes_decode(self):
        """Magnitude-matching (the unit decoder's tool) is useless when
        magnitudes coincide; the ratio test does not care."""
        em, norm_a, a = self._em(seed=8)
        em.data[3, 10] += 1.0
        em.data[14, 20] += 1.0
        rep = locate_errors(em, 0, norm_a)
        assert {(e.row, e.col) for e in rep.errors} == {(3, 10), (14, 20)}

    def test_rectangle_still_refused(self):
        """Even two channels cannot disambiguate a *consistent* rectangle
        whose magnitudes conspire; refusal beats guessing."""
        em, norm_a, _ = self._em(seed=9)
        # construct residuals consistent with a rank-1 (outer-product)
        # corruption: delta = u vᵀ on a 2x2 support
        em.data[2, 3] += 2.0
        em.data[2, 7] += 4.0
        em.data[11, 3] += 3.0
        em.data[11, 7] += 6.0
        with pytest.raises(UncorrectableError):
            locate_errors(em, 0, norm_a)

    def test_weighted_checksum_element_corruption(self):
        em, norm_a, a = self._em(seed=10)
        em.ext[5, em.n + 1] += 3.0  # weighted row-checksum element
        rep = locate_errors(em, 0, norm_a)
        assert rep.count == 1
        e = rep.errors[0]
        assert e.kind == "row_checksum" and e.channel == 1 and e.row == 5
        correct_all(em, rep.errors, 0)
        assert locate_errors(em, 0, norm_a).count == 0


class TestWeightedDriver:
    def test_no_error_run_clean(self):
        a = random_matrix(96, seed=11)
        res = ft_gehrd(a, FTConfig(nb=32, channels=2))
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(a, q, h) < 1e-14
        assert res.detections == 0

    def test_l_shape_triple_error_recovered(self):
        a = random_matrix(96, seed=12)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=40, col=50, magnitude=1.0))
        inj.add(FaultSpec(iteration=1, row=40, col=70, magnitude=2.0))
        inj.add(FaultSpec(iteration=1, row=80, col=70, magnitude=4.0))
        res = ft_gehrd(a, FTConfig(nb=32, channels=2), injector=inj)
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(a, q, h) < 1e-13
        assert len(res.recoveries[0].errors) == 3

    def test_same_pattern_restarts_with_one_channel(self):
        """One channel cannot decode the L-shaped pattern (the ambiguity
        the weighted channel exists to break); the ladder's restart tier
        still turns it into a clean — if slow — success."""
        a = random_matrix(96, seed=12)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=40, col=50, magnitude=1.0))
        inj.add(FaultSpec(iteration=1, row=40, col=70, magnitude=2.0))
        inj.add(FaultSpec(iteration=1, row=80, col=70, magnitude=4.0))
        res = ft_gehrd(a, FTConfig(nb=32, channels=1), injector=inj)
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(a, q, h) < 1e-13
        assert res.restarts == 1

    def test_same_pattern_refused_with_one_channel_no_restart(self):
        """With the restart backstop disabled the decode failure is a
        structured fail-stop, exactly as before the ladder existed."""
        from repro.resilience import EscalationExhausted, LadderConfig

        a = random_matrix(96, seed=12)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=40, col=50, magnitude=1.0))
        inj.add(FaultSpec(iteration=1, row=40, col=70, magnitude=2.0))
        inj.add(FaultSpec(iteration=1, row=80, col=70, magnitude=4.0))
        cfg = FTConfig(nb=32, channels=1, ladder=LadderConfig(max_restarts=0))
        with pytest.raises(EscalationExhausted):
            ft_gehrd(a, cfg, injector=inj)

    def test_overhead_cost_of_second_channel_is_small(self):
        from repro.core import HybridConfig, hybrid_gehrd, overhead_percent

        base = hybrid_gehrd(4030, HybridConfig(nb=32))
        f1 = ft_gehrd(4030, FTConfig(nb=32, channels=1))
        f2 = ft_gehrd(4030, FTConfig(nb=32, channels=2))
        o1, o2 = overhead_percent(f1, base), overhead_percent(f2, base)
        assert o1 < o2 < o1 + 0.5  # the second channel costs a fraction of a percent
