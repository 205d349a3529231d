"""Tests for deep rollback: unwinding completed iterations from packed
storage, and recovery under detection latency (detect_every > 1)."""

import numpy as np
import pytest

from repro.abft import (
    EncodedMatrix,
    left_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.abft.unwind import (
    extract_panel_reflectors,
    locate_errors_rowonly,
    rebuild_col_checksums,
    unwind_iteration,
)
from repro.core import FTConfig, ft_gehrd
from repro.errors import ShapeError, UncorrectableError
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import one_norm, orghr, extract_hessenberg, factorization_residual
from repro.linalg.lahr2 import lahr2
from repro.utils.rng import random_matrix


def _run_iterations(em, taus, plan, upto):
    """Run the encoded factorization through iteration `upto` (exclusive),
    returning start-of-iteration snapshots."""
    n = em.n
    snaps = {}
    for it in range(upto):
        p, ib = plan[it]
        snaps[it] = em.ext.copy()
        pf = lahr2(em.ext, p, ib, n)
        taus[p : p + ib] = pf.taus
        vce = v_col_checksums(pf, em)
        ychk = y_col_checksums(em, pf)
        right_update_encoded(em, pf, vce, ychk)
        left_update_encoded(em, pf, vce)
        em.refresh_finished_segment(p, ib)
    snaps[upto] = em.ext.copy()
    return snaps


PLAN48 = [(0, 8), (8, 8), (16, 8), (24, 8), (32, 8), (40, 7)]


class TestUnwindIteration:
    def test_data_and_row_checksums_roundtrip(self):
        n = 48
        em = EncodedMatrix(random_matrix(n, seed=1))
        taus = np.zeros(n - 1)
        snaps = _run_iterations(em, taus, PLAN48, 3)
        unwind_iteration(em, *PLAN48[2], taus)
        # data + row-checksum column restored; the column-checksum row is
        # deliberately NOT unwound
        np.testing.assert_allclose(em.ext[:n, :], snaps[2][:n, :], atol=1e-10)

    def test_full_unwinding_restores_input(self):
        n = 48
        a0 = random_matrix(n, seed=2)
        em = EncodedMatrix(a0)
        taus = np.zeros(n - 1)
        _run_iterations(em, taus, PLAN48, len(PLAN48))
        for it in range(len(PLAN48) - 1, -1, -1):
            unwind_iteration(em, *PLAN48[it], taus)
        np.testing.assert_allclose(em.data, a0, atol=1e-10)

    def test_reflector_extraction_consistency(self):
        n = 48
        em = EncodedMatrix(random_matrix(n, seed=3))
        taus = np.zeros(n - 1)
        # run one iteration, capture its factors directly
        pf = lahr2(em.ext, 0, 8, n)
        taus[0:8] = pf.taus
        vce = v_col_checksums(pf, em)
        ychk = y_col_checksums(em, pf)
        right_update_encoded(em, pf, vce, ychk)
        left_update_encoded(em, pf, vce)
        v, t = extract_panel_reflectors(em, 0, 8, taus)
        np.testing.assert_allclose(v, pf.v, atol=1e-13)
        np.testing.assert_allclose(t, pf.t, atol=1e-12)

    def test_invalid_panel_rejected(self):
        em = EncodedMatrix(random_matrix(8, seed=4))
        with pytest.raises(ShapeError):
            extract_panel_reflectors(em, 6, 4, np.zeros(7))

    def test_corruption_survives_unwinding_as_single_delta(self):
        """Reversal linearity across MULTIPLE iterations: unwinding past
        the injection point restores a clean single-element delta."""
        n = 48
        em = EncodedMatrix(random_matrix(n, seed=5), channels=2)
        taus = np.zeros(n - 1)
        snaps = _run_iterations(em, taus, PLAN48, 2)  # through iterations 0,1
        clean = snaps[2][:n, :n].copy()               # pre-injection state
        em.data[30, 40] += 2.5                        # inject at start of it 2
        # run iterations 2 and 3 on the corrupted data
        for it in (2, 3):
            p, ib = PLAN48[it]
            pf = lahr2(em.ext, p, ib, n)
            taus[p : p + ib] = pf.taus
            vce = v_col_checksums(pf, em)
            ychk = y_col_checksums(em, pf)
            right_update_encoded(em, pf, vce, ychk)
            left_update_encoded(em, pf, vce)
            em.refresh_finished_segment(p, ib)
        unwind_iteration(em, *PLAN48[3], taus)
        unwind_iteration(em, *PLAN48[2], taus)
        diff = em.ext[:n, :n] - clean
        i, j = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
        assert (i, j) == (30, 40)
        assert diff[i, j] == pytest.approx(2.5, rel=1e-8)
        diff[i, j] = 0.0
        assert np.max(np.abs(diff)) < 1e-9


class TestRowOnlyLocation:
    def test_two_channel_ratio_locate(self):
        a = random_matrix(32, seed=6)
        em = EncodedMatrix(a, channels=2)
        em.data[7, 19] += 3.0
        errs = locate_errors_rowonly(em, 0, one_norm(a))
        assert len(errs) == 1
        assert (errs[0].row, errs[0].col) == (7, 19)

    def test_single_channel_refuses(self):
        a = random_matrix(32, seed=7)
        em = EncodedMatrix(a, channels=1)
        em.data[7, 19] += 3.0
        with pytest.raises(UncorrectableError):
            locate_errors_rowonly(em, 0, one_norm(a))

    def test_clean_state_locates_nothing(self):
        a = random_matrix(32, seed=8)
        em = EncodedMatrix(a, channels=2)
        assert locate_errors_rowonly(em, 0, one_norm(a)) == []

    def test_rebuild_col_checksums(self):
        a = random_matrix(32, seed=9)
        em = EncodedMatrix(a, channels=2)
        em.col_checksum_block[:] = 0.0
        rebuild_col_checksums(em, 0)
        np.testing.assert_allclose(
            em.col_checksum_block, em.fresh_col_block(0), atol=1e-12
        )


class TestDelayedDetectionRecovery:
    def _check(self, a0, res):
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        return factorization_residual(a0, q, h)

    def test_one_iteration_latency(self):
        a0 = random_matrix(128, seed=10)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=90, col=100, magnitude=2.0))
        res = ft_gehrd(a0, FTConfig(nb=32, detect_every=3, channels=2), injector=inj)
        assert self._check(a0, res) < 1e-12
        assert res.detections == 1
        e = res.recoveries[0].errors[0]
        assert (e.row, e.col) == (90, 100)

    def test_two_iteration_latency(self):
        a0 = random_matrix(128, seed=11)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=100, col=110, magnitude=1.5))
        res = ft_gehrd(a0, FTConfig(nb=32, detect_every=4, channels=2), injector=inj)
        assert self._check(a0, res) < 1e-12

    def test_single_channel_latency_restarts(self):
        """One channel cannot decode a stale smear — the deep rollback
        exhausts, and the ladder's restart tier turns what used to be a
        refusal into a (slow) clean success."""
        a0 = random_matrix(128, seed=12)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=90, col=100, magnitude=2.0))
        res = ft_gehrd(a0, FTConfig(nb=32, detect_every=3, channels=1), injector=inj)
        assert self._check(a0, res) < 1e-12
        assert res.restarts == 1
        assert [r.tier for r in res.recoveries] == ["restart"]

    def test_single_channel_latency_refused_without_restart_budget(self):
        """With the backstop disabled the old fail-stop contract holds:
        detected, not decodable, structured refusal (never silent)."""
        from repro.resilience import EscalationExhausted, LadderConfig

        a0 = random_matrix(128, seed=12)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=90, col=100, magnitude=2.0))
        cfg = FTConfig(
            nb=32, detect_every=3, channels=1, ladder=LadderConfig(max_restarts=0)
        )
        with pytest.raises(EscalationExhausted) as ei:
            ft_gehrd(a0, cfg, injector=inj)
        report = ei.value.report
        assert report is not None
        assert report.attempts.get("reverse_redo", 0) >= 1
        assert report.attempts.get("deep_rollback", 0) >= 1
        assert report.attempts.get("restart", 0) == 0

    def test_latency_zero_unaffected(self):
        """detect_every=1 (the paper's mode) never needs the deep path."""
        a0 = random_matrix(96, seed=13)
        inj = FaultInjector().add(FaultSpec(iteration=2, row=70, col=80, magnitude=1.0))
        res = ft_gehrd(a0, FTConfig(nb=32, detect_every=1, channels=1), injector=inj)
        assert self._check(a0, res) < 1e-13

    def test_metadata_mode_prices_unwinds(self):
        """Delayed detection costs more simulated time (redo of the
        intervening iterations plus the unwind kernels)."""
        from repro.core import HybridConfig, hybrid_gehrd, overhead_percent

        base = hybrid_gehrd(2046, HybridConfig(nb=32))

        def ovh(de):
            inj = FaultInjector().add(
                FaultSpec(iteration=9, row=1000, col=1100, magnitude=1.0)
            )
            ft = ft_gehrd(
                2046, FTConfig(nb=32, detect_every=de, channels=2),
                injector=inj,
            )
            return overhead_percent(ft, base)

        assert ovh(8) > ovh(1)
