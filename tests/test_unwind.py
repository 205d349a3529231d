"""Tests for deep rollback: unwinding completed iterations from packed
storage, and the tier that runs it, which refuses and hands over to the
restart when the detector checks every iteration."""

import numpy as np
import pytest

from repro.abft import (
    EncodedMatrix,
    left_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.abft.location import residual_threshold
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
from repro.resilience import LadderConfig
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

    @pytest.mark.parametrize("channels", [1, 2])
    def test_unwinding_keeps_the_unit_row_residual_norm(self, channels):
        """The right reverse leaves the unit-channel row residual as it
        is and the left reverse multiplies it by the orthogonal U, so its
        2-norm is the same at every depth while the bad rows spread —
        why one channel's deep rollback stops at its first refusal."""
        n = 128
        plan = [(p, 16) for p in range(0, 64, 16)]
        a = random_matrix(n, seed=14)
        em = EncodedMatrix(a, channels=channels)
        taus = np.zeros(n - 1)
        _run_iterations(em, taus, plan, len(plan))
        em.data[90, 100] += 1.0
        tol = residual_threshold(em, one_norm(a))

        def residual(finished):
            return em.fresh_row_block(finished)[:, 0] - em.row_checksum_block[:, 0]

        r0 = residual(64)
        assert np.flatnonzero(np.abs(r0) > tol).tolist() == [90]
        norms, bad_rows = [], []
        for p, ib in reversed(plan):
            unwind_iteration(em, p, ib, taus)
            r = residual(p)
            norms.append(np.linalg.norm(r))
            bad_rows.append(int(np.count_nonzero(np.abs(r) > tol)))
        np.testing.assert_allclose(norms, np.linalg.norm(r0), rtol=1e-12)
        assert bad_rows[0] > 1 and bad_rows == sorted(bad_rows)


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


def _panel_v_plan(it):
    """A strike on the live V block: the updates applied a V that tier 1
    cannot reverse, so only tiers 2 and 3 are left, at any channel count."""
    return FaultInjector(faults=[
        FaultSpec(iteration=it, row=30, col=5, space="panel_v", phase="post_panel"),
    ])


class TestDelayedDetectionRecovery:
    """The detector checks every iteration; a struck V block is caught in
    its own iteration, and tier 1's reversal cannot undo it."""

    def _check(self, a0, res):
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        return factorization_residual(a0, q, h)

    def test_single_channel_latency_restarts(self):
        """One channel cannot decode what the struck V left behind:
        tier 2 refuses, and the ladder's restart tier turns what used to
        be a refusal into a (slow) clean success."""
        a0 = random_matrix(128, seed=12)
        res = ft_gehrd(a0, FTConfig(nb=32, channels=1), injector=_panel_v_plan(1))
        assert self._check(a0, res) < 1e-12
        assert res.restarts == 1
        assert [r.tier for r in res.recoveries] == ["restart"]

    def test_single_channel_latency_refused_without_restart_budget(self):
        """With the backstop disabled the old fail-stop contract holds:
        detected, not decodable, structured refusal (never silent)."""
        from repro.resilience import EscalationExhausted

        a0 = random_matrix(128, seed=12)
        cfg = FTConfig(nb=32, channels=1, ladder=LadderConfig(max_restarts=0))
        with pytest.raises(EscalationExhausted) as ei:
            ft_gehrd(a0, cfg, injector=_panel_v_plan(1))
        report = ei.value.report
        assert report is not None
        assert report.attempts.get("reverse_redo", 0) >= 1
        assert report.attempts.get("deep_rollback", 0) == 1
        assert report.attempts.get("restart", 0) == 0

    def test_latency_zero_unaffected(self):
        """A matrix fault is caught in its own iteration and never needs
        the deep path."""
        a0 = random_matrix(96, seed=13)
        inj = FaultInjector().add(FaultSpec(iteration=2, row=70, col=80, magnitude=1.0))
        res = ft_gehrd(a0, FTConfig(nb=32, channels=1), injector=inj)
        assert [r.tier for r in res.recoveries] == ["reverse_redo"]
        assert self._check(a0, res) < 1e-13


class TestDeepRollbackStops:
    """One channel's deep rollback makes one step per detection; more
    channels keep unwinding while a deeper state may decode. The fault
    was caught in its own iteration, so no deeper state decodes and the
    restart tier finishes the run."""

    @pytest.fixture
    def unwound(self, monkeypatch):
        """The panel starts ``ft_gehrd`` unwinds, in call order."""
        import repro.core.ft_hessenberg as fth

        calls = []
        real = fth.unwind_iteration

        def spy(em, p, ib, taus, **kw):
            calls.append(p)
            return real(em, p, ib, taus, **kw)

        monkeypatch.setattr(fth, "unwind_iteration", spy)
        return calls

    def test_one_channel_restart_unwinds_one_iteration(self, unwound):
        a = random_matrix(96, seed=0)
        res = ft_gehrd(a, FTConfig(nb=16), injector=_panel_v_plan(3))
        assert unwound == [32]
        assert [(r.iteration, r.tier) for r in res.recoveries] == [(3, "restart")]
        assert (res.restarts, res.detections, res.tau_repairs) == (1, 1, 0)
        # the refused unwind leaves nothing behind: the restart reduces the
        # input as a clean run does, and the record prices no recovery
        clean = ft_gehrd(a, FTConfig(nb=16))
        assert res.a.tobytes() == clean.a.tobytes()
        assert res.taus.tobytes() == clean.taus.tobytes()
        assert res.q_report.errors == clean.q_report.errors == []
        for side in ("row_residuals", "col_residuals"):
            assert getattr(res.q_report, side).tobytes() == getattr(clean.q_report, side).tobytes()
        events = res.record.key[-1]
        assert [e for e in events if e[0] != "iteration"] == [("restart", 3), ("finish", False)]

    def test_two_channel_unwinds_to_iteration_zero(self, unwound):
        a = random_matrix(96, seed=0)
        res = ft_gehrd(a, FTConfig(nb=16, channels=2), injector=_panel_v_plan(3))
        assert unwound == [32, 16, 0]
        assert [(r.iteration, r.tier) for r in res.recoveries] == [(3, "restart")]
        q = orghr(res.a, res.taus)
        assert factorization_residual(a, q, extract_hessenberg(res.a)) < 1e-13
