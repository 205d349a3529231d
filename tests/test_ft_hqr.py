"""Tests for the protected Francis QR driver (checkpoint/rollback)."""

import warnings

import numpy as np
import pytest

from repro.eigen import (
    QRProtectConfig,
    ft_hqr,
    hessenberg_schur,
    is_quasi_triangular,
    standardized_blocks_ok,
)
from repro.errors import EscalationExhausted, ShapeError
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import orthogonality_residual
from repro.utils.rng import random_matrix


def _hess(n, seed, dtype=np.float64):
    return np.triu(random_matrix(n, seed=seed, dtype=dtype), -1)


def _spectrum(res):
    return np.sort_complex(res.eigvals)


class TestFaultFreeParity:
    @pytest.mark.parametrize("n", [1, 2, 8, 24, 48])
    def test_byte_identical_to_unprotected(self, n):
        h = _hess(n, n + 3)
        t_ref, z_ref = hessenberg_schur(h)
        res = ft_hqr(h)
        # same sweeps, same rotations, same memory walk: exact equality
        assert np.array_equal(res.t, t_ref)
        assert np.array_equal(res.z, z_ref)
        assert res.detections == 0
        assert res.recoveries == []
        assert res.sweeps == res.wall_steps

    def test_without_z(self):
        h = _hess(20, 5)
        res = ft_hqr(h, QRProtectConfig(want_z=False))
        assert res.z is None
        np.testing.assert_array_equal(
            _spectrum(res), _spectrum(ft_hqr(h)))

    def test_checkpoint_cadence(self):
        h = _hess(32, 1)
        res = ft_hqr(h, QRProtectConfig(verify_every=4))
        assert res.checkpoint_saves >= res.sweeps // 4
        assert res.verifications >= res.checkpoint_saves
        assert res.checkpoint_peak_bytes > 0
        assert res.verify_every_final == 4

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            ft_hqr(np.zeros((3, 4)))

    def test_rejects_non_hessenberg(self):
        a = random_matrix(8, seed=0)
        with pytest.raises(ShapeError):
            ft_hqr(a)


class TestDetectionAndRecovery:
    def test_matrix_fault_corrected_byte_exact(self):
        h = _hess(24, 7)
        clean = ft_hqr(h)
        inj = FaultInjector().add(FaultSpec(
            iteration=3, row=5, col=9, magnitude=1.0,
            space="qr_matrix", phase="pre_sweep"))
        res = ft_hqr(h, injector=inj)
        assert res.detections >= 1
        assert res.rollbacks >= 1
        assert "reverse_redo" in res.tier_tally
        # rollback replays the identical sweep sequence: exact recovery
        assert np.array_equal(res.t, clean.t)
        assert np.array_equal(res.z, clean.z)
        assert res.wall_steps > res.sweeps

    def test_z_fault_detected_by_orthogonality(self):
        h = _hess(24, 11)
        clean = ft_hqr(h)
        inj = FaultInjector().add(FaultSpec(
            iteration=4, row=3, col=8, magnitude=1.0,
            space="qr_z", phase="post_sweep"))
        res = ft_hqr(h, injector=inj)
        assert res.detections >= 1
        assert np.array_equal(res.t, clean.t)
        assert orthogonality_residual(res.z) < 1e-13

    def test_shift_fault_is_masked(self):
        # perturbing the (trace, det) shift pair steers the iteration but
        # preserves the similarity class: spectrum right, nothing to detect
        h = _hess(24, 13)
        ref = _spectrum(ft_hqr(h))
        inj = FaultInjector().add(FaultSpec(
            iteration=2, row=0, col=0, magnitude=0.5,
            space="qr_shift", phase="shift"))
        res = ft_hqr(h, injector=inj)
        got = _spectrum(res)
        scale = max(float(np.max(np.abs(ref))), 1.0)
        assert float(np.max(np.abs(got - ref))) / scale < 1e-8

    def test_deflation_fault_corrected(self):
        h = _hess(24, 17)
        clean = ft_hqr(h)
        inj = FaultInjector().add(FaultSpec(
            iteration=3, row=10, col=0, magnitude=1.0,
            space="qr_deflation", phase="pre_sweep"))
        res = ft_hqr(h, injector=inj)
        assert res.detections >= 1
        assert np.array_equal(res.t, clean.t)

    def test_checkpoint_corruption_deep_rollback(self):
        # corrupt the saved checkpoint, then hit T so the rollback is
        # forced to use it: restore self-verification must reject it and
        # escalate to the pristine-H deep rollback, halving verify_every
        h = _hess(24, 19)
        clean = ft_hqr(h)
        inj = (FaultInjector()
               .add(FaultSpec(iteration=6, row=4, col=7, magnitude=1.0,
                              space="qr_checkpoint", phase="pre_sweep"))
               .add(FaultSpec(iteration=6, row=5, col=9, magnitude=1.0,
                              space="qr_matrix", phase="pre_sweep")))
        cfg = QRProtectConfig(verify_every=6)
        res = ft_hqr(h, cfg, injector=inj)
        assert res.checkpoint_corruptions >= 1
        assert res.deep_rollbacks == 1
        assert res.verify_every_final == 3
        assert "deep_rollback" in res.tier_tally
        np.testing.assert_array_equal(_spectrum(res), _spectrum(clean))

    def test_exhaustion_raises_with_report(self):
        # a fault storm on every sweep outlasts the replays and the one
        # deep rollback
        h = _hess(24, 23)
        inj = FaultInjector()
        for it in range(1, 40):
            inj.add(FaultSpec(iteration=it, row=5, col=9, magnitude=1.0,
                              space="qr_matrix", phase="pre_sweep"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(EscalationExhausted) as exc_info:
                ft_hqr(h, injector=inj)
        report = exc_info.value.report
        assert report.successes == {"reverse_redo": 3, "deep_rollback": 1}

    def test_late_fault_fires_and_is_corrected(self):
        # planned far past convergence: strikes the finished T, and the
        # final verification catches it (no silent skip)
        h = _hess(24, 29)
        clean = ft_hqr(h)
        inj = FaultInjector().add(FaultSpec(
            iteration=10_000, row=2, col=6, magnitude=1.0,
            space="qr_matrix", phase="pre_sweep"))
        res = ft_hqr(h, injector=inj)
        assert res.detections >= 1
        assert np.array_equal(res.t, clean.t)

    def test_unfired_spec_warns(self):
        h = _hess(8, 31)
        # during_recovery never happens on a fault-free run
        inj = FaultInjector().add(FaultSpec(
            iteration=1, row=1, col=1, magnitude=1.0,
            space="qr_matrix", phase="during_recovery"))
        with pytest.warns(RuntimeWarning, match="never fired"):
            ft_hqr(h, injector=inj)

    def test_float32_fault_corrected(self):
        h = _hess(24, 37, dtype=np.float32)
        clean = ft_hqr(h)
        assert clean.dtype == "float32"
        inj = FaultInjector().add(FaultSpec(
            iteration=3, row=5, col=9, magnitude=1.0,
            space="qr_matrix", phase="pre_sweep"))
        res = ft_hqr(h, injector=inj)
        assert res.detections >= 1
        assert res.t.dtype == np.float32
        assert np.array_equal(res.t, clean.t)

    def test_result_structure_after_recovery(self):
        h = _hess(24, 41)
        inj = FaultInjector().add(FaultSpec(
            iteration=3, row=5, col=9, magnitude=1.0,
            space="qr_matrix", phase="pre_sweep"))
        res = ft_hqr(h, injector=inj)
        assert is_quasi_triangular(res.t, tol=1e-12)
        assert standardized_blocks_ok(res.t)
        assert res.errors_corrected == len(res.recoveries)
        assert res.checkpoint_restores == res.rollbacks


@pytest.mark.slow
class TestEigCampaignAcceptance:
    def test_zero_silent_corruption(self):
        from repro.faults import run_eig_campaign

        a = random_matrix(24, seed=0)
        res = run_eig_campaign(a, nb=8, moments=3, seed=0)
        counts = res.outcome_counts
        assert counts["detected"] == 0, counts  # silent wrong spectrum
        assert counts["aborted"] == 0, counts
        assert counts["corrected"] > 0
        assert res.baseline_residual < 1e-12
