"""Tests for the Algorithm-3 fault-tolerant driver — the paper's core."""

import numpy as np
import pytest

from repro.abft import EncodedMatrix
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.errors import ConvergenceError, NonFiniteInputError
from repro.faults import FaultInjector, FaultSpec, finished_cols_at, iteration_count
from repro.linalg import (
    extract_hessenberg,
    factorization_residual,
    orghr,
    orthogonality_residual,
)
from repro.utils.rng import random_matrix


def _verify(a0, res, tol=1e-14):
    q = orghr(res.a, res.taus)
    h = extract_hessenberg(res.a)
    return factorization_residual(a0, q, h), orthogonality_residual(q)


class TestNoError:
    @pytest.mark.parametrize("n,nb", [(40, 8), (96, 32), (158, 32)])
    def test_correctness_matches_baseline(self, n, nb):
        a0 = random_matrix(n, seed=n + 1)
        res = ft_gehrd(a0, FTConfig(nb=nb))
        resid, orth = _verify(a0, res)
        assert resid < 1e-14 and orth < 1e-14
        assert res.detections == 0
        assert res.checks == res.iterations

    def test_no_false_positives_across_sizes_and_kinds(self):
        from repro.utils.rng import MatrixKind

        for kind in (MatrixKind.UNIFORM, MatrixKind.GAUSSIAN, MatrixKind.GRADED):
            a0 = random_matrix(128, kind, seed=9)
            res = ft_gehrd(a0, FTConfig(nb=32))
            assert res.detections == 0, f"false positive on {kind}"

    def test_checkpoint_stats(self):
        a0 = random_matrix(96, seed=2)
        res = ft_gehrd(a0, FTConfig(nb=32))
        assert res.checkpoint_saves == res.iterations
        assert res.checkpoint_restores == 0
        assert res.checkpoint_peak_bytes > 0


class TestSingleErrorRecovery:
    def test_area2_error_recovered(self):
        a0 = random_matrix(96, seed=3)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=60, col=70, magnitude=2.0))
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, orth = _verify(a0, res)
        assert resid < 1e-14 and orth < 1e-14
        assert res.detections == 1
        assert len(res.recoveries) == 1
        e = res.recoveries[0].errors[0]
        assert (e.row, e.col) == (60, 70)
        assert e.magnitude == pytest.approx(2.0, rel=1e-8)

    def test_area1_error_recovered(self):
        a0 = random_matrix(96, seed=4)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=10, col=70, magnitude=-1.5))
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-14
        assert res.checkpoint_restores == 1

    def test_area3_error_corrected_at_end(self):
        a0 = random_matrix(96, seed=5)
        # column 5 finishes after iteration 0; hit its reflector storage
        inj = FaultInjector().add(FaultSpec(iteration=1, row=40, col=5, magnitude=1.0))
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, orth = _verify(a0, res)
        assert resid < 1e-13 and orth < 1e-13
        assert res.detections == 0          # invisible to the Σ test
        assert res.q_report.count == 1      # caught by the final Q check
        e = res.q_report.errors[0]
        assert (e.row, e.col) == (40, 5)

    def test_bitflip_fault_model(self):
        """A mid-exponent bit flip (value scaled by 2^±8) detects and
        recovers exactly."""
        a0 = random_matrix(96, seed=6)
        inj = FaultInjector().add(
            FaultSpec(iteration=2, row=80, col=90, kind="bitflip", bit=55)
        )
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-13
        assert res.detections >= 1

    def test_catastrophic_bitflip_is_at_least_detected(self):
        """Flipping the exponent MSB creates a non-finite value that
        poisons the panel's V/T/Y — reverse computation cannot undo NaN
        arithmetic, so the guarantee degrades to detect-and-refuse: the
        run either recovers or raises, it must never return a silently
        corrupted factorization."""
        import warnings

        from repro.errors import ReproError

        a0 = random_matrix(96, seed=14)
        inj = FaultInjector().add(
            FaultSpec(iteration=2, row=80, col=90, kind="bitflip", bit=62)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
            except ReproError:
                return  # detected and refused: acceptable
        resid, _ = _verify(a0, res)
        assert resid < 1e-12  # if it claims success it must be correct

    def test_checksum_element_error_recovered(self):
        a0 = random_matrix(96, seed=7)
        inj = FaultInjector().add(
            FaultSpec(iteration=1, row=50, col=-1, space="row_checksum", magnitude=4.0)
        )
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-14
        assert res.recoveries[0].errors[0].kind == "row_checksum"

    def test_error_at_every_moment(self):
        """Sweep the injection moment across the whole factorization."""
        n, nb = 128, 32
        a0 = random_matrix(n, seed=8)
        total = iteration_count(n, nb)
        for it in range(total):
            p = finished_cols_at(it, n, nb)
            inj = FaultInjector().add(
                FaultSpec(iteration=it, row=min(p + 5, n - 1), col=min(p + 10, n - 1),
                          magnitude=1.0)
            )
            res = ft_gehrd(a0, FTConfig(nb=nb), injector=inj)
            resid, _ = _verify(a0, res)
            assert resid < 1e-13, f"moment {it} failed: {resid}"


class TestMultiErrorRecovery:
    def test_two_simultaneous_errors(self):
        """The paper's stronger-than-LU/QR claim: simultaneous errors not
        forming a rectangle are corrected in one recovery."""
        a0 = random_matrix(96, seed=10)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=50, col=60, magnitude=1.0))
        inj.add(FaultSpec(iteration=1, row=70, col=80, magnitude=2.0))
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-14
        assert len(res.recoveries) == 1
        assert len(res.recoveries[0].errors) == 2

    def test_errors_in_different_iterations(self):
        """Sequential errors: corrected per iteration, ready for the next
        (the paper's 'continues as normal' property)."""
        a0 = random_matrix(128, seed=11)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=0, row=40, col=50, magnitude=1.0))
        inj.add(FaultSpec(iteration=2, row=90, col=100, magnitude=2.0))
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-14
        assert res.detections == 2
        assert len(res.recoveries) == 2

    def test_same_row_pair(self):
        a0 = random_matrix(96, seed=12)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=50, col=60, magnitude=1.0))
        inj.add(FaultSpec(iteration=1, row=50, col=80, magnitude=3.0))
        res = ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-14


class TestScheduleAndOverhead:
    def test_metadata_overhead_small_and_decreasing(self):
        base1 = hybrid_gehrd(1022, HybridConfig(nb=32))
        ft1 = ft_gehrd(1022, FTConfig(nb=32))
        base2 = hybrid_gehrd(4030, HybridConfig(nb=32))
        ft2 = ft_gehrd(4030, FTConfig(nb=32))
        o1, o2 = overhead_percent(ft1, base1), overhead_percent(ft2, base2)
        assert 0 < o2 < o1 < 5.0

    def test_error_overhead_depends_on_moment(self):
        """Early errors redo a bigger iteration (Fig. 6's band)."""
        n = 4030
        base = hybrid_gehrd(n, HybridConfig(nb=32))
        total = iteration_count(n, 32)

        def ovh(it):
            p = finished_cols_at(it, n, 32)
            inj = FaultInjector().add(
                FaultSpec(iteration=it, row=p + 2, col=p + 3, magnitude=1.0)
            )
            ft = ft_gehrd(n, FTConfig(nb=32), injector=inj)
            return overhead_percent(ft, base)

        assert ovh(1) > ovh(total - 2)

    def test_q_checksum_overlap_hides_cost(self):
        """The paper's §IV-E trick: overlapped Q checksums must be
        no slower than the serialized ablation."""
        n = 2046
        t_overlap = ft_gehrd(n, FTConfig(nb=32, overlap_q_checksums=True)).seconds
        t_serial = ft_gehrd(n, FTConfig(nb=32, overlap_q_checksums=False)).seconds
        assert t_overlap <= t_serial

    def test_persistent_error_storm_raises(self, storm_injector):
        """An adversarial injector that re-corrupts on every retry must
        exhaust the budget, not loop forever."""

        a0 = random_matrix(96, seed=13)
        inj = storm_injector().add(FaultSpec(iteration=1, row=50, col=60, magnitude=1.0))
        with pytest.raises(ConvergenceError, match="persisted past 3 retries") as exc:
            ft_gehrd(a0, FTConfig(nb=32), injector=inj)
        # the strike and its three re-executions, before and after the
        # one restart
        assert len(inj.injected) == 8
        assert exc.value.report.attempts["restart"] == 1


class TestNonFiniteInput:
    """A NaN or an infinity in the input is rejected before encoding: its
    checksums would be non-finite, so every tier would fail and the run
    would end in ``EscalationExhausted`` after a restart."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_encode(self, dtype, bad, monkeypatch):
        encodes = []
        original = EncodedMatrix.encode

        def counting(self, *args, **kw):
            encodes.append(self)
            return original(self, *args, **kw)

        monkeypatch.setattr(EncodedMatrix, "encode", counting)
        a = random_matrix(64, seed=3, dtype=dtype)
        a[17, 40] = bad
        with pytest.raises(NonFiniteInputError, match="NaN or an infinity"):
            ft_gehrd(a, FTConfig(nb=16))
        assert encodes == []
        assert issubclass(NonFiniteInputError, ValueError)

    def test_overflowing_column_sum_is_rejected(self):
        a = random_matrix(32, seed=4)
        a[:, 5] = np.finfo(np.float64).max / 4
        with pytest.raises(NonFiniteInputError):
            ft_gehrd(a, FTConfig(nb=8))
