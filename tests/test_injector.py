"""Tests for fault specs, bit flips, and the injector hook."""

import math

import numpy as np
import pytest

from repro.abft import EncodedMatrix
from repro.errors import FaultConfigError
from repro.faults import FaultInjector, FaultSpec, InjectionTargets, flip_bit
from repro.utils.rng import random_matrix


class TestFlipBit:
    def test_sign_bit(self):
        assert flip_bit(1.0, 63) == -1.0

    def test_exponent_bit_is_large(self):
        assert flip_bit(1.0, 62) != 1.0
        assert abs(flip_bit(1.0, 62)) > 1e100 or abs(flip_bit(1.0, 62)) < 1e-100

    def test_mantissa_lsb_is_tiny(self):
        x = 1.0
        y = flip_bit(x, 0)
        assert 0 < abs(y - x) < 1e-15

    def test_involution(self):
        for bit in (0, 13, 52, 63):
            assert flip_bit(flip_bit(3.14159, bit), bit) == 3.14159

    def test_bad_bit(self):
        with pytest.raises(FaultConfigError):
            flip_bit(1.0, 64)


class TestFaultSpec:
    def test_corrupt_kinds(self):
        assert FaultSpec(0, 0, 0, kind="add", magnitude=2.0).corrupt(1.0) == 3.0
        assert FaultSpec(0, 0, 0, kind="set", magnitude=9.0).corrupt(1.0) == 9.0
        assert FaultSpec(0, 0, 0, kind="bitflip", bit=63).corrupt(1.0) == -1.0

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(0, 0, 0, kind="zap")
        with pytest.raises(FaultConfigError):
            FaultSpec(0, 0, 0, space="register")
        with pytest.raises(FaultConfigError):
            FaultSpec(-1, 0, 0)


class TestInjector:
    def test_fires_once_at_its_iteration(self):
        em = EncodedMatrix(random_matrix(10, seed=1))
        inj = FaultInjector().add(FaultSpec(iteration=2, row=3, col=4, magnitude=1.0))
        t = InjectionTargets(em=em)
        assert inj.apply_phase(0, "boundary", t) == []
        assert inj.apply_phase(1, "boundary", t) == []
        recs = inj.apply_phase(2, "boundary", t)
        assert len(recs) == 1
        assert recs[0].new_value == recs[0].old_value + 1.0
        assert inj.apply_phase(2, "boundary", t) == []  # idempotent
        assert inj.count_fired == 1

    def test_checksum_space_targets(self):
        em = EncodedMatrix(random_matrix(10, seed=2))
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=0, row=3, col=-1, space="row_checksum", magnitude=5.0))
        inj.add(FaultSpec(iteration=0, row=-1, col=4, space="col_checksum", magnitude=-2.0))
        before_r = float(em.row_checksums[3])
        before_c = float(em.col_checksums[4])
        inj.apply_phase(0, "boundary", InjectionTargets(em=em))
        assert em.row_checksums[3] == before_r + 5.0
        assert em.col_checksums[4] == before_c - 2.0

    def test_pending_queries(self):
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=0, col=0))
        inj.add(FaultSpec(iteration=5, row=0, col=0))
        assert len(inj.pending(1)) == 1
        assert len(inj.pending_after(2)) == 1
        assert len(inj.pending_after(0)) == 2

    def test_out_of_range_target(self):
        em = EncodedMatrix(random_matrix(5, seed=3))
        inj = FaultInjector().add(FaultSpec(iteration=0, row=10, col=0))
        with pytest.raises(FaultConfigError):
            inj.apply_phase(0, "boundary", InjectionTargets(em=em))

    def test_apply_to_plain_array(self):
        a = random_matrix(8, seed=4).copy(order="F")
        inj = FaultInjector().add(FaultSpec(iteration=0, row=2, col=3, kind="set", magnitude=7.0))
        recs = inj.apply_to_array(a, 0)
        assert a[2, 3] == 7.0 and len(recs) == 1


class TestSER:
    def test_fit_conversions(self):
        from repro.faults import expected_errors, fit_to_errors_per_second

        # 3600 FIT → 1e-9 errors/second
        assert fit_to_errors_per_second(3600.0) == pytest.approx(1e-9)
        assert expected_errors(3600.0, 1e9, chips=2) == pytest.approx(2.0)

    def test_probability_of_any(self):
        from repro.faults import SoftErrorModel

        m = SoftErrorModel(fit=3600.0, runtime_seconds=1e9)
        assert m.probability_of_any() == pytest.approx(1 - math.exp(-1.0))

    def test_sample_plan_is_deterministic_and_valid(self):
        from repro.faults import SoftErrorModel, classify, finished_cols_at

        m = SoftErrorModel(fit=1e7, runtime_seconds=3600.0 * 24, chips=10)
        plan1 = m.sample_plan(100, 32, rng=7)
        plan2 = m.sample_plan(100, 32, rng=7)
        assert [f.iteration for f in plan1] == [f.iteration for f in plan2]
        for f in plan1:
            p = finished_cols_at(f.iteration, 100, 32)
            classify(f.row, f.col, p, 100)  # must not raise

    def test_invalid_inputs(self):
        from repro.faults import expected_errors, fit_to_errors_per_second

        with pytest.raises(FaultConfigError):
            fit_to_errors_per_second(-1.0)
        with pytest.raises(FaultConfigError):
            expected_errors(1.0, -5.0)
