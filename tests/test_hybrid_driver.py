"""Tests for the Algorithm-2 hybrid driver (MAGMA-style baseline)."""

import numpy as np
import pytest

from repro.core import HybridConfig, hybrid_gehrd, iteration_plan
from repro.errors import ShapeError
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import (
    extract_hessenberg,
    factorization_residual,
    orghr,
    orthogonality_residual,
)
from repro.utils.rng import random_matrix


class TestFunctional:
    @pytest.mark.parametrize("n,nb", [(40, 8), (96, 32), (158, 32)])
    def test_correctness(self, n, nb):
        a0 = random_matrix(n, seed=n)
        res = hybrid_gehrd(a0, HybridConfig(nb=nb))
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(a0, q, h) < 1e-14
        assert orthogonality_residual(q) < 1e-14

    def test_matches_reference_gehrd(self):
        from repro.linalg import gehrd

        a0 = random_matrix(64, seed=1)
        res = hybrid_gehrd(a0, HybridConfig(nb=16))
        ref = a0.copy(order="F")
        gehrd(ref, nb=16, nx=16)
        eh = np.sort_complex(np.linalg.eigvals(extract_hessenberg(res.a)))
        er = np.sort_complex(np.linalg.eigvals(extract_hessenberg(ref)))
        np.testing.assert_allclose(eh, er, atol=1e-10)

    def test_input_not_mutated(self):
        a0 = random_matrix(32, seed=2)
        keep = a0.copy()
        hybrid_gehrd(a0, HybridConfig(nb=8))
        np.testing.assert_array_equal(a0, keep)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            hybrid_gehrd(np.zeros((3, 4)), HybridConfig())

    def test_injected_fault_corrupts_result(self):
        """The baseline is fault-*prone*: an area-2 error must damage the
        factorization (this is Fig. 2's premise)."""
        a0 = random_matrix(96, seed=3)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=60, col=70, magnitude=1.0))
        res = hybrid_gehrd(a0, HybridConfig(nb=32), injector=inj)
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(a0, q, h) > 1e-8

    def test_late_faults_strike_the_finished_matrix(self):
        """n=64, nb=32 runs two iterations: a matrix fault planned for
        iteration 5 still strikes the finished factorization, and a spec
        the baseline can never fire (it only strikes the matrix) warns."""
        a0 = random_matrix(64, seed=3)
        clean = hybrid_gehrd(a0, HybridConfig(nb=32))
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=5, row=40, col=10, magnitude=1.0))
        inj.add(FaultSpec(iteration=0, row=3, col=0, space="tau"))
        with pytest.warns(RuntimeWarning, match="never fired"):
            res = hybrid_gehrd(a0, HybridConfig(nb=32), injector=inj)
        assert inj.count_fired == 1
        diff = res.a - clean.a
        assert diff[40, 10] == 1.0 and np.count_nonzero(diff) == 1
        np.testing.assert_array_equal(res.taus, clean.taus)


class TestSchedule:
    def test_iteration_plan(self):
        assert iteration_plan(97, 32) == [(0, 32), (32, 32), (64, 32)]
        assert iteration_plan(65, 32) == [(0, 32), (32, 32)]
        assert iteration_plan(10, 32) == [(0, 9)]

    def test_metadata_mode_produces_time_without_data(self):
        res = hybrid_gehrd(1022, HybridConfig(nb=32))
        assert res.a is None
        assert res.seconds > 0
        assert res.iterations == len(iteration_plan(1022, 32))

    def test_send_overlaps_g_update(self):
        """Algorithm 2's red lines: the async d2h of M's columns and the G
        update must overlap in the schedule."""
        res = hybrid_gehrd(512, HybridConfig(nb=32))
        ops = {op.name: op for op in res.timeline.ops}
        send = ops["send_M@1"]
        g = ops["right_G@1"]
        assert send.start < g.end and g.start < send.end  # time overlap

    def test_seconds_scale_with_n(self):
        t1 = hybrid_gehrd(1022, HybridConfig(nb=32)).seconds
        t2 = hybrid_gehrd(2046, HybridConfig(nb=32)).seconds
        assert 4.0 < t2 / t1 < 9.0  # between O(N²) transfers and O(N³) compute

    def test_functional_and_metadata_same_schedule(self):
        """The simulated time must not depend on whether data is real."""
        a0 = random_matrix(96, seed=4)
        t_func = hybrid_gehrd(a0, HybridConfig(nb=32)).seconds
        t_meta = hybrid_gehrd(96, HybridConfig(nb=32)).seconds
        assert t_func == pytest.approx(t_meta, rel=1e-12)

    def test_gflops_reported(self):
        res = hybrid_gehrd(2046, HybridConfig(nb=32))
        assert res.gflops > 50.0
