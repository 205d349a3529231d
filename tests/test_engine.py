"""Tests for the discrete-event scheduling engine."""

import pytest

from repro.core import FTConfig, ft_gehrd
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultSpec
from repro.hybrid.engine import SimEngine
from repro.utils.rng import random_matrix


class TestScheduling:
    def test_serial_on_one_resource(self):
        eng = SimEngine()
        a = eng.submit("a", "gpu", 1.0)
        b = eng.submit("b", "gpu", 2.0)
        assert (a.start, a.end) == (0.0, 1.0)
        assert (b.start, b.end) == (1.0, 3.0)
        assert eng.makespan == 3.0

    def test_parallel_on_different_resources(self):
        eng = SimEngine()
        a = eng.submit("a", "gpu", 2.0)
        b = eng.submit("b", "cpu", 3.0)
        assert a.start == 0.0 and b.start == 0.0
        assert eng.makespan == 3.0

    def test_dependency_forces_wait(self):
        eng = SimEngine()
        a = eng.submit("a", "gpu", 2.0)
        b = eng.submit("b", "cpu", 1.0, deps=[a])
        assert b.start == 2.0 and b.end == 3.0

    def test_copy_overlaps_compute(self):
        """The paper's async-transfer overlap: a d2h copy depending on op A
        runs concurrently with GPU op B."""
        eng = SimEngine()
        a = eng.submit("right_M", "gpu", 2.0)
        send = eng.submit("send", "d2h", 5.0, deps=[a])
        g = eng.submit("right_G", "gpu", 3.0, deps=[a])
        assert send.start == 2.0 and g.start == 2.0  # concurrent
        assert eng.makespan == 7.0  # the copy is the tail

    def test_diamond_dependency(self):
        eng = SimEngine()
        a = eng.submit("a", "gpu", 1.0)
        b = eng.submit("b", "cpu", 5.0, deps=[a])
        c = eng.submit("c", "gpu", 1.0, deps=[a])
        d = eng.submit("d", "gpu", 1.0, deps=[b, c])
        assert d.start == 6.0  # waits for the slow CPU branch

    def test_a_faulted_runs_ops_name_their_dependencies_by_index(self):
        """Each op names its dependencies by index, so ``repr`` and
        ``==`` of a faulted timeline stay linear in its op count instead
        of walking the dependency graph."""
        inj = FaultInjector(faults=[FaultSpec(iteration=1, row=76, col=86, magnitude=2.0,
                                              phase="post_right")])
        res = ft_gehrd(random_matrix(96, seed=96), FTConfig(nb=16), injector=inj)
        assert [r.tier for r in res.recoveries] == ["reverse_redo"]
        ops = res.timeline.ops
        assert all(type(d) is int and d < op.index for op in ops for d in op.deps)
        assert len(repr(ops)) < 300 * len(ops)

    def test_barrier_synchronizes(self):
        eng = SimEngine()
        eng.submit("a", "cpu", 5.0)
        eng.barrier()
        b = eng.submit("b", "gpu", 1.0)
        assert b.start == 5.0

    def test_busy_time_and_utilization(self):
        eng = SimEngine()
        eng.submit("a", "gpu", 2.0)
        eng.submit("b", "cpu", 1.0)
        eng.submit("c", "gpu", 2.0)
        assert eng.busy_time("gpu") == 4.0
        assert eng.utilization("gpu") == pytest.approx(1.0)
        assert eng.utilization("cpu") == pytest.approx(0.25)

    def test_unknown_resource_rejected(self):
        with pytest.raises(SimulationError):
            SimEngine().submit("x", "tpu", 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            SimEngine().submit("x", "gpu", -1.0)

    def test_empty_makespan(self):
        assert SimEngine().makespan == 0.0
