"""The multiprocess trial runner must be a pure speed knob: identical
trial lists, serial or pooled."""

import os

import numpy as np
import pytest

from repro.core.config import FTConfig
from repro.faults.campaign import build_fault_grid, run_campaign
from repro.faults.executor import run_ft_trials
from repro.utils.rng import random_matrix

N, NB = 64, 16
TOL = 1e-13


def _outcome_key(t):
    return (
        t.spec.iteration,
        t.spec.row,
        t.spec.col,
        t.area,
        t.detected,
        t.corrected,
        t.residual,
        t.recoveries,
        t.q_corrections,
        t.failure,
    )


def test_grid_is_deterministic():
    g1 = build_fault_grid(N, NB, moments=3, seed=5)
    g2 = build_fault_grid(N, NB, moments=3, seed=5)
    assert g1 == g2
    assert len(g1) == 9  # 3 areas x 3 moments
    # a different seed moves the sampled positions
    g3 = build_fault_grid(N, NB, moments=3, seed=6)
    assert g3 != g1


def test_parallel_matches_serial():
    a = random_matrix(N, seed=1)
    cfg = FTConfig(nb=NB)
    tasks = build_fault_grid(N, NB, moments=2, seed=2)
    serial = run_ft_trials(a, tasks, cfg, residual_tol=TOL, workers=1)
    pooled = run_ft_trials(a, tasks, cfg, residual_tol=TOL, workers=2)
    assert len(serial) == len(pooled) == len(tasks)
    assert [_outcome_key(t) for t in serial] == [_outcome_key(t) for t in pooled]


def test_run_campaign_workers_parity():
    a = random_matrix(N, seed=4)
    r1 = run_campaign(a, nb=NB, moments=2, seed=0)
    r2 = run_campaign(a, nb=NB, moments=2, seed=0, workers=2)
    assert [_outcome_key(t) for t in r1.trials] == [_outcome_key(t) for t in r2.trials]
    assert r1.recovery_rate == r2.recovery_rate == 1.0
    assert r1.baseline_residual == r2.baseline_residual > 0.0


def test_empty_task_list():
    a = random_matrix(N, seed=1)
    assert run_ft_trials(a, [], FTConfig(nb=NB), residual_tol=TOL, workers=4) == []


def test_coverage_map_workers_parity():
    from repro.analysis.coverage import coverage_map

    m1 = coverage_map(n=48, nb=16, grid=4, workers=1)
    m2 = coverage_map(n=48, nb=16, grid=4, workers=2)
    assert (m1.grid == m2.grid).all()
    np.testing.assert_array_equal(m1.residuals, m2.residuals)


def test_pool_rebuild_reaps_the_old_workers():
    """A rebuild kills and reaps the old pool's workers, busy or idle (a
    wedged one would otherwise outlive it); a stale generation leaves
    the live pool alone."""
    from repro.utils.procpool import ResilientProcessPool

    with ResilientProcessPool(max_workers=1) as pool:
        pool.warm()
        gen = pool.generation
        old = list(pool.pool._processes)
        pool.rebuild(gen)
        assert pool.generation == gen + 1 and pool.rebuilds == 1
        assert old
        for pid in old:  # reaped, by the rebuild or the pool's own thread
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        pool.warm()
        live = list(pool.pool._processes.values())
        pool.rebuild(gen)  # stale: a no-op
        assert pool.rebuilds == 1 and all(p.is_alive() for p in live)
        assert pool.submit(abs, -3).result(timeout=30) == 3


def test_run_campaign_joins_its_pool_before_returning():
    """No pool worker outlives the call: a script that exits right after
    a campaign must not race the pool's exit hook."""
    import multiprocessing

    from repro.faults.executor import choose_execution_mode

    before = set(multiprocessing.active_children())
    res = run_campaign(random_matrix(48, seed=0), nb=16, moments=2, workers=2)
    assert choose_execution_mode(2, len(res.trials)) == "pool"
    assert set(multiprocessing.active_children()) - before == set()


def test_run_ft_trials_stops_its_workers_when_the_caller_raises():
    """An exception out of the trial loop kills and reaps the workers
    instead of waiting out the trials still running."""
    import multiprocessing

    def boom(index, outcome):
        raise KeyboardInterrupt

    a = random_matrix(N, seed=1)
    tasks = build_fault_grid(N, NB, moments=2, seed=2)
    before = set(multiprocessing.active_children())
    with pytest.raises(KeyboardInterrupt):
        run_ft_trials(a, tasks, FTConfig(nb=NB), residual_tol=TOL, workers=2,
                      on_result=boom)
    workers = set(multiprocessing.active_children()) - before
    for proc in workers:  # reaped, by the stop or the pool's own thread
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)
