"""Medium-scale integration runs — closer to realistic problem sizes,
checking that nothing about the ABFT machinery degrades with more
panels, longer recovery distances, and mixed fault plans."""

import numpy as np
import pytest

from repro.core import FTConfig, ft_gehrd
from repro.faults import FaultInjector, FaultSpec, iteration_count, finished_cols_at
from repro.linalg import (
    extract_hessenberg,
    factorization_residual,
    orghr,
    orthogonality_residual,
)
from repro.utils.rng import random_matrix

N = 384
NB = 32


@pytest.fixture(scope="module")
def matrix():
    return random_matrix(N, seed=99)


class TestMediumScale:
    def test_multi_fault_run(self, matrix):
        """One fault in each area, spread across the run, plus a checksum
        element hit — everything recovered in a single factorization."""
        total = iteration_count(N, NB)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=10, col=200, magnitude=2.0))       # area 1
        inj.add(FaultSpec(iteration=total // 2, row=300, col=320, magnitude=-1.5))  # area 2
        inj.add(FaultSpec(iteration=3, row=200, col=5, magnitude=0.75))       # area 3 (Q)
        inj.add(FaultSpec(iteration=total - 2, row=100, col=-1,
                          space="row_checksum", magnitude=3.0))
        res = ft_gehrd(matrix, FTConfig(nb=NB), injector=inj)
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(matrix, q, h) < 1e-13
        assert orthogonality_residual(q) < 1e-13
        assert res.detections == 3          # areas 1/2 + the checksum element
        assert res.q_report.count == 1      # the area-3 hit

    def test_deep_rollback_at_scale(self, matrix):
        """A struck V block at N=384: two channels unwind every finished
        iteration, refuse, and the restart still ends Table-II clean."""
        inj = FaultInjector().add(
            FaultSpec(iteration=2, row=300, col=5, space="panel_v", phase="post_panel")
        )
        res = ft_gehrd(matrix, FTConfig(nb=NB, channels=2), injector=inj)
        assert [r.tier for r in res.recoveries] == ["restart"]
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        assert factorization_residual(matrix, q, h) < 1e-13

    def test_simulated_overhead_at_scale_is_small(self, matrix):
        """The functional run's simulated overhead matches the O(1/N)
        expectation at this size."""
        from repro.core import HybridConfig, hybrid_gehrd, overhead_percent

        base = hybrid_gehrd(matrix, HybridConfig(nb=NB))
        ft = ft_gehrd(matrix, FTConfig(nb=NB))
        assert 0 < overhead_percent(ft, base) < 4.0

    def test_eigenvalues_through_everything(self, matrix):
        """Spectrum preserved end-to-end through an FT run with a fault."""
        from repro.eigen import hessenberg_eigvals

        inj = FaultInjector().add(
            FaultSpec(iteration=5, row=250, col=260, magnitude=2.0)
        )
        res = ft_gehrd(matrix, FTConfig(nb=NB), injector=inj)
        h = extract_hessenberg(res.a)
        ours = np.sort_complex(hessenberg_eigvals(h, check_input=False))
        ref = np.sort_complex(np.linalg.eigvals(matrix))
        assert np.max(np.abs(ours - ref)) < 1e-8 * np.max(np.abs(ref))
