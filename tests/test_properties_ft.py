"""Property-based tests over the fault-tolerant drivers: every driver,
random single faults anywhere in its valid domain, exact recovery."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import FTConfig, ft_gehrd, ft_sytrd
from repro.faults import FaultInjector, FaultSpec, iteration_count
from repro.linalg import (
    extract_hessenberg,
    factorization_residual,
    orghr,
)
from repro.linalg.sytd2 import orgtr, tridiagonal_of
from repro.utils.rng import MatrixKind, random_matrix

SLOW = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

N = 64
NB = 16


class TestFTHessProperty:
    @SLOW
    @given(
        seed=st.integers(0, 2**12),
        it=st.integers(0, 2),
        drow=st.integers(0, N - 1),
        dcol=st.integers(0, N - 2),
        mag=st.floats(0.01, 1e4),
    )
    def test_random_single_fault_recovers(self, seed, it, drow, dcol, mag):
        from repro.faults import finished_cols_at

        a0 = random_matrix(N, seed=seed)
        total = iteration_count(N, NB)
        it = min(it, total - 1)
        p = finished_cols_at(it, N, NB)
        # the one deliberately unprotected region (paper-faithful): the
        # already-finished H entries — never re-read, never re-checked
        assume(not (dcol < p and drow <= dcol + 1))
        inj = FaultInjector().add(
            FaultSpec(iteration=it, row=drow, col=dcol, magnitude=mag)
        )
        res = ft_gehrd(a0, FTConfig(nb=NB), injector=inj)
        q = orghr(res.a, res.taus)
        h = extract_hessenberg(res.a)
        # recovery roundoff scales with the fault magnitude
        assert factorization_residual(a0, q, h) < 1e-13 * max(1.0, mag)


class TestFTTridiagProperty:
    @SLOW
    @given(
        seed=st.integers(0, 2**12),
        col=st.integers(0, N - 3),
        drow=st.integers(0, N - 1),
        dcol=st.integers(0, N - 1),
        mag=st.floats(0.01, 1e3),
    )
    def test_random_single_fault_recovers(self, seed, col, drow, dcol, mag):
        a0 = random_matrix(N, MatrixKind.SYMMETRIC, seed=seed)
        inj = FaultInjector().add(
            FaultSpec(iteration=col, row=drow, col=dcol, magnitude=mag)
        )
        res = ft_sytrd(a0, injector=inj, audit_every=8)
        t = tridiagonal_of(res.a)
        q = orgtr(res.a, res.taus)
        assert factorization_residual(a0, q, t) < 1e-12 * max(1.0, mag)
