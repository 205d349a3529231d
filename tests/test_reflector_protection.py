"""Tests for reflector-storage protection in the tridiagonal extension —
errors striking the packed Householder vectors (never re-read by the
factorization, silently corrupting the orthogonal factor) are caught by
the end-of-run checks, the analogue of the paper's Q protection."""

from repro.core import ft_sytrd
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import factorization_residual
from repro.linalg.sytd2 import orgtr, tridiagonal_of
from repro.utils.rng import MatrixKind, random_matrix


class TestTridiagReflectorProtection:
    def test_v_storage_corruption_corrected(self):
        """Hit the packed reflector of an already-finished column."""
        a0 = random_matrix(64, MatrixKind.SYMMETRIC, seed=1)
        # column 5 finishes at step 5; strike its stored vector at step 20
        inj = FaultInjector().add(FaultSpec(iteration=20, row=40, col=5, magnitude=0.5))
        res = ft_sytrd(a0, injector=inj)
        t = tridiagonal_of(res.a)
        q = orgtr(res.a, res.taus)
        assert factorization_residual(a0, q, t) < 1e-12

    def test_finished_band_corruption_detected(self):
        """The finished tridiagonal band IS in the audit's mathematical
        matrix — corrupting it trips tier-2 (unlike Hessenberg's
        unprotected finished-H region)."""
        a0 = random_matrix(64, MatrixKind.SYMMETRIC, seed=2)
        inj = FaultInjector().add(FaultSpec(iteration=20, row=5, col=5, magnitude=1.0))
        res = ft_sytrd(a0, injector=inj, audit_every=8)
        t = tridiagonal_of(res.a)
        q = orgtr(res.a, res.taus)
        assert factorization_residual(a0, q, t) < 1e-12
