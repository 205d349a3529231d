"""Tests for the fault-tolerant tridiagonal reduction (future-work
extension — DESIGN.md §5)."""

import numpy as np
import pytest

from repro.core import ft_sytrd
from repro.errors import ConvergenceError, FaultConfigError, ReproError, ShapeError
from repro.faults import SPACE_PHASES, FaultInjector, FaultSpec
from repro.linalg import factorization_residual, orthogonality_residual
from repro.linalg.sytd2 import orgtr, tridiagonal_of
from repro.utils.rng import MatrixKind, random_matrix


def _verify(a0, res):
    t = tridiagonal_of(res.a)
    q = orgtr(res.a, res.taus)
    return factorization_residual(a0, q, t), orthogonality_residual(q)


def _sym(n, seed):
    return random_matrix(n, MatrixKind.SYMMETRIC, seed=seed)


class TestNoError:
    @pytest.mark.parametrize("n", [8, 32, 80])
    def test_correctness(self, n):
        a0 = _sym(n, n)
        res = ft_sytrd(a0)
        resid, orth = _verify(a0, res)
        assert resid < 1e-14 and orth < 1e-14
        assert res.detections == 0

    def test_no_false_positives_small_audit_period(self):
        a0 = _sym(64, 1)
        res = ft_sytrd(a0, audit_every=4)
        assert res.detections == 0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ShapeError):
            ft_sytrd(random_matrix(10, seed=2))

    def test_rejects_bad_audit_period(self):
        with pytest.raises(ShapeError):
            ft_sytrd(_sym(10, 3), audit_every=0)


class TestRecovery:
    def test_offdiagonal_error_tier1(self):
        a0 = _sym(80, 5)
        inj = FaultInjector().add(FaultSpec(iteration=10, row=40, col=55, magnitude=2.0))
        res = ft_sytrd(a0, injector=inj)
        resid, orth = _verify(a0, res)
        assert resid < 1e-13 and orth < 1e-13
        assert res.detections == 1
        e = res.recoveries[0].errors[0]
        assert (e.row, e.col) == (40, 55)

    def test_diagonal_error_tier2_blind_spot(self):
        """The symmetric case's Σ-test blind spot: a diagonal corruption
        drifts both checksum vectors identically and must be caught by
        the periodic full audit."""
        a0 = _sym(80, 5)
        inj = FaultInjector().add(FaultSpec(iteration=10, row=50, col=50, magnitude=2.0))
        res = ft_sytrd(a0, injector=inj, audit_every=8)
        resid, _ = _verify(a0, res)
        assert resid < 1e-13
        assert res.detections == 1
        e = res.recoveries[0].errors[0]
        assert (e.row, e.col) == (50, 50)
        assert e.magnitude == pytest.approx(2.0, rel=1e-8)

    def test_checksum_element_error(self):
        a0 = _sym(80, 6)
        inj = FaultInjector().add(
            FaultSpec(iteration=20, row=30, col=-1, space="row_checksum", magnitude=3.0)
        )
        res = ft_sytrd(a0, injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-13
        assert res.recoveries[0].errors[0].kind == "row_checksum"

    def test_error_near_end(self):
        n = 64
        a0 = _sym(n, 7)
        inj = FaultInjector().add(
            FaultSpec(iteration=n - 4, row=n - 2, col=n - 1, magnitude=1.0)
        )
        res = ft_sytrd(a0, injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-13

    def test_eigenvalues_preserved_after_recovery(self):
        a0 = _sym(60, 8)
        inj = FaultInjector().add(FaultSpec(iteration=5, row=30, col=40, magnitude=1.5))
        res = ft_sytrd(a0, injector=inj)
        t = tridiagonal_of(res.a)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(a0)), np.sort(np.linalg.eigvalsh(t)), atol=1e-11
        )

    def test_two_errors_different_columns(self):
        a0 = _sym(80, 9)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=8, row=30, col=45, magnitude=1.0))
        inj.add(FaultSpec(iteration=24, row=60, col=70, magnitude=2.0))
        res = ft_sytrd(a0, injector=inj)
        resid, _ = _verify(a0, res)
        assert resid < 1e-13
        assert res.detections == 2

    def test_retry_budget_enforced(self, storm_injector):
        a0 = _sym(48, 10)
        inj = storm_injector().add(FaultSpec(iteration=5, row=20, col=30, magnitude=1.0))
        with pytest.raises(ConvergenceError, match="persisted past 3 retries"):
            ft_sytrd(a0, injector=inj)
        assert len(inj.injected) == 4  # the strike and its three re-executions

    def test_overhead_flops_bounded(self):
        """The two-tier design's cost claim: ABFT flops stay a modest
        fraction of the factorization flops."""
        a0 = _sym(96, 11)
        res = ft_sytrd(a0, audit_every=16)
        extra = res.counter.category_total(
            "abft_init", "abft_maintain", "abft_detect", "abft_locate"
        )
        base = res.counter.category_total("tridiag_update", "sytd2")
        assert extra / base < 0.6  # audits are O(N²) each, N/16 of them


#: The spaces ft_sytrd exposes to a plan, but panel_v: there it is the
#: reversal record's copy of the reflector, which only a rollback reads.
_GRID_SPACES = ("matrix", "row_checksum", "col_checksum", "tau", "q_checksum", "checkpoint")


def _grid_target(space, n, rng):
    """(row, col) of a *space* strike, drawn anywhere in that space."""
    if space == "matrix":
        return tuple(int(x) for x in rng.integers(0, n, 2))
    if space == "row_checksum":
        return int(rng.integers(0, n)), -1
    if space == "col_checksum":
        return -1, int(rng.integers(0, n))
    if space == "tau":
        return int(rng.integers(0, n - 1)), -1
    if space == "q_checksum":
        if rng.integers(0, 2):
            return int(rng.integers(0, n)), -1
        return -1, int(rng.integers(0, n))
    return int(rng.integers(0, n + 1)), 0  # the checkpointed column


def _fault_grid(n):
    """Iterations × spaces × valid phases × magnitudes, targets from a
    fixed seed; recovery-time and checkpoint strikes carry a trigger.
    Then the named cases of the three classes this grid found."""
    rng = np.random.default_rng(0)
    for it in (3, n // 2, n - 5):
        for space in _GRID_SPACES:
            for phase in ("boundary", "post_panel", "during_recovery"):
                if phase not in SPACE_PHASES[space]:
                    continue
                for magnitude in (1.0, 1e-3):
                    row, col = _grid_target(space, n, rng)
                    plan = [FaultSpec(iteration=it, row=row, col=col, magnitude=magnitude,
                                      space=space, phase=phase)]
                    if phase == "during_recovery" or space == "checkpoint":
                        plan.append(FaultSpec(iteration=it, row=min(it + 5, n - 1),
                                              col=min(it + 9, n - 1), magnitude=2.0))
                    yield plan
    for it in (n - 5, n - 4):  # a trailing-corner smear along the diagonal
        for d in (n - 2, n - 1):
            yield [FaultSpec(iteration=it, row=d, col=d, magnitude=2.0)]
    yield [FaultSpec(iteration=3, row=2, col=-1, space="tau")]  # a finished tau
    yield [FaultSpec(iteration=3, row=29, col=3, phase="post_panel")]  # the new reflector


class TestFaultGrid:
    """Every plan of the grid ends with a correct factorization or
    raises: none returns a wrong one silently."""

    def test_no_plan_returns_a_wrong_factorization(self):
        n = 48
        a0 = _sym(n, 0)
        silent = []
        for plan in _fault_grid(n):
            try:
                res = ft_sytrd(a0, audit_every=8, injector=FaultInjector(faults=list(plan)))
            except FaultConfigError:
                raise  # a misaddressed plan tests nothing
            except ReproError:
                continue
            resid, _ = _verify(a0, res)
            if not resid <= 1e-13:
                silent.append((plan, resid))
        assert silent == []

    @pytest.mark.parametrize("it", [43, 44])
    @pytest.mark.parametrize("d", [46, 47])
    def test_trailing_diagonal_strike_decodes_one_element(self, it, d):
        """Reversed once, a trailing diagonal strike decodes as one error
        per diagonal entry; the recovery reverses further, to the state
        where it is a single element."""
        a0 = _sym(48, 0)
        inj = FaultInjector().add(FaultSpec(iteration=it, row=d, col=d, magnitude=2.0))
        res = ft_sytrd(a0, audit_every=8, injector=inj)
        assert res.detections == 1
        [e] = res.recoveries[0].errors
        assert (e.kind, e.row, e.col) == ("data", d, d)
        assert e.magnitude == pytest.approx(2.0, rel=1e-8)
        assert _verify(a0, res)[0] < 1e-13

    def test_finished_tau_strike_is_repaired(self):
        a0 = _sym(48, 0)
        clean = ft_sytrd(a0, audit_every=8)
        inj = FaultInjector().add(FaultSpec(iteration=3, row=2, col=-1, space="tau"))
        res = ft_sytrd(a0, audit_every=8, injector=inj)
        assert res.taus.tobytes() == clean.taus.tobytes()
