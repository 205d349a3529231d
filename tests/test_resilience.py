"""Adversarial fault surface + escalation ladder + crash-proof campaigns.

Covers the widened fault model (checkpoint/tau/V/Q-checksum spaces,
intra-iteration phases, faults during recovery), the tiered recovery
ladder and its structured FailureReport, strike-time validation of fault
plans, the never-fired warning, the campaign journal, and the
worker-crash recovery of the pooled trial runner.
"""

import json
import tracemalloc

import numpy as np
import pytest

import repro.core.ft_hessenberg as fth
from repro.abft.encoding import EncodedMatrix
from repro.abft.location import locate_errors
from repro.core import FTConfig, ft_gehrd
from repro.errors import FaultConfigError, JournalError
from repro.faults import (
    OUTCOMES,
    FaultInjector,
    FaultSpec,
    InjectionTargets,
    run_campaign,
)
from repro.faults.campaign import build_adversarial_grid
from repro.faults.executor import classify_outcome, run_ft_trials
from repro.faults.journal import CampaignJournal, grid_fingerprint, outcome_from_dict, outcome_to_dict
from repro.linalg import extract_hessenberg, factorization_residual, orghr
from repro.linalg.flops import FlopCounter
from repro.linalg.verify import one_norm
from repro.resilience import (
    EscalationExhausted,
    FailureReport,
    LadderConfig,
    ResilienceSupervisor,
    TIER_DEEP_ROLLBACK,
    TIER_IN_PLACE,
    TIER_RESTART,
    TIER_REVERSE_REDO,
    TauGuard,
    max_tier,
    tier_rank,
)
from repro.utils.precision import lane_scale
from repro.utils.rng import random_matrix


def _residual(a0, res):
    q = orghr(res.a, res.taus)
    h = extract_hessenberg(res.a)
    return factorization_residual(a0, q, h)


class TestLadderUnits:
    def test_tier_order_ranks(self):
        ranks = [tier_rank(t) for t in
                 (TIER_IN_PLACE, TIER_REVERSE_REDO, TIER_DEEP_ROLLBACK, TIER_RESTART)]
        assert ranks == sorted(ranks) == [0, 1, 2, 3]
        assert tier_rank("audit") == -1

    def test_max_tier(self):
        assert max_tier([]) == ""
        assert max_tier(["in_place", "reverse_redo"]) == "reverse_redo"
        assert max_tier(["audit"]) == ""
        assert max_tier(["deep_rollback", "restart", "in_place"]) == "restart"

    def test_supervisor_budgets(self):
        sup = ResilienceSupervisor(LadderConfig(max_in_place_total=2, max_restarts=1))
        assert sup.allow(TIER_IN_PLACE)
        sup.record(TIER_IN_PLACE, 0, False)
        sup.record(TIER_IN_PLACE, 1, False)
        assert not sup.allow(TIER_IN_PLACE)
        assert sup.allow(TIER_RESTART)
        sup.record(TIER_RESTART, 1, True)
        assert not sup.allow(TIER_RESTART)
        assert sup.restarts == 1

    def test_restart_disabled_in_strict_failstop_mode(self):
        sup = ResilienceSupervisor(LadderConfig(max_restarts=0))
        assert not sup.allow(TIER_RESTART)

    def test_report_aggregates(self):
        sup = ResilienceSupervisor(LadderConfig())
        sup.record(TIER_REVERSE_REDO, 2, False, "smeared")
        sup.record(TIER_DEEP_ROLLBACK, 2, False)
        rep = sup.report(2, "nothing left")
        assert isinstance(rep, FailureReport)
        assert rep.attempts == {TIER_REVERSE_REDO: 1, TIER_DEEP_ROLLBACK: 1}
        assert rep.successes == {}
        assert "escalation exhausted at iteration 2" in rep.summary()


class TestTauGuard:
    @staticmethod
    def _guard(taus):
        guard = TauGuard(taus.size)
        guard.record(taus, 0, 4)
        guard.record(taus, 4, 4)
        return guard

    def test_clean_taus_need_no_repair(self):
        taus = np.zeros(11)
        taus[:8] = np.linspace(1.1, 1.8, 8)
        guard = self._guard(taus)
        assert guard.verify_and_repair(taus) == []
        assert guard.repairs == 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_and_unfinished_nonzero_repaired_in_order(self, dtype):
        taus = np.zeros(11, dtype=dtype)
        taus[:8] = np.linspace(1.1, 1.8, 8)
        want = taus.copy()
        guard = self._guard(taus)
        taus[9] = 0.25      # past `finished`: must be exactly zero
        taus[2] = np.nan    # a finished tau, repaired from the shadow
        taus[5] += 1.0
        assert guard.verify_and_repair(taus) == [2, 5, 9]
        assert taus.tobytes() == want.tobytes()
        assert guard.repairs == 3

    def test_rollback_uncommits_the_last_panel(self):
        taus = np.linspace(1.1, 1.8, 8)
        guard = self._guard(taus)
        guard.rollback(4, 4)
        assert guard.finished == 4
        assert guard.verify_and_repair(taus) == [4, 5, 6, 7]
        assert not taus[4:].any()


class TestSpecValidation:
    """Satellite: misaddressed plans fail as FaultConfigError at strike
    time (or construction), never as a bare IndexError mid-run."""

    def test_unknown_space_phase_combo(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(iteration=1, row=0, col=0, space="checkpoint", phase="boundary")

    def test_q_checksum_needs_exactly_one_sentinel(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(iteration=1, row=3, col=3, space="q_checksum")
        with pytest.raises(FaultConfigError):
            FaultSpec(iteration=1, row=-1, col=-1, space="q_checksum")

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(iteration=0, row=99, col=0, space="row_checksum"),
            FaultSpec(iteration=0, row=0, col=99, space="col_checksum"),
            FaultSpec(iteration=0, row=5, col=0, space="row_checksum", channel=3),
            FaultSpec(iteration=0, row=0, col=5, space="col_checksum", channel=3),
            FaultSpec(iteration=0, row=99, col=5, space="matrix"),
        ],
    )
    def test_out_of_bounds_checksum_targets(self, spec):
        em = EncodedMatrix(random_matrix(16, seed=1), channels=2)
        inj = FaultInjector().add(spec)
        with pytest.raises(FaultConfigError):
            inj.apply_phase(0, "boundary", InjectionTargets(em=em))

    def test_absent_target_space(self):
        em = EncodedMatrix(random_matrix(16, seed=1))
        inj = FaultInjector().add(
            FaultSpec(iteration=0, row=0, col=0, space="tau")
        )
        with pytest.raises(FaultConfigError):
            inj.apply_phase(0, "boundary", InjectionTargets(em=em))  # no taus

    def test_weighted_channel_fault_round_trips(self):
        """The channel field addresses the weighted checksum bank."""
        em = EncodedMatrix(random_matrix(16, seed=2), channels=2)
        before_ch1 = float(em.ext[5, em.n + 1])
        before_ch0 = float(em.ext[5, em.n])
        inj = FaultInjector().add(
            FaultSpec(iteration=0, row=5, col=0, space="row_checksum",
                      channel=1, magnitude=2.5)
        )
        recs = inj.apply_phase(0, "boundary", InjectionTargets(em=em))
        assert len(recs) == 1
        assert em.ext[5, em.n + 1] == pytest.approx(before_ch1 + 2.5)
        assert em.ext[5, em.n] == before_ch0  # channel 0 untouched


class TestLateAndUnfired:
    """Satellite: end-of-run injection fires every late fault; specs
    whose phase never occurs produce a warning, not silence."""

    def test_fault_far_past_the_end_still_fires(self):
        a0 = random_matrix(64, seed=5)
        # Q-region element of an early finished column, scheduled long
        # after the final iteration: strikes the finished state and is
        # caught by the end-of-run Q verification
        inj = FaultInjector().add(
            FaultSpec(iteration=10_000, row=40, col=3, magnitude=1.0)
        )
        res = ft_gehrd(a0, FTConfig(nb=16), injector=inj)
        assert inj.count_fired == 1
        assert res.q_report is not None and res.q_report.count == 1
        assert _residual(a0, res) < 1e-12

    def test_during_recovery_spec_without_a_detection_warns(self):
        a0 = random_matrix(64, seed=6)
        inj = FaultInjector().add(
            FaultSpec(iteration=1, row=40, col=40, magnitude=1.0,
                      phase="during_recovery")
        )
        with pytest.warns(RuntimeWarning, match="never fired"):
            res = ft_gehrd(a0, FTConfig(nb=16), injector=inj)
        assert inj.count_fired == 0
        assert _residual(a0, res) < 1e-12

    def test_late_panel_v_spec_warns_instead_of_crashing(self):
        a0 = random_matrix(64, seed=7)
        inj = FaultInjector().add(
            FaultSpec(iteration=10_000, row=0, col=0, magnitude=1.0,
                      space="panel_v", phase="post_panel")
        )
        with pytest.warns(RuntimeWarning, match="never fired"):
            res = ft_gehrd(a0, FTConfig(nb=16), injector=inj)
        assert _residual(a0, res) < 1e-12


class TestAdversarialSpaces:
    """Satellite: faults against the FT machinery itself recover."""

    def test_checkpoint_buffer_fault(self):
        """Corrupting the diskless checkpoint is detected by its guard
        sums when a (triggered) recovery restores it, and the run still
        ends clean."""
        a0 = random_matrix(64, seed=8)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=2, row=40, col=2, magnitude=3.0,
                          space="checkpoint", phase="post_panel"))
        inj.add(FaultSpec(iteration=2, row=45, col=50, magnitude=1.0))  # trigger
        res = ft_gehrd(a0, FTConfig(nb=16, channels=2), injector=inj)
        assert _residual(a0, res) < 1e-12
        assert res.detections >= 1
        assert res.checkpoint_corruptions >= 1 or res.restarts >= 1

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("phase", ["post_panel", "post_right", "during_recovery"])
    @pytest.mark.parametrize("row", [0, 47, 95])  # never the trigger's row
    def test_one_channel_checkpoint_strike_is_repaired_not_restarted(self, dtype, phase, row):
        """One channel cannot tell a struck checkpoint element from its
        trigger of equal magnitude; the restore repairs the element from
        the guard rows, so tier 1 decodes the trigger alone and redoes
        the iteration instead of restarting the run."""
        a0 = random_matrix(96, seed=5, dtype=dtype)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=2, row=row, col=5, space="checkpoint", phase=phase))
        inj.add(FaultSpec(iteration=2, row=60, col=70, phase="post_right"))  # trigger
        res = ft_gehrd(a0, FTConfig(nb=16, channels=1), injector=inj)
        assert [r.tier for r in res.recoveries] == ["reverse_redo"]
        assert res.restarts == 0
        assert res.checkpoint_corruptions == 1
        assert _residual(a0, res) <= 1e-13 * lane_scale(dtype)

    def test_fault_during_recovery(self):
        """A second fault striking while recovery is running escalates
        (up to a full restart) instead of corrupting the redo."""
        a0 = random_matrix(64, seed=9)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=2, row=50, col=55, magnitude=2.0,
                          phase="during_recovery"))
        inj.add(FaultSpec(iteration=2, row=45, col=50, magnitude=1.0))  # trigger
        res = ft_gehrd(a0, FTConfig(nb=16, channels=2), injector=inj)
        assert _residual(a0, res) < 1e-12
        assert res.detections >= 1

    def test_double_fault_matrix_plus_checksum_same_iteration(self):
        """Matrix data and a checksum element corrupted in the same
        iteration: the weighted decode separates the two."""
        a0 = random_matrix(64, seed=10)
        inj = FaultInjector()
        inj.add(FaultSpec(iteration=1, row=45, col=50, magnitude=1.0))
        inj.add(FaultSpec(iteration=1, row=30, col=0, magnitude=2.0,
                          space="row_checksum", channel=1))
        res = ft_gehrd(a0, FTConfig(nb=16, channels=2), injector=inj)
        assert _residual(a0, res) < 1e-12
        assert res.detections >= 1

    def test_tau_fault_repaired_from_shadow(self):
        a0 = random_matrix(64, seed=11)
        inj = FaultInjector().add(
            FaultSpec(iteration=2, row=5, col=0, magnitude=1.0, space="tau")
        )
        res = ft_gehrd(a0, FTConfig(nb=16), injector=inj)
        assert _residual(a0, res) < 1e-12
        assert res.tau_repairs >= 1

    def test_panel_v_fault_recovers(self):
        a0 = random_matrix(64, seed=12)
        inj = FaultInjector().add(
            FaultSpec(iteration=1, row=10, col=3, magnitude=1.0,
                      space="panel_v", phase="post_panel")
        )
        res = ft_gehrd(a0, FTConfig(nb=16, channels=2), injector=inj)
        assert _residual(a0, res) < 1e-12

    def test_q_checksum_fault_detected_at_end(self):
        a0 = random_matrix(64, seed=13)
        inj = FaultInjector().add(
            FaultSpec(iteration=2, row=40, col=-1, magnitude=1.0,
                      space="q_checksum")
        )
        res = ft_gehrd(a0, FTConfig(nb=16), injector=inj)
        assert _residual(a0, res) < 1e-12
        assert res.q_report is not None and res.q_report.count >= 1


def _panel_v_strike():
    """A strike on the live V block: the updates applied a V that tier 1
    cannot reverse."""
    return FaultInjector().add(
        FaultSpec(iteration=1, row=30, col=5, space="panel_v", phase="post_panel")
    )


class TestEscalationOrder:
    def test_ladder_escalates_in_order_and_reports(self):
        """An undecodable state walks the tiers in order; with the
        restart backstop disabled the run ends in a structured
        FailureReport, not a bare traceback."""
        a0 = random_matrix(128, seed=12)
        cfg = FTConfig(nb=32, channels=1, ladder=LadderConfig(max_restarts=0))
        with pytest.raises(EscalationExhausted) as ei:
            ft_gehrd(a0, cfg, injector=_panel_v_strike())
        rep = ei.value.report
        assert isinstance(rep, FailureReport)
        # the attempt log walks the ladder monotonically
        ranks = [tier_rank(e.tier) for e in rep.events]
        assert ranks == sorted(ranks)
        assert rep.attempts.get(TIER_IN_PLACE, 0) >= 1
        assert rep.attempts.get(TIER_REVERSE_REDO, 0) >= 1
        assert rep.attempts.get(TIER_DEEP_ROLLBACK, 0) >= 1
        assert rep.attempts.get(TIER_RESTART, 0) == 0

    def test_restart_closes_the_same_case(self):
        a0 = random_matrix(128, seed=12)
        res = ft_gehrd(a0, FTConfig(nb=32, channels=1), injector=_panel_v_strike())
        assert _residual(a0, res) < 1e-12
        assert res.restarts == 1
        assert [r.tier for r in res.recoveries] == [TIER_RESTART]


def _struck(n: int, channels: int, state: str) -> EncodedMatrix:
    """An encoded matrix (nothing reduced yet) in a state tier 0 sees."""
    em = EncodedMatrix(random_matrix(n, seed=3), channels=channels)
    rng = np.random.default_rng(0)
    if state == "smear":  # one row and one column spread by an update
        em.data[100, :] += rng.standard_normal(n)
        em.data[2:, 150] += rng.standard_normal(n - 2)
    elif state == "two":
        em.data[100, 120] += 1.0
        em.data[180, 200] += 2.0
    elif state == "rectangle":
        for i, j in ((100, 120), (100, 200), (180, 120), (180, 200)):
            em.data[i, j] += 1.0
    elif state == "row_checksum":
        em.ext[100, n] += 1.0
    elif state == "one":
        em.data[100, 120] += 1.0
    return em


class TestInPlaceTier:
    """Tier 0 writes only a fix it accepts: a refusal leaves the state
    as it found it and copies none of it, and a fix that does not clean
    the state is undone byte for byte."""

    N = 512

    @pytest.mark.parametrize("channels,state", [
        (1, "clean"), (1, "smear"), (1, "two"), (1, "rectangle"), (1, "row_checksum"),
        (2, "clean"), (2, "smear"), (2, "two"), (2, "rectangle"),
    ])
    def test_a_refusal_writes_nothing_and_allocates_no_n2_array(self, channels, state):
        n = self.N
        em = _struck(n, channels, state)
        norm_a = one_norm(em.data)
        em._masked(0)  # the fresh sums' scratch is kept once it exists
        before = em.ext.tobytes(order="F")
        tracemalloc.start()
        try:
            fixed = fth._try_in_place(em, 0, norm_a, FlopCounter())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fixed is None
        assert em.ext.tobytes(order="F") == before
        assert peak < n * n * em.ext.itemsize

    def test_a_fix_that_does_not_clean_the_state_is_undone(self, monkeypatch):
        n = self.N
        em = _struck(n, 1, "one")
        norm_a = one_norm(em.data)
        first = locate_errors(em, 0, norm_a)
        assert [(e.kind, e.row, e.col) for e in first.errors] == [("data", 100, 120)]
        seen = []

        def still_dirty(em, *args, **kwargs):
            # the look after the fix reports the first look's errors again
            seen.append(em.ext.tobytes(order="F"))
            return first

        before = em.ext.tobytes(order="F")
        monkeypatch.setattr(fth, "locate_errors", still_dirty)
        assert fth._try_in_place(em, 0, norm_a, FlopCounter()) is None
        assert seen[0] == before and seen[1] != before  # the fix was written
        assert em.ext.tobytes(order="F") == before


class TestPaperCadence:
    """The detector checks every iteration, so a fault struck inside an
    iteration is reversed and redone in that iteration, and no trial of
    the grid ends wrong, aborted or in the deep rollback."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_a_mid_iteration_strike_reverses_and_redoes(self, channels):
        a0 = random_matrix(96, seed=2)
        inj = FaultInjector().add(FaultSpec(iteration=1, row=20, col=32, phase="post_right"))
        res = ft_gehrd(a0, FTConfig(nb=16, channels=channels), injector=inj)
        assert [r.tier for r in res.recoveries] == [TIER_REVERSE_REDO]
        assert _residual(a0, res) <= 1e-13

    def test_two_channel_grid_is_never_wrong(self):
        res = run_campaign(random_matrix(96, seed=2), nb=16, adversarial=True,
                           moments=4, seed=5, config=FTConfig(nb=16, channels=2))
        counts = res.outcome_counts
        assert (counts["detected"], counts["aborted"], counts["escalated"]) == (0, 0, 0)


class TestOutcomeTaxonomy:
    def test_classify_outcome_total(self):
        assert classify_outcome(detected=True, corrected=False, restarts=0,
                                max_tier="", failure="boom") == "aborted"
        assert classify_outcome(detected=True, corrected=True, restarts=1,
                                max_tier="restart", failure="") == "restarted"
        assert classify_outcome(detected=True, corrected=True, restarts=0,
                                max_tier="deep_rollback", failure="") == "escalated"
        assert classify_outcome(detected=True, corrected=True, restarts=0,
                                max_tier="reverse_redo", failure="") == "corrected"
        assert classify_outcome(detected=False, corrected=True, restarts=0,
                                max_tier="", failure="") == "masked"
        assert classify_outcome(detected=True, corrected=False, restarts=0,
                                max_tier="", failure="") == "detected"
        assert classify_outcome(detected=False, corrected=False, restarts=0,
                                max_tier="", failure="") == "detected"


class TestJournal:
    def _campaign(self, **kw):
        a = random_matrix(48, seed=3)
        base = dict(nb=16, adversarial=True, moments=2, seed=0,
                    residual_tol=1e-12)
        base.update(kw)
        return a, base

    def test_round_trip_and_inf_residual(self):
        spec = FaultSpec(iteration=3, row=1, col=2, space="tau")
        from repro.faults.executor import TrialOutcome

        out = TrialOutcome(spec=spec, area=0, detected=True, corrected=False,
                           residual=float("inf"), recoveries=2, q_corrections=0,
                           failure="EscalationExhausted: x", max_tier="deep_rollback")
        back = outcome_from_dict(outcome_to_dict(out))
        assert back == out

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        jr = CampaignJournal(path)
        jr.ensure_header("aaaa")
        with pytest.raises(JournalError):
            jr.load("bbbb")
        with pytest.raises(JournalError):
            jr.ensure_header("bbbb")

    def test_resume_skips_completed_trials(self, tmp_path):
        a, kw = self._campaign()
        serial = run_campaign(a, workers=1, **kw)
        jpath = tmp_path / "journal.jsonl"
        run_campaign(a, workers=1, journal=str(jpath), **kw)
        # keep header + first 10 trials, simulate a torn trailing write
        lines = jpath.read_text().splitlines(keepends=True)
        jpath.write_text("".join(lines[:11]) + '{"kind": "trial", "ind')
        resumed = run_campaign(a, workers=1, journal=str(jpath), resume=True, **kw)
        assert resumed.resumed == 10
        assert [(t.outcome, t.residual) for t in resumed.trials] == [
            (t.outcome, t.residual) for t in serial.trials
        ]

    def test_complete_journal_means_zero_new_work(self, tmp_path):
        a, kw = self._campaign()
        jpath = tmp_path / "journal.jsonl"
        first = run_campaign(a, workers=1, journal=str(jpath), **kw)
        # resume=<path> implies the journal path; nothing reruns
        again = run_campaign(a, workers=1, resume=str(jpath), **kw)
        assert again.resumed == len(again.trials) == len(first.trials)
        assert [(t.outcome, t.residual) for t in again.trials] == [
            (t.outcome, t.residual) for t in first.trials
        ]

    def test_journal_is_plain_jsonl(self, tmp_path):
        a, kw = self._campaign(moments=2, spaces=("tau",))
        jpath = tmp_path / "journal.jsonl"
        run_campaign(a, workers=1, journal=str(jpath), **kw)
        lines = [json.loads(x) for x in jpath.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        trials = [x for x in lines[1:] if x["kind"] == "trial"]
        assert sorted(x["index"] for x in trials) == list(range(len(trials)))
        assert all(x["outcome"]["outcome"] in OUTCOMES for x in trials)


class TestWorkerCrashRecovery:
    def test_pool_rebuild_and_retry_after_worker_loss(self, tmp_path):
        """A worker hard-killed mid-campaign (os._exit, as a segfault or
        OOM kill would) loses its chunk; the pool is rebuilt, the chunk
        retried once, and the outcome table matches the serial run."""
        a = random_matrix(48, seed=3)
        kw = dict(nb=16, adversarial=True, moments=2, seed=0,
                  residual_tol=1e-12, spaces=("matrix", "tau", "q_checksum"))
        serial = run_campaign(a, workers=1, **kw)
        once = tmp_path / "crash.once"
        pooled = run_campaign(a, workers=2, crash_index=3,
                              crash_once_path=str(once), **kw)
        assert once.exists()
        assert [(t.outcome, t.residual, t.recoveries) for t in pooled.trials] == [
            (t.outcome, t.residual, t.recoveries) for t in serial.trials
        ]

    def test_repeated_crash_on_same_trial_aborts_only_that_chunk(self):
        """A crash that follows its chunk to the rebuilt pool is graded
        aborted after one retry; the rest of the campaign completes."""
        a = random_matrix(48, seed=3)
        kw = dict(nb=16, adversarial=True, moments=2, seed=0,
                  residual_tol=1e-12, spaces=("matrix", "tau"))
        res = run_campaign(a, workers=2, crash_index=1, **kw)  # no once-file
        assert all(t.outcome in OUTCOMES for t in res.trials)
        aborted = [t for t in res.trials if t.outcome == "aborted"]
        assert aborted, "the poisoned chunk must be graded, not lost"
        assert all("WorkerLost" in t.failure for t in aborted)
        # trials outside the poisoned chunk still succeeded
        assert any(t.outcome in ("corrected", "restarted") for t in res.trials)


@pytest.mark.slow
class TestAdversarialAcceptance:
    """The PR's acceptance bar: the full widened surface at n=128."""

    def test_full_surface_campaign(self):
        a = random_matrix(128, seed=0)
        res = run_campaign(a, nb=32, adversarial=True, moments=3, seed=0,
                           residual_tol=1e-12, workers=2)
        # zero uncaught exceptions == run_campaign returned; every trial
        # carries a taxonomy outcome
        assert all(t.outcome in OUTCOMES for t in res.trials)
        assert not [t for t in res.trials if t.outcome == "aborted"]
        single = [t for t in res.trials if len(t.specs) == 1]
        good = [t for t in single if t.outcome in ("corrected", "restarted")]
        assert len(good) >= 0.95 * len(single)
        # recovered trials reach the fault-free residual bar
        for t in res.trials:
            if t.outcome in ("corrected", "restarted", "escalated", "masked"):
                assert t.residual < 1e-12

    def test_grid_covers_every_space_and_phase(self):
        from repro.faults.campaign import build_eig_adversarial_grid
        from repro.faults.injector import SPACE_PHASES

        # the reduction grid and the QR-stage grid split the surface
        grid = build_adversarial_grid(128, 32, moments=3, seed=0)
        grid += build_eig_adversarial_grid(128, moments=3, seed=0)
        seen = {(plan[0].space, plan[0].phase) for plan, _ in grid}
        for space, phases in SPACE_PHASES.items():
            for phase in phases:
                if space == "panel_v" and phase == "during_recovery":
                    continue  # driver does not expose V at the recovery hook
                assert (space, phase) in seen
