"""The fault-tolerant hybrid Hessenberg reduction — the paper's Algorithm 3.

Per iteration, on top of the Algorithm-2 structure:

* the Householder block's column checksums ``Vce = eᵀV`` and the Y
  checksums ``Ychk_c = Ac_chk[p+1:] V T`` are computed on the GPU (two
  GEMVs — lines 6–7),
* the right and left updates run on the checksum-*extended* operands
  (lines 8, 10, 11), preserving Theorem 1's invariant,
* the Q-protection checksums are maintained on the **otherwise idle CPU**,
  overlapped with the GPU's trailing update (§IV-E),
* the detector compares ``ΣAr_chk`` against ``ΣAc_chk`` (lines 12–13);
  on a hit the driver reverses the left and right updates, restores the
  panel from the diskless checkpoint, locates the error(s) via fresh
  checksums, corrects by dot product, and re-executes the iteration
  (lines 14–15),
* once, at the very end, the Q checksums are verified and any area-3
  error corrected.

Given a matrix, the driver computes all of this with NumPy and reports
each phase to :class:`FTSchedule`, which records it; the result prices
the record on the simulated machine when its timeline is first read,
once per distinct clean record. Given only the order N, the driver
records the identical schedule (consulting the fault plan for which
iterations detect) so the Fig. 6 overhead curves can be produced at
paper-scale N.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from repro.abft.checkpoint import DisklessCheckpointStore
from repro.abft.checksums import (
    left_update_encoded,
    reverse_left_update_encoded,
    reverse_right_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.abft.correction import correct_all
from repro.abft.detection import Detector
from repro.abft.encoding import EncodedMatrix
from repro.abft.location import MAX_SIMULTANEOUS, locate_errors
from repro.abft.qprotect import QProtector
from repro.abft.unwind import locate_errors_rowonly, rebuild_col_checksums, unwind_iteration
from repro.core.config import FTConfig
from repro.core.hybrid_hessenberg import iteration_plan_cached
from repro.core.results import FTResult, PhaseRecord, RecoveryEvent
from repro.errors import (
    EscalationExhausted,
    NonFiniteInputError,
    ShapeError,
    UncorrectableError,
)
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.faults.regions import AREA_NO_PROPAGATION, classify, finished_cols_at
from repro.resilience import (
    MAX_RETRIES,
    TIER_AUDIT,
    TIER_DEEP_ROLLBACK,
    TIER_IN_PLACE,
    TIER_RESTART,
    TIER_REVERSE_REDO,
    ResilienceSupervisor,
    TauGuard,
)
from repro.hybrid.engine import SimOp
from repro.hybrid.runtime import HybridRuntime
from repro.hybrid.trace import Timeline
from repro.linalg.flops import FlopCounter
from repro.linalg.lahr2 import lahr2
from repro.linalg.verify import one_norm
from repro.perf.workspace import Workspace
from repro.utils.precision import as_lane_matrix

#: Largest decoded data-error count tier 0 corrects in place: a lone
#: element is corrected exactly, while a multi-element pattern is
#: usually a smear that only looks decodable, which tier 1's exact
#: reversal handles instead.
_IN_PLACE_MAX_ERRORS = 1


def _planned_detections(injector: FaultInjector | None, n: int, nb: int) -> set[int]:
    """Order-only runs: the iterations whose detector fires.

    A fault in the active (area 1/2) region or in a checksum vector is
    caught by the check that ends its own iteration; area-3 faults are
    only seen by the final Q check.
    """
    out: set[int] = set()
    if injector is None:
        return out
    total = len(iteration_plan_cached(n, nb))
    for f in injector.faults:
        if f.iteration >= total:
            continue
        if f.space == "matrix":
            p = finished_cols_at(f.iteration, n, nb)
            if classify(f.row, f.col, p, n) == AREA_NO_PROPAGATION:
                continue
        out.add(f.iteration)
    return out


def _has_area3_fault(injector: FaultInjector | None, n: int, nb: int) -> bool:
    if injector is None:
        return False
    for f in injector.faults:
        if f.space != "matrix":
            continue
        p = finished_cols_at(f.iteration, n, nb)
        if classify(f.row, f.col, p, n) == AREA_NO_PROPAGATION:
            return True
    return False


class FTSchedule:
    """Algorithm 3's phase record.

    The driver computes each phase first and then reports it here, one
    method per phase event. The schedule only records the events; at
    :meth:`finish` the record, with n, the lane itemsize and the config
    fields the pricing reads, is frozen into a
    :class:`~repro.core.results.PhaseRecord` keyed for the shared price
    cache (:data:`~repro.hybrid.runtime.PRICES`), which the result
    prices by :func:`price_ft_record` when its timeline is first read.
    A record with a fault response in it (a fix, a rollback, a restart
    or a Q correction) almost never repeats, so it is priced uncached
    rather than evict the clean records later runs reuse.
    """

    def __init__(self, n: int, config: FTConfig, elem_bytes: int = 8):
        self.n = n
        self.config = config
        self.plan = iteration_plan_cached(n, config.nb)
        # transfer pricing follows the lane itemsize: the fp32 lane moves
        # half the bytes of the float64 default over the same PCIe model
        self.elem_bytes = elem_bytes
        self.events: list[tuple] = []
        self.faulted = False  # the record holds a fault response

    def audits(self, it: int) -> bool:
        """Whether the optional full audit runs after iteration *it*."""
        every = self.config.audit_every
        return every > 0 and ((it + 1) % every == 0 or it == len(self.plan) - 1)

    def iteration(self, it: int, *, redo: bool) -> None:
        """One FT iteration's compute (a re-execution when *redo*)."""
        self.events.append(("iteration", it, redo))

    def audit(self, it: int, *, fixed: bool) -> None:
        """The full checksum audit after *it*, and its in-place fix."""
        self.events.append(("audit", it, fixed))
        self.faulted |= fixed

    def correct(self, it: int) -> None:
        """Ladder tier 0: the error was corrected in place, no rollback."""
        self.events.append(("correct", it))
        self.faulted = True

    def recovery(self, it: int, *, unwind_to: int) -> None:
        """The rollback + locate + correct (lines 14–15), unwinding to
        iteration *unwind_to*."""
        self.events.append(("recovery", it, unwind_to))
        self.faulted = True

    def restart(self, it: int) -> None:
        """Ladder tier 3: re-upload the input."""
        self.events.append(("restart", it))
        self.faulted = True

    def key(self) -> tuple:
        """Everything the pricing reads: the arguments of
        :func:`price_ft_record` and the price cache's key."""
        cfg = self.config
        return (self.n, self.elem_bytes, cfg.machine, cfg.nb, cfg.channels,
                cfg.overlap_q_checksums, tuple(self.events))

    def finish(self, *, q_corrected: bool) -> PhaseRecord:
        """The end-of-run Q check (and fix), then the record, frozen now
        because the config is mutable and the record is priced later."""
        self.events.append(("finish", q_corrected))
        self.faulted |= q_corrected
        return PhaseRecord(("ft",) + self.key(), price_ft_record, self.faulted)


class _FTPricer:
    """Replays one FT phase record as ops on the simulated machine.

    The event engine is an eager list scheduler, so the order of the
    events *is* the schedule; ``frontier`` holds the ops the next event
    waits on.
    """

    def __init__(self, n: int, elem_bytes: int, machine, nb: int, channels: int,
                 overlap_q_checksums: bool):
        self.n, self.b, self.nb, self.channels = n, elem_bytes, nb, channels
        self.overlap_q_checksums = overlap_q_checksums
        self.plan = iteration_plan_cached(n, nb)
        self.rt = rt = HybridRuntime(machine)
        # lines 1–2: upload + encode
        op_up_a = rt.copy_h2d(elem_bytes * n * n, name="upload_A", category="transfer")
        self.frontier: list[SimOp] = [
            rt.submit(
                "encode",
                "gpu",
                2 * channels * rt.cost.gemv("gpu", n, n),
                [op_up_a],
                "abft_maintain",
            )
        ]

    def iteration(self, it: int, redo: bool) -> None:
        rt, n, b = self.rt, self.n, self.b
        p, ib = self.plan[it]
        m = n - p
        tag = f"@{it}" + ("r" if redo else "")
        cat_extra = "abft_recover" if redo else None

        op_down = rt.copy_d2h(b * (m - 1) * ib, self.frontier, name=f"panel_down{tag}",
                              category="transfer")
        op_panel = rt.panel(m, ib, [op_down], name=f"panel{tag}")
        op_pup = rt.copy_h2d(b * m * ib, [op_panel], name=f"panel_up{tag}",
                             category="transfer")

        # lines 6–7: checksum GEMVs for Y and V on the GPU (per channel)
        op_chk = rt.submit(
            f"chk_vy{tag}",
            "gpu",
            2 * self.channels * rt.cost.gemv("gpu", m - 1, ib),
            [op_pup],
            cat_extra or "abft_maintain",
        )

        # §IV-E: Q checksum maintenance on the (idle) host, overlapped with
        # the GPU trailing update. The ablation's naive alternative keeps
        # the checksum GEMVs where the data lives — in the GPU's update
        # stream — stealing device time from the critical path.
        if self.overlap_q_checksums:
            op_qchk = rt.submit(
                f"qchk{tag}",
                "cpu",
                2 * rt.cost.gemv("cpu", m - 1, ib),
                [op_panel],
                cat_extra or "abft_qprotect",
            )
            update_deps = [op_chk]
        else:
            op_qchk = rt.submit(
                f"qchk{tag}",
                "gpu",
                2 * rt.cost.gemv("gpu", m - 1, ib),
                [op_pup],
                cat_extra or "abft_qprotect",
            )
            update_deps = [op_chk, op_qchk]

        # line 8: right update to Mre (one extra checksum column)
        dur_m = rt.cost.gemm("gpu", p + ib, ib, m - 1) + rt.cost.gemm(
            "gpu", p + ib, m - ib + 1, ib
        )
        op_m = rt.submit(f"right_M{tag}", "gpu", dur_m, update_deps,
                         cat_extra or "right_update")
        # line 9: async send of the finished columns of M
        op_send = rt.copy_d2h(b * (p + ib) * ib, [op_m], name=f"send_M{tag}",
                              category="transfer")
        # line 10: right update to Gfe … overlapped with line 9
        op_g = rt.gemm("gpu", m - ib, m - ib + 1, ib, [op_m], name=f"right_G{tag}",
                       category=cat_extra or "right_update")
        # column-checksum row maintenance for the right update
        op_crow = rt.gemv("gpu", m - ib, ib, [op_g], name=f"crow{tag}",
                          category=cat_extra or "abft_maintain")
        # line 11: extended left update
        op_l = rt.larfb("gpu", m - 1, m - ib + 1, ib, [op_g], name=f"larfb{tag}",
                        category=cat_extra or "left_update")
        op_lrow = rt.gemv("gpu", m - ib + 1, ib, [op_l], name=f"lrow{tag}",
                          category=cat_extra or "abft_maintain")
        # freeze the finished columns' checksum segment
        op_refresh = rt.submit(
            f"refresh{tag}",
            "gpu",
            ib * rt.cost.dot("gpu", p + ib),
            [op_l],
            cat_extra or "abft_maintain",
        )
        # lines 12–13: detection (two reductions + a scalar readback)
        op_detect = rt.submit(
            f"detect{tag}",
            "gpu",
            2 * rt.cost.reduction("gpu", n),
            [op_refresh, op_crow, op_lrow],
            "abft_detect",
        )
        last = rt.copy_d2h(2 * b, [op_detect], name=f"detect_d2h{tag}",
                           category="abft_detect")
        self.frontier = [last, op_send, op_qchk]

    def audit(self, it: int, fixed: bool) -> None:
        rt, n = self.rt, self.n
        self.frontier = [
            rt.submit(
                f"audit@{it}",
                "gpu",
                2 * self.channels * rt.cost.gemv("gpu", n, n),
                self.frontier,
                "abft_detect",
            )
        ]
        if fixed:
            self.frontier = [rt.dot("gpu", n, self.frontier, name=f"audit_fix@{it}",
                                    category="abft_correct")]

    def correct(self, it: int) -> None:
        self.frontier = [self.rt.dot("gpu", self.n, self.frontier, name=f"fix@{it}",
                                     category="abft_correct")]

    def recovery(self, it: int, unwind_to: int) -> None:
        """A deep rollback (``unwind_to < it``) re-applies each unwound
        iteration's block reflector pair — one reverse left + one reverse
        right update per iteration, the same kernel shapes as the
        forward pass."""
        rt, n = self.rt, self.n
        frontier = self.frontier
        for back in range(it, unwind_to - 1, -1):
            pb, ibb = self.plan[back]
            m = n - pb
            tag = f"@{back}u{it}"
            op_revl = rt.larfb("gpu", m - 1, m - ibb + 1, ibb, frontier,
                               name=f"rev_larfb{tag}", category="abft_recover")
            op_revr = rt.gemm("gpu", n, m - ibb + 1, ibb, [op_revl],
                              name=f"rev_right{tag}", category="abft_recover")
            frontier = [op_revr]
        op_restore = rt.copy_h2d(self.b * n * self.nb, frontier,
                                 name=f"restore@{it}", category="abft_recover")
        op_locate = rt.submit(
            f"locate@{it}",
            "gpu",
            2 * self.channels * rt.cost.gemv("gpu", n, n),
            [op_restore],
            "abft_locate",
        )
        self.frontier = [rt.dot("gpu", n, [op_locate], name=f"correct@{it}",
                                category="abft_correct")]

    def restart(self, it: int) -> None:
        self.frontier = [
            self.rt.copy_h2d(self.b * self.n * self.n, self.frontier,
                             name=f"restart@{it}", category="abft_recover")
        ]

    def finish(self, q_corrected: bool) -> None:
        rt, n = self.rt, self.n
        frontier = [
            rt.submit(
                "q_verify",
                "cpu",
                2 * rt.cost.gemv("cpu", n, max(n // 2, 1)),
                self.frontier,
                "abft_qprotect",
            )
        ]
        if q_corrected:
            frontier = [rt.dot("cpu", n, frontier, name="q_correct",
                               category="abft_correct")]
        rt.copy_d2h(self.b * n * self.nb, frontier, name="final_down",
                    category="transfer")


def price_ft_record(n: int, elem_bytes: int, machine, nb: int, channels: int,
                    overlap_q_checksums: bool, events: tuple) -> Timeline:
    """Price one FT phase record on the simulated machine, uncached (the
    arguments are :meth:`FTSchedule.key`)."""
    pricer = _FTPricer(n, elem_bytes, machine, nb, channels, overlap_q_checksums)
    for kind, *args in events:
        getattr(pricer, kind)(*args)
    return pricer.rt.timeline()


def _locate_and_correct(
    em: EncodedMatrix, finished: int, norm_a: float, counter: FlopCounter
) -> list:
    """Locate at the rolled-back state; raise if implausible/unclean."""
    report = locate_errors(em, finished, norm_a, counter=counter)
    data_errs = [e for e in report.errors if e.kind == "data"]
    if len(data_errs) > MAX_SIMULTANEOUS:
        raise UncorrectableError(
            f"{len(data_errs)} simultaneous data errors decoded — smeared state"
        )
    correct_all(em, report.errors, finished, counter=counter)
    if locate_errors(em, finished, norm_a, counter=counter).errors:
        raise UncorrectableError("correction did not clean the state")
    return report.errors


def _try_in_place(
    em: EncodedMatrix, finished: int, norm_a: float, counter: FlopCounter
) -> list | None:
    """Ladder tier 0: correct at the *current* state, no rollback.

    Only accepts patterns the decoder pins down exactly — at most
    ``_IN_PLACE_MAX_ERRORS`` data elements (checksum-element errors
    are recomputed from data and are always safe to fix in place).
    A refusal writes nothing, so the state is snapshotted only for a
    fix it accepts; a fix that does not clean the state is undone
    verbatim, and the ladder escalates.
    """
    try:
        report = locate_errors(em, finished, norm_a, counter=counter)
    except UncorrectableError:
        return None
    data_errs = [e for e in report.errors if e.kind == "data"]
    if not report.errors or len(data_errs) > _IN_PLACE_MAX_ERRORS:
        return None
    if em.k < 2 and any(e.kind == "row_checksum" for e in report.errors):
        # With one channel, a "row checksum" diagnosis is
        # untrustworthy at the current state: a data error in a
        # just-finished panel column looks identical, because the
        # panel factorization recomputed that column's checksum
        # over the corrupted data. Tier 1's restore brings back
        # the save-time column checksums, which disambiguate.
        return None
    snapshot = em.ext.copy(order="F")
    try:
        correct_all(em, report.errors, finished, counter=counter)
        if locate_errors(em, finished, norm_a, counter=counter).errors:
            raise UncorrectableError("in-place correction did not clean the state")
    except UncorrectableError:
        em.ext[:, :] = snapshot
        return None
    return report.errors


def _price_order(n: int, config: FTConfig, injector: FaultInjector | None) -> FTResult:
    """Price Algorithm 3 for an order alone, without data.

    The fault plan decides which iterations detect; each detection
    prices one reverse+redo of its iteration (the flat pricing model: no
    in-place, restart or audit fix).
    """
    sched = FTSchedule(n, config)
    planned = _planned_detections(injector, n, config.nb)
    recoveries: list[RecoveryEvent] = []
    for it, (p, _) in enumerate(sched.plan):
        sched.iteration(it, redo=False)
        if it in planned:
            sched.recovery(it, unwind_to=it)
            recoveries.append(
                RecoveryEvent(iteration=it, p=p, gap=float("nan"), errors=[], retries=1,
                              tier=TIER_REVERSE_REDO)
            )
            sched.iteration(it, redo=True)
        if sched.audits(it):
            sched.audit(it, fixed=False)
    return FTResult(
        n=n,
        nb=config.nb,
        a=None,
        taus=None,
        record=sched.finish(q_corrected=_has_area3_fault(injector, n, config.nb)),
        iterations=len(sched.plan),
        recoveries=recoveries,
        detections=len(planned),
    )


def ft_gehrd(
    a: np.ndarray | int,
    config: FTConfig | None = None,
    *,
    injector: FaultInjector | None = None,
    workspace: Workspace | None = None,
) -> FTResult:
    """Run the fault-tolerant Algorithm 3 on the simulated hybrid machine.

    Parameters
    ----------
    a:
        Square input matrix, or just the order N to price the schedule
        without data. The driver never writes *a*: it reduces a copy
        inside the encoded storage, and the restart tier re-encodes *a*
        itself, so the input is held read-only until the call returns.
        Writing it during the call (another thread, a fault-plan hook)
        makes a later restart raise :class:`UncorrectableError` instead
        of reducing a different matrix.
    config:
        Driver settings (see :class:`~repro.core.config.FTConfig`).
    injector:
        Fault plan; faults strike the encoded matrix at iteration starts.

    Returns
    -------
    FTResult
        Packed factorization + taus (given a matrix), simulated
        timeline/seconds, recovery log, Q-check report, checkpoint stats.

    Raises
    ------
    NonFiniteInputError
        If *a* holds a NaN or an infinity (checked before encoding).
    EscalationExhausted
        When no tier is left: an iteration kept detecting errors past
        :data:`~repro.resilience.ladder.MAX_RETRIES` re-executions with
        the restart budget spent (an error storm, outside the paper's
        failure model), or no tier could produce a clean state.
    """
    config = config or FTConfig()
    if isinstance(a, (int, np.integer)):
        config.validate(int(a))
        return _price_order(int(a), config, injector)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"ft_gehrd needs a square matrix, got {a.shape}")
    n = a.shape[0]
    a = as_lane_matrix(a)
    norm_a = one_norm(a)
    if not math.isfinite(norm_a):
        # NaN or Inf exactly when an entry is non-finite or a column sum
        # overflows, which would overflow the encode too
        raise NonFiniteInputError(
            f"ft_gehrd input holds a NaN or an infinity (1-norm {norm_a})"
        )
    config.validate(n)

    counter = FlopCounter()
    sched = FTSchedule(n, config, int(a.dtype.itemsize))
    plan = sched.plan
    total_iters = len(plan)
    em = EncodedMatrix(a, channels=config.channels, counter=counter)
    detector = Detector(config.threshold, norm_a)
    qprot = QProtector(n)
    store = DisklessCheckpointStore()
    store.save_initial(em, a)  # the restart tier's substrate
    taus = np.zeros(max(n - 1, 0), dtype=em.ext.dtype)
    tau_guard = TauGuard(taus.size)
    # callers that run many reductions back to back (the serve worker
    # pool) pass a long-lived arena; presize is grow-only, so reuse
    # across differently sized jobs is safe
    ws = workspace if workspace is not None else Workspace()
    ws.presize(n, config.nb, config.channels, dtype=em.ext.dtype)
    sup = ResilienceSupervisor(config.ladder)
    # the phase-aware adversarial injection hook exposes every live FT
    # structure — the encoded matrix, the tau scalars, the Q-protection
    # checksums, the diskless checkpoint buffer and (inside an
    # iteration) the live V block — to the fault plan; the in-iteration
    # hooks get ``live``, re-pointed at each panel's V
    injector = injector if injector is not None else FaultInjector()
    targets = InjectionTargets(em=em, taus=taus, qprot=qprot, checkpoint=store)
    live = InjectionTargets(em=em, taus=taus, qprot=qprot, checkpoint=store)

    recoveries: list[RecoveryEvent] = []
    tau_repairs = 0
    consecutive_recoveries = 0
    it = 0
    while it < total_iters:
        p, ib = plan[it]
        injector.apply_phase(it, "boundary", targets)
        store.save(em, p, ib)
        # lines 4–11: panel, V/Y checksums, the extended right and left
        # updates, then freeze the finished columns' checksum segment
        pf = lahr2(em.ext, p, ib, n, counter=counter, workspace=ws)
        vce = v_col_checksums(pf, em, counter=counter)
        ychk = y_col_checksums(em, pf, counter=counter)
        live.panel_v = pf.v
        injector.apply_phase(it, "post_panel", live)
        right_update_encoded(em, pf, vce, ychk, counter=counter, workspace=ws)
        injector.apply_phase(it, "post_right", live)
        left_update_encoded(em, pf, vce, counter=counter, workspace=ws)
        em.refresh_finished_segment(p, ib, counter=counter)
        sched.iteration(it, redo=consecutive_recoveries > 0)

        if not detector.check(em, counter=counter):
            consecutive_recoveries = 0
            taus[p : p + ib] = pf.taus
            tau_guard.record(taus, p, ib)
            qprot.update_for_panel(em.data, p, ib, counter=counter)
            # optional extension: periodic full audit — catches finished-H
            # corruption, which the Σ test is structurally blind to (it
            # never feeds a maintained update). No rollback needed: such
            # errors cannot propagate, so in-place correction suffices.
            if sched.audits(it):
                report = locate_errors(em, p + ib, norm_a, counter=counter)
                if report.errors:
                    if len([e for e in report.errors if e.kind == "data"]) > MAX_SIMULTANEOUS:
                        raise UncorrectableError("audit decoded an implausible error count")
                    correct_all(em, report.errors, p + ib, counter=counter)
                    detector.detections += 1
                    recoveries.append(
                        RecoveryEvent(iteration=it, p=p + ib, gap=0.0, errors=report.errors,
                                      retries=1, tier=TIER_AUDIT)
                    )
                sched.audit(it, fixed=bool(report.errors))
            it += 1
            continue

        # ---- recovery: the escalation ladder (lines 14–15, tiered) --------
        consecutive_recoveries += 1
        gap = em.checksum_gap()
        errors: list = []
        back_it = it

        # the adversarial model lets faults strike while recovery runs —
        # and unencoded FT state is verified against its shadow first,
        # so a corrupted tau cannot steer the rollback itself
        injector.apply_phase(it, "during_recovery", targets)
        tau_repairs += len(tau_guard.verify_and_repair(taus))

        within_budget = consecutive_recoveries <= MAX_RETRIES
        recovered = False
        tier_used = TIER_REVERSE_REDO

        # -- tier 0: in-place correction, no rollback ------------------------
        if within_budget and sup.allow(TIER_IN_PLACE):
            fixed = _try_in_place(em, p + ib, norm_a, counter)
            sup.record(TIER_IN_PLACE, it, fixed is not None)
            if fixed is not None:
                recoveries.append(
                    RecoveryEvent(iteration=it, p=p + ib, gap=gap, errors=fixed,
                                  retries=consecutive_recoveries, tier=TIER_IN_PLACE)
                )
                taus[p : p + ib] = pf.taus
                tau_guard.record(taus, p, ib)
                qprot.update_for_panel(em.data, p, ib, counter=counter)
                sched.correct(it)
                consecutive_recoveries = 0
                it += 1
                continue

        if within_budget:
            # -- tier 1: reverse the live iteration, restore, locate ---------
            reverse_left_update_encoded(em, pf, vce, counter=counter, workspace=ws)
            reverse_right_update_encoded(em, pf, vce, ychk, counter=counter, workspace=ws)
            store.restore(em, verify=True)
            try:
                errors = _locate_and_correct(em, p, norm_a, counter)
                recovered = True
                sup.record(TIER_REVERSE_REDO, it, True)
            except UncorrectableError as exc:
                sup.record(TIER_REVERSE_REDO, it, False, str(exc))

            # -- tier 2: deep rollback through completed iterations ----------
            while not recovered and back_it > 0:
                back_it -= 1
                tier_used = TIER_DEEP_ROLLBACK
                pb, ibb = plan[back_it]
                qprot.rollback_panel(em.data, pb, ibb)
                unwind_iteration(em, pb, ibb, taus, counter=counter)
                taus[pb : pb + ibb] = 0.0
                tau_guard.rollback(pb, ibb)
                try:
                    # only the row checksums unwound exactly; locate
                    # through them (needs channels>=2) and rebuild the
                    # column checksums afterwards
                    errors = locate_errors_rowonly(em, pb, norm_a, counter=counter)
                    if len(errors) > MAX_SIMULTANEOUS:
                        raise UncorrectableError("smeared state")
                    correct_all(em, errors, pb, counter=counter)
                    rebuild_col_checksums(em, pb, counter=counter)
                    if locate_errors_rowonly(em, pb, norm_a, counter=counter):
                        raise UncorrectableError("correction did not clean the state")
                    recovered = True
                    sup.record(TIER_DEEP_ROLLBACK, it, True)
                except UncorrectableError as exc:
                    sup.record(TIER_DEEP_ROLLBACK, it, False, str(exc))
                    if em.k < 2:
                        # one channel refuses only for a bad row it cannot
                        # place in a column, and unwinding keeps the row
                        # residual's 2-norm (the left reverse rotates it
                        # by the orthogonal U), so deeper steps would
                        # refuse alike: go to the restart tier
                        break

        if recovered:
            sched.recovery(it, unwind_to=back_it)
            recoveries.append(
                RecoveryEvent(iteration=it, p=plan[back_it][0], gap=gap,
                              errors=errors, retries=consecutive_recoveries,
                              tier=tier_used)
            )
            it = back_it  # redo the rolled-back iterations
            continue

        # -- tier 3: full diskless restart from the re-encoded input --------
        if sup.allow(TIER_RESTART):
            store.restore_initial(em)
            store.drop_current()
            taus[:] = 0.0
            tau_guard.reset()
            qprot.reset()
            sup.record(TIER_RESTART, it, True)
            recoveries.append(
                RecoveryEvent(iteration=it, p=0, gap=gap, errors=[],
                              retries=consecutive_recoveries, tier=TIER_RESTART)
            )
            sched.restart(it)
            consecutive_recoveries = 0
            it = 0
            continue

        reason = (
            f"errors persisted past {MAX_RETRIES} retries"
            if not within_budget
            else "no tier could produce a clean state"
        )
        raise EscalationExhausted(
            f"iteration {it}: {reason}", report=sup.report(it, reason)
        )

    # ---- end of run: Q verification (once — §IV-F last paragraph) ------------
    # every fault planned at or past the last iteration strikes the
    # finished state — however far past the end it was scheduled
    injector.apply_pending_after(targets, total_iters)
    for spec in injector.unfired():
        warnings.warn(
            f"fault spec never fired: {spec} (its phase never occurred "
            "at that iteration)",
            RuntimeWarning,
            stacklevel=2,
        )
    # the tau scalars feed the formation of Q; verify against the
    # shadow once, at the end, like the Q checksums below
    tau_repairs += len(tau_guard.verify_and_repair(taus))
    q_report = qprot.verify_and_correct(em.data, counter=counter)

    return FTResult(
        n=n,
        nb=config.nb,
        a=em.data,
        taus=taus,
        record=sched.finish(q_corrected=bool(q_report.errors)),
        counter=counter,
        iterations=total_iters,
        recoveries=recoveries,
        q_report=q_report,
        detections=detector.detections,
        checks=detector.checks,
        checkpoint_saves=store.saves,
        checkpoint_restores=store.restores,
        checkpoint_peak_bytes=store.peak_bytes,
        restarts=sup.restarts,
        tau_repairs=tau_repairs,
        checkpoint_corruptions=store.corruption_detected,
    )
