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

Functional mode executes all of this on real data; metadata mode prices
the identical schedule (consulting the fault plan for which iterations
detect) so the Fig. 6 overhead curves can be produced at paper-scale N.
"""

from __future__ import annotations

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
from repro.abft.location import locate_errors
from repro.abft.qprotect import QProtector
from repro.abft.unwind import locate_errors_rowonly, rebuild_col_checksums, unwind_iteration
from repro.core.config import FTConfig
from repro.core.hybrid_hessenberg import iteration_plan_cached
from repro.core.results import FTResult, RecoveryEvent
from repro.errors import ConvergenceError, EscalationExhausted, ShapeError, UncorrectableError
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.faults.regions import AREA_NO_PROPAGATION, classify, finished_cols_at
from repro.resilience import (
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
from repro.linalg.flops import FlopCounter
from repro.linalg.lahr2 import lahr2
from repro.linalg.verify import one_norm
from repro.perf.workspace import Workspace
from repro.utils.precision import as_lane_matrix

_B = 8  # default element bytes (float64); fp32 runs price half per element


def _planned_detections(
    injector: FaultInjector | None, n: int, nb: int, detect_every: int
) -> dict[int, int]:
    """Metadata mode: ``{detection iteration: earliest fault iteration}``.

    A fault in the active (area 1/2) region or in a checksum vector is
    caught at the first detection point at or after its iteration; area-3
    faults are only seen by the final Q check. The earliest contributing
    fault determines how far the deep rollback must unwind.
    """
    out: dict[int, int] = {}
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
        it = f.iteration
        while it < total and not (it % detect_every == 0 or it == total - 1):
            it += 1
        it = min(it, total - 1)
        out[it] = min(out.get(it, f.iteration), f.iteration)
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
        Square input matrix (functional) or the order N (metadata mode).
    config:
        Driver settings (see :class:`~repro.core.config.FTConfig`).
    injector:
        Fault plan; faults strike the encoded matrix at iteration starts.

    Returns
    -------
    FTResult
        Packed factorization + taus (functional mode), simulated
        timeline/seconds, recovery log, Q-check report, checkpoint stats.

    Raises
    ------
    ConvergenceError
        If an iteration keeps detecting errors past ``max_retries``
        (an error storm outside the paper's failure model).
    """
    config = config or FTConfig()
    if isinstance(a, (int, np.integer)):
        n = int(a)
        em = None
        if config.functional:
            raise ShapeError("functional mode needs a concrete matrix, not an order")
        norm_a = 1.0
    else:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"ft_gehrd needs a square matrix, got {a.shape}")
        n = a.shape[0]
        a = as_lane_matrix(a)
        norm_a = one_norm(np.asarray(a, dtype=np.float64))
        em = None
    config.validate(n)
    # transfer pricing follows the lane itemsize: the fp32 lane moves
    # half the bytes of the float64 default over the same PCIe model
    _B = 8 if isinstance(a, (int, np.integer)) else int(a.dtype.itemsize)

    counter = FlopCounter()
    rt = HybridRuntime(config.machine, functional=config.functional)
    plan = iteration_plan_cached(n, config.nb)
    total_iters = len(plan)

    # ---- functional state -------------------------------------------------
    functional = config.functional
    if functional:
        em = EncodedMatrix(a, channels=config.channels, counter=counter)
        detector = Detector(config.threshold, norm_a)
        qprot = QProtector(n, eps_factor=config.eps_factor_locate)
        store = DisklessCheckpointStore()
        store.save_initial(em)  # the restart tier's substrate
        taus = np.zeros(max(n - 1, 0), dtype=em.ext.dtype)
        tau_guard = TauGuard(taus.size)
        # callers that run many reductions back to back (the serve
        # worker pool) pass a long-lived arena; presize is grow-only,
        # so reuse across differently sized jobs is safe
        ws = workspace if workspace is not None else Workspace()
        ws.presize(n, config.nb, config.channels, dtype=em.ext.dtype)
    else:
        detector = None
        qprot = None
        store = None
        taus = None
        tau_guard = None
        ws = None
    sup = ResilienceSupervisor(config.ladder, config.max_retries)
    planned = _planned_detections(injector, n, config.nb, config.detect_every)

    recoveries: list[RecoveryEvent] = []
    tau_repairs = 0

    # ---- line 1–2: upload + encode -----------------------------------------
    op_up_a = rt.copy_h2d(_B * n * n, name="upload_A", category="transfer")
    op_encode = rt.submit(
        "encode",
        "gpu",
        2 * config.channels * rt.cost.gemv("gpu", n, n),
        [op_up_a],
        "abft_maintain",
    )
    frontier: list[SimOp] = [op_encode]

    def schedule_body(
        it: int,
        p: int,
        ib: int,
        deps: list[SimOp],
        *,
        redo: bool,
        fns: dict,
        check_here: bool = True,
    ) -> tuple[list[SimOp], SimOp, SimOp]:
        """Submit one FT iteration's compute ops; returns
        (frontier, last op, panel op)."""
        m = n - p
        tag = f"@{it}" + ("r" if redo else "")
        cat_extra = "abft_recover" if redo else None

        op_down = rt.copy_d2h(_B * (m - 1) * ib, deps, name=f"panel_down{tag}",
                              category="transfer")
        op_panel = rt.panel(m, ib, [op_down], name=f"panel{tag}", fn=fns.get("panel"))
        op_pup = rt.copy_h2d(_B * m * ib, [op_panel], name=f"panel_up{tag}",
                             category="transfer")

        # lines 6–7: checksum GEMVs for Y and V on the GPU (per channel)
        op_chk = rt.submit(
            f"chk_vy{tag}",
            "gpu",
            2 * config.channels * rt.cost.gemv("gpu", m - 1, ib),
            [op_pup],
            cat_extra or "abft_maintain",
            fns.get("chk"),
        )

        # §IV-E: Q checksum maintenance on the (idle) host, overlapped with
        # the GPU trailing update. The ablation's naive alternative keeps
        # the checksum GEMVs where the data lives — in the GPU's update
        # stream — stealing device time from the critical path.
        if config.overlap_q_checksums:
            op_qchk = rt.submit(
                f"qchk{tag}",
                "cpu",
                2 * rt.cost.gemv("cpu", m - 1, ib),
                [op_panel],
                cat_extra or "abft_qprotect",
                fns.get("qchk"),
            )
            update_deps = [op_chk]
        else:
            op_qchk = rt.submit(
                f"qchk{tag}",
                "gpu",
                2 * rt.cost.gemv("gpu", m - 1, ib),
                [op_pup],
                cat_extra or "abft_qprotect",
                fns.get("qchk"),
            )
            update_deps = [op_chk, op_qchk]

        # line 8: right update to Mre (one extra checksum column)
        dur_m = rt.cost.gemm("gpu", p + ib, ib, m - 1) + rt.cost.gemm(
            "gpu", p + ib, m - ib + 1, ib
        )
        op_m = rt.submit(f"right_M{tag}", "gpu", dur_m, update_deps,
                         cat_extra or "right_update", fns.get("right"))
        # line 9: async send of the finished columns of M
        op_send = rt.copy_d2h(_B * (p + ib) * ib, [op_m], name=f"send_M{tag}",
                              category="transfer")
        # line 10: right update to Gfe … overlapped with line 9
        op_g = rt.gemm("gpu", m - ib, m - ib + 1, ib, [op_m], name=f"right_G{tag}",
                       category=cat_extra or "right_update")
        # column-checksum row maintenance for the right update
        op_crow = rt.gemv("gpu", m - ib, ib, [op_g], name=f"crow{tag}",
                          category=cat_extra or "abft_maintain")
        # line 11: extended left update
        op_l = rt.larfb("gpu", m - 1, m - ib + 1, ib, [op_g], name=f"larfb{tag}",
                        category=cat_extra or "left_update", fn=fns.get("left"))
        op_lrow = rt.gemv("gpu", m - ib + 1, ib, [op_l], name=f"lrow{tag}",
                          category=cat_extra or "abft_maintain")
        # freeze the finished columns' checksum segment
        op_refresh = rt.submit(
            f"refresh{tag}",
            "gpu",
            ib * rt.cost.dot("gpu", p + ib),
            [op_l],
            cat_extra or "abft_maintain",
            fns.get("refresh"),
        )
        # lines 12–13: detection (two reductions + a scalar readback) —
        # only scheduled at the iterations the detect_every policy checks
        if check_here:
            op_detect = rt.submit(
                f"detect{tag}",
                "gpu",
                2 * rt.cost.reduction("gpu", n),
                [op_refresh, op_crow, op_lrow],
                "abft_detect",
            )
            last = rt.copy_d2h(2 * _B, [op_detect], name=f"detect_d2h{tag}",
                               category="abft_detect")
        else:
            last = op_refresh
        new_frontier = [last, op_send, op_qchk]
        return new_frontier, last, op_panel

    def schedule_recovery(
        it: int, deps: list[SimOp], *, unwind_to: int
    ) -> list[SimOp]:
        """Submit the rollback + locate + correct ops (lines 14–15).

        When detection lagged the fault (``unwind_to < it``) the deep
        rollback re-applies each intervening iteration's block reflector
        pair — one reverse left + one reverse right update per unwound
        iteration, the same kernel shapes as the forward pass.
        """
        frontier_r = deps
        for back in range(it, unwind_to - 1, -1):
            pb, ibb = plan[back]
            m = n - pb
            tag = f"@{back}u{it}"
            op_revl = rt.larfb("gpu", m - 1, m - ibb + 1, ibb, frontier_r,
                               name=f"rev_larfb{tag}", category="abft_recover")
            op_revr = rt.gemm("gpu", n, m - ibb + 1, ibb, [op_revl],
                              name=f"rev_right{tag}", category="abft_recover")
            frontier_r = [op_revr]
        op_restore = rt.copy_h2d(_B * n * config.nb, frontier_r, name=f"restore@{it}",
                                 category="abft_recover")
        op_locate = rt.submit(
            f"locate@{it}",
            "gpu",
            2 * config.channels * rt.cost.gemv("gpu", n, n),
            [op_restore],
            "abft_locate",
        )
        op_correct = rt.dot("gpu", n, [op_locate], name=f"correct@{it}",
                            category="abft_correct")
        return [op_correct]

    # ---- main loop ----------------------------------------------------------
    max_simultaneous = 4  # decode plausibility bound (see ft_sytrd)
    consecutive_recoveries = 0
    redo_seq = 0
    handled_detections: set[int] = set()

    def inject(phase: str, iteration: int, panel_v: np.ndarray | None = None) -> None:
        """Phase-aware adversarial injection hook: exposes every live FT
        structure — the encoded matrix, the tau scalars, the Q-protection
        checksums, the diskless checkpoint buffer and (inside an
        iteration) the live V block — to the fault plan."""
        if injector is None or not functional:
            return
        injector.apply_phase(
            iteration,
            phase,
            InjectionTargets(
                em=em, taus=taus, qprot=qprot, checkpoint=store, panel_v=panel_v
            ),
        )

    def locate_and_correct(finished: int) -> list:
        """Locate at the rolled-back state; raise if implausible/unclean."""
        report = locate_errors(
            em, finished, norm_a, eps_factor=config.eps_factor_locate, counter=counter
        )
        data_errs = [e for e in report.errors if e.kind == "data"]
        if len(data_errs) > max_simultaneous:
            raise UncorrectableError(
                f"{len(data_errs)} simultaneous data errors decoded — smeared state"
            )
        correct_all(em, report.errors, finished, counter=counter)
        if locate_errors(
            em, finished, norm_a, eps_factor=config.eps_factor_locate, counter=counter
        ).errors:
            raise UncorrectableError("correction did not clean the state")
        return report.errors

    def try_in_place(finished: int) -> list | None:
        """Ladder tier 0: correct at the *current* state, no rollback.

        Only accepts patterns the decoder pins down exactly — at most
        ``in_place_max_errors`` data elements (checksum-element errors
        are recomputed from data and are always safe to fix in place).
        The attempt is transactional: on any doubt the state is restored
        verbatim and the ladder escalates.
        """
        snapshot = em.ext.copy()
        try:
            report = locate_errors(
                em, finished, norm_a, eps_factor=config.eps_factor_locate,
                counter=counter,
            )
            data_errs = [e for e in report.errors if e.kind == "data"]
            if not report.errors or len(data_errs) > config.ladder.in_place_max_errors:
                return None
            if em.k < 2 and any(e.kind == "row_checksum" for e in report.errors):
                # With one channel, a "row checksum" diagnosis is
                # untrustworthy at the current state: a data error in a
                # just-finished panel column looks identical, because the
                # panel factorization recomputed that column's checksum
                # over the corrupted data. Tier 1's restore brings back
                # the save-time column checksums, which disambiguate.
                return None
            correct_all(em, report.errors, finished, counter=counter)
            if locate_errors(
                em, finished, norm_a, eps_factor=config.eps_factor_locate,
                counter=counter,
            ).errors:
                raise UncorrectableError("in-place correction did not clean the state")
            return report.errors
        except UncorrectableError:
            em.ext[:, :] = snapshot
            return None

    it = 0
    while it < total_iters:
        p, ib = plan[it]
        inject("boundary", it)
        if functional:
            store.save(em, p, ib)

        pf_cell: dict = {}
        vy_cell: dict = {}

        def make_fns(p=p, ib=ib, it=it):
            if not functional:
                return {}

            def panel_fn():
                pf_cell["pf"] = lahr2(em.ext, p, ib, n, counter=counter, workspace=ws)

            def chk_fn():
                pf = pf_cell["pf"]
                vy_cell["vce"] = v_col_checksums(pf, em, counter=counter)
                vy_cell["ychk"] = y_col_checksums(em, pf, counter=counter)

            def right_fn():
                inject("post_panel", it, panel_v=pf_cell["pf"].v)
                right_update_encoded(
                    em, pf_cell["pf"], vy_cell["vce"], vy_cell["ychk"],
                    counter=counter, workspace=ws,
                )

            def left_fn():
                inject("post_right", it, panel_v=pf_cell["pf"].v)
                left_update_encoded(
                    em, pf_cell["pf"], vy_cell["vce"], counter=counter, workspace=ws
                )

            def refresh_fn():
                em.refresh_finished_segment(p, ib, counter=counter)

            return {
                "panel": panel_fn,
                "chk": chk_fn,
                "right": right_fn,
                "left": left_fn,
                "refresh": refresh_fn,
            }

        fns = make_fns()

        check_here = (it % config.detect_every == 0) or (it == total_iters - 1)
        redo_seq += 1
        frontier, _, _ = schedule_body(
            it, p, ib, frontier, redo=consecutive_recoveries > 0, fns=fns,
            check_here=check_here,
        )

        if functional:
            detected = check_here and detector.check(em, counter=counter)
        else:
            detected = (it in planned) and (it not in handled_detections)

        if not detected:
            consecutive_recoveries = 0
            if functional:
                taus[p : p + ib] = pf_cell["pf"].taus
                tau_guard.record(taus, p, ib)
                qprot.update_for_panel(em.data, p, ib, counter=counter)
            # optional extension: periodic full audit — catches finished-H
            # corruption, which the Σ test is structurally blind to (it
            # never feeds a maintained update). No rollback needed: such
            # errors cannot propagate, so in-place correction suffices.
            audit_here = config.audit_every > 0 and (
                (it + 1) % config.audit_every == 0 or it == total_iters - 1
            )
            if audit_here:
                frontier = [
                    rt.submit(
                        f"audit@{it}",
                        "gpu",
                        2 * config.channels * rt.cost.gemv("gpu", n, n),
                        frontier,
                        "abft_detect",
                    )
                ]
                if functional:
                    report = locate_errors(
                        em, p + ib, norm_a,
                        eps_factor=config.eps_factor_locate, counter=counter,
                    )
                    if report.errors:
                        if len([e for e in report.errors if e.kind == "data"]) > max_simultaneous:
                            raise UncorrectableError(
                                "audit decoded an implausible error count"
                            )
                        correct_all(em, report.errors, p + ib, counter=counter)
                        detector.detections += 1
                        recoveries.append(
                            RecoveryEvent(iteration=it, p=p + ib, gap=0.0,
                                          errors=report.errors, retries=1,
                                          tier=TIER_AUDIT)
                        )
                        frontier = [rt.dot("gpu", n, frontier, name=f"audit_fix@{it}",
                                           category="abft_correct")]
            it += 1
            continue

        # ---- recovery: the escalation ladder (lines 14–15, tiered) --------
        consecutive_recoveries += 1
        gap = em.checksum_gap() if functional else float("nan")
        errors: list = []
        back_it = it
        if not functional:
            # metadata mode keeps the flat pricing model: one
            # reverse+redo (or deep rollback) per planned detection
            if consecutive_recoveries > config.max_retries:
                raise ConvergenceError(
                    f"iteration {it}: errors persisted past {config.max_retries} retries"
                )
            back_it = planned.get(it, it)
            handled_detections.add(it)
            frontier = schedule_recovery(it, frontier, unwind_to=back_it)
            recoveries.append(
                RecoveryEvent(
                    iteration=it, p=plan[back_it][0], gap=gap, errors=errors,
                    retries=consecutive_recoveries,
                    tier=TIER_REVERSE_REDO if back_it == it else TIER_DEEP_ROLLBACK,
                )
            )
            it = back_it
            continue

        # the adversarial model lets faults strike while recovery runs —
        # and unencoded FT state is verified against its shadow first,
        # so a corrupted tau cannot steer the rollback itself
        inject("during_recovery", it)
        repaired = tau_guard.verify_and_repair(taus)
        tau_repairs += len(repaired)

        within_budget = consecutive_recoveries <= config.max_retries
        recovered = False
        tier_used = TIER_REVERSE_REDO

        # -- tier 0: in-place correction, no rollback ------------------------
        if within_budget and sup.allow(TIER_IN_PLACE):
            fixed = try_in_place(p + ib)
            sup.record(TIER_IN_PLACE, it, fixed is not None)
            if fixed is not None:
                recoveries.append(
                    RecoveryEvent(iteration=it, p=p + ib, gap=gap, errors=fixed,
                                  retries=consecutive_recoveries, tier=TIER_IN_PLACE)
                )
                taus[p : p + ib] = pf_cell["pf"].taus
                tau_guard.record(taus, p, ib)
                qprot.update_for_panel(em.data, p, ib, counter=counter)
                frontier = [rt.dot("gpu", n, frontier, name=f"fix@{it}",
                                   category="abft_correct")]
                consecutive_recoveries = 0
                it += 1
                continue

        if within_budget:
            # -- tier 1: reverse the live iteration, restore, locate ---------
            pf = pf_cell["pf"]
            reverse_left_update_encoded(
                em, pf, vy_cell["vce"], counter=counter, workspace=ws
            )
            reverse_right_update_encoded(
                em, pf, vy_cell["vce"], vy_cell["ychk"], counter=counter, workspace=ws
            )
            store.restore(em, verify=True)
            try:
                errors = locate_and_correct(plan[it][0])
                recovered = True
                sup.record(TIER_REVERSE_REDO, it, True)
            except UncorrectableError as exc:
                sup.record(TIER_REVERSE_REDO, it, False, str(exc))

            # -- tier 2: deep rollback through completed iterations ----------
            deep_steps = 0
            while (
                not recovered
                and back_it > 0
                and (
                    config.ladder.max_deep_steps is None
                    or deep_steps < config.ladder.max_deep_steps
                )
            ):
                back_it -= 1
                deep_steps += 1
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
                    errors = locate_errors_rowonly(
                        em, plan[back_it][0], norm_a,
                        eps_factor=config.eps_factor_locate, counter=counter,
                    )
                    if len(errors) > max_simultaneous:
                        raise UncorrectableError("smeared state")
                    correct_all(em, errors, plan[back_it][0], counter=counter)
                    rebuild_col_checksums(em, plan[back_it][0], counter=counter)
                    if locate_errors_rowonly(
                        em, plan[back_it][0], norm_a,
                        eps_factor=config.eps_factor_locate, counter=counter,
                    ):
                        raise UncorrectableError("correction did not clean the state")
                    recovered = True
                    sup.record(TIER_DEEP_ROLLBACK, it, True)
                except UncorrectableError as exc:
                    sup.record(TIER_DEEP_ROLLBACK, it, False, str(exc))

        if recovered:
            frontier = schedule_recovery(it, frontier, unwind_to=back_it)
            recoveries.append(
                RecoveryEvent(iteration=it, p=plan[back_it][0], gap=gap,
                              errors=errors, retries=consecutive_recoveries,
                              tier=tier_used)
            )
            it = back_it  # redo the rolled-back iterations
            continue

        # -- tier 3: full diskless restart from the initial snapshot ---------
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
            frontier = [
                rt.copy_h2d(_B * n * n, frontier, name=f"restart@{it}",
                            category="abft_recover")
            ]
            consecutive_recoveries = 0
            it = 0
            continue

        reason = (
            f"errors persisted past {config.max_retries} retries"
            if not within_budget
            else "no tier could produce a clean state"
        )
        raise EscalationExhausted(
            f"iteration {it}: {reason}", report=sup.report(it, reason)
        )

    # ---- end of run: Q verification (once — §IV-F last paragraph) ------------
    if functional and injector is not None:
        # every fault planned at or past the last iteration strikes the
        # finished state — however far past the end it was scheduled
        if injector.pending_after(total_iters):
            injector.apply_pending_after(
                InjectionTargets(
                    em=em, taus=taus, qprot=qprot, checkpoint=store, panel_v=None
                ),
                total_iters,
            )
        for spec in injector.unfired():
            warnings.warn(
                f"fault spec never fired: {spec} (its phase never occurred "
                "at that iteration)",
                RuntimeWarning,
                stacklevel=2,
            )
    if functional:
        # the tau scalars feed the formation of Q; verify against the
        # shadow once, at the end, like the Q checksums below
        tau_repairs += len(tau_guard.verify_and_repair(taus))

    op_qv = rt.submit(
        "q_verify",
        "cpu",
        2 * rt.cost.gemv("cpu", n, max(n // 2, 1)),
        frontier,
        "abft_qprotect",
    )
    frontier = [op_qv]
    q_report = None
    if functional:
        q_report = qprot.verify_and_correct(em.data, counter=counter)
        if q_report.errors:
            frontier = [rt.dot("cpu", n, frontier, name="q_correct",
                               category="abft_correct")]
    else:
        if _has_area3_fault(injector, n, config.nb):
            frontier = [rt.dot("cpu", n, frontier, name="q_correct",
                               category="abft_correct")]

    rt.copy_d2h(_B * n * config.nb, frontier, name="final_down", category="transfer")

    tl = rt.timeline()
    return FTResult(
        n=n,
        nb=config.nb,
        a=em.data if functional else None,
        taus=taus,
        timeline=tl,
        seconds=tl.makespan,
        counter=counter,
        iterations=total_iters,
        recoveries=recoveries,
        q_report=q_report,
        detections=detector.detections if functional else len(planned),
        checks=detector.checks if functional else 0,
        checkpoint_saves=store.saves if functional else 0,
        checkpoint_restores=store.restores if functional else 0,
        checkpoint_peak_bytes=store.peak_bytes if functional else 0,
        restarts=sup.restarts,
        tau_repairs=tau_repairs,
        checkpoint_corruptions=store.corruption_detected if functional else 0,
    )
