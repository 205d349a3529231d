#!/usr/bin/env python
"""Domain scenario — attacking the fault tolerance itself.

The paper assumes faults strike the matrix; a hostile environment also
corrupts the machinery that is supposed to recover it: the diskless
checkpoint buffer, the tau scalars, the live Householder block, the Q
checksums — possibly *while a recovery is already running*. This script
shows the three layers this codebase adds for that model:

1. the recovery escalation ladder, ending in a structured FailureReport
   rather than a bare traceback when everything is exhausted;
2. the adversarial campaign over every fault space x phase;
3. the crash-proof campaign journal: kill the runner, resume, get the
   identical outcome table without redoing finished trials.

Run:  python examples/adversarial_resilience.py
"""

import os
import tempfile

from repro.core import FTConfig, ft_gehrd
from repro.faults import OUTCOMES, FaultInjector, FaultSpec, run_campaign
from repro.linalg import extract_hessenberg, factorization_residual, orghr
from repro.resilience import EscalationExhausted, LadderConfig
from repro.utils import Table, random_matrix


def main() -> None:
    n, nb = 96, 32
    a = random_matrix(n, seed=7)

    # --- 1. one hostile double fault, watched through the ladder -----------
    # the checkpoint's guard rows place the struck element and repair it
    # as the panel is restored, so the paper's one checksum channel then
    # decodes the matrix fault alone
    print("double fault: checkpoint buffer + matrix, same iteration")
    inj = FaultInjector()
    inj.add(FaultSpec(iteration=1, row=60, col=3, magnitude=4.0,
                      space="checkpoint", phase="post_panel"))
    inj.add(FaultSpec(iteration=1, row=50, col=60, magnitude=1.0))
    res = ft_gehrd(a, FTConfig(nb=nb, channels=1), injector=inj)
    q = orghr(res.a, res.taus)
    h = extract_hessenberg(res.a)
    print(f"  residual after recovery: {factorization_residual(a, q, h):.2e}")
    print(f"  recovery tiers used: {[r.tier for r in res.recoveries]}")
    print(f"  checkpoint corruptions caught by guard sums: "
          f"{res.checkpoint_corruptions}, restarts: {res.restarts}")

    # a strike on the live Householder block: the trailing updates
    # already applied the struck V, so tier 1's reversal cannot undo
    # them, and one channel with the restart backstop disabled
    # fail-stops with a per-tier account instead of a traceback
    inj = FaultInjector().add(
        FaultSpec(iteration=1, row=20, col=5, magnitude=2.0,
                  space="panel_v", phase="post_panel")
    )
    try:
        ft_gehrd(a, FTConfig(nb=nb, channels=1,
                             ladder=LadderConfig(max_restarts=0)), injector=inj)
    except EscalationExhausted as exc:
        print(f"\nstrict fail-stop mode: {exc.report.summary()}")

    # --- 2. + 3. adversarial campaign, killed and resumed ------------------
    # at least 2: the crash demo must kill a pool worker, not this process
    workers = max(2, min(4, os.cpu_count() or 1))
    print(f"\nadversarial campaign (all spaces x phases, {workers} workers), "
          "with one worker deliberately crashing mid-run:")
    with tempfile.TemporaryDirectory() as td:
        journal = os.path.join(td, "campaign.jsonl")
        res = run_campaign(
            a, nb=nb, adversarial=True, moments=2, seed=3,
            residual_tol=1e-12, workers=workers, journal=journal,
            crash_index=4, crash_once_path=os.path.join(td, "crash.once"),
        )
        resumed = run_campaign(
            a, nb=nb, adversarial=True, moments=2, seed=3,
            residual_tol=1e-12, workers=workers, resume=journal,
        )

    t = Table(["space", "trials", "corrected", "restarted", "worst residual"])
    for space in sorted({x.spec.space for x in res.trials}):
        trials = [x for x in res.trials if x.spec.space == space]
        t.add_row([
            space,
            len(trials),
            sum(x.outcome == "corrected" for x in trials),
            sum(x.outcome == "restarted" for x in trials),
            max(x.residual for x in trials),
        ])
    print(t.render())
    counts = res.outcome_counts
    print("outcome taxonomy: " + ", ".join(f"{o}={counts[o]}" for o in OUTCOMES))
    match = [x.outcome for x in resumed.trials] == [x.outcome for x in res.trials]
    print(f"journal resume: {resumed.resumed}/{len(resumed.trials)} trials "
          f"replayed from disk, outcome table identical: {match}")


if __name__ == "__main__":
    main()
