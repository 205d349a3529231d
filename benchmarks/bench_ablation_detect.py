"""Ablation 2 (DESIGN.md §5) — detection period: checking every iteration
(the paper's on-line scheme) vs every k iterations.

Two sides of the trade-off:

* **cost** — sparser checks shave only hundredths of a percent
  (detection is two reductions), which *justifies* the paper's choice of
  per-iteration detection;
* **recoverability** — detection latency forces the deep rollback: the
  intervening iterations must be unwound and re-executed (dearer), and
  column localization after unwinding needs the weighted checksum
  channel. With the paper's single channel a delayed detection cannot
  be located: the paper's fail-stop ladder (no restart) refuses the
  run, while the default ladder recovers it by a full diskless restart.
"""

from conftest import emit

from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.errors import EscalationExhausted, UncorrectableError
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import extract_hessenberg, factorization_residual, orghr
from repro.resilience import LadderConfig, max_tier
from repro.utils.fmt import Table
from repro.utils.rng import random_matrix

N_MODEL = 4030
N_FUNC = 128


def test_ablation_detection_period(benchmark, results_dir):
    def sweep():
        base = hybrid_gehrd(N_MODEL, HybridConfig(nb=32))
        cost_rows = []
        for k in (1, 2, 4, 8):
            ft = ft_gehrd(N_MODEL, FTConfig(nb=32, detect_every=k))
            # with one fault at iteration 9, latency forces unwind+redo
            inj = FaultInjector().add(
                FaultSpec(iteration=9, row=2000, col=2100, magnitude=1.0)
            )
            ftf = ft_gehrd(
                N_MODEL,
                FTConfig(nb=32, detect_every=k, channels=2),
                injector=inj,
            )
            cost_rows.append(
                (k, overhead_percent(ft, base), overhead_percent(ftf, base))
            )

        # recoverability at small scale, on a real matrix; the paper's
        # fail-stop ladder has no restart tier
        ladders = {"default": LadderConfig(), "fail-stop": LadderConfig(max_restarts=0)}
        a0 = random_matrix(N_FUNC, seed=0)
        rec_rows = []
        for k, ch, ladder in (
            (1, 1, "default"), (3, 1, "fail-stop"), (3, 1, "default"), (3, 2, "default")
        ):
            inj = FaultInjector().add(
                FaultSpec(iteration=1, row=90, col=100, magnitude=2.0)
            )
            cfg = FTConfig(nb=32, detect_every=k, channels=ch, ladder=ladders[ladder])
            try:
                res = ft_gehrd(a0, cfg, injector=inj)
                q = orghr(res.a, res.taus)
                h = extract_hessenberg(res.a)
                ok = factorization_residual(a0, q, h) < 1e-12
                tier = max_tier(r.tier for r in res.recoveries)
                outcome = f"recovered by {tier}" if ok else "WRONG RESULT"
            except EscalationExhausted:
                outcome = "refused (ladder exhausted)"
            except UncorrectableError:
                outcome = "refused (uncorrectable)"
            rec_rows.append((k, ch, ladder, outcome))
        return cost_rows, rec_rows

    cost_rows, rec_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    t1 = Table(
        ["detect every", "no-error ovh %", "1-fault ovh % (2ch)"],
        title=f"Ablation: detection period at N={N_MODEL} (modeled)",
    )
    for k, o, of in cost_rows:
        t1.add_row([k, f"{o:.4f}", f"{of:.4f}"])
    t2 = Table(
        ["detect every", "channels", "ladder", "outcome with 1 fault"],
        title=f"Recoverability under detection latency (on a matrix, N={N_FUNC})",
    )
    for row in rec_rows:
        t2.add_row(list(row))
    emit(results_dir, "ablation_detect", t1.render() + "\n\n" + t2.render())

    # cost: per-iteration detection is nearly free
    assert cost_rows[0][1] - cost_rows[-1][1] < 0.5
    # latency makes the faulted run dearer (unwind + redo)
    assert cost_rows[-1][2] > cost_rows[0][2]
    # recoverability: latency + single channel → the fail-stop ladder
    # refuses and the default ladder pays a full restart; two channels
    # locate through the deep rollback
    outcomes = {(k, ch, ladder): o for k, ch, ladder, o in rec_rows}
    assert outcomes[(1, 1, "default")] == "recovered by reverse_redo"
    assert outcomes[(3, 1, "fail-stop")] == "refused (ladder exhausted)"
    assert outcomes[(3, 1, "default")] == "recovered by restart"
    assert outcomes[(3, 2, "default")] == "recovered by deep_rollback"
