"""Ablation 4 (DESIGN.md §5) — recovery strategy: the paper's reverse
computation + single-iteration redo vs. a full restart from the encoded
input (what diskless checkpointing alone would buy).

Modeled at paper sizes: the restart cost is the whole prefix of the
factorization, so its overhead *grows* with how late the error strikes,
while reverse+redo *shrinks* — the crossover justifying the paper's
design is immediate.
"""

from conftest import emit

from repro.analysis import flop_orig, flop_redo, flop_reverse
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.faults import FaultInjector, FaultSpec, finished_cols_at, iteration_count
from repro.utils.fmt import Table

N, NB = 10110, 32


def _restart_overhead_percent(j: int, total: int) -> float:
    """Modeled flop overhead of redoing iterations 0..j from a restart."""
    # work already done up to iteration j ≈ FLOP_orig - remaining
    m = N - j * NB
    remaining = 10.0 / 3.0 * m**3
    redone = flop_orig(N) - remaining
    return 100.0 * redone / flop_orig(N)


def test_ablation_recovery_strategy(benchmark, results_dir):
    def sweep():
        base = hybrid_gehrd(N, HybridConfig(nb=NB))
        total = iteration_count(N, NB)
        rows = []
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            j = max(1, int(frac * total))
            p = finished_cols_at(j, N, NB)
            inj = FaultInjector().add(FaultSpec(iteration=j, row=p + 2, col=p + 3))
            ft = ft_gehrd(N, FTConfig(nb=NB), injector=inj)
            reverse_ovh = overhead_percent(ft, base)
            restart_ovh = _restart_overhead_percent(j, total)
            rows.append((j, reverse_ovh, restart_ovh))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    t = Table(
        ["error iter", "reverse+redo ovh %", "full-restart ovh % (model)"],
        title=f"Ablation: recovery strategy at N={N}",
    )
    for j, rev, rst in rows:
        t.add_row([j, f"{rev:.3f}", f"{rst:.1f}"])
    emit(results_dir, "ablation_recovery", t.render())

    # reverse+redo gets cheaper for later errors; restart gets dearer
    assert rows[0][1] > rows[-1][1]
    assert rows[0][2] < rows[-1][2]
    # reverse+redo dominates everywhere except possibly the very start
    for j, rev, rst in rows[1:]:
        assert rev < rst
