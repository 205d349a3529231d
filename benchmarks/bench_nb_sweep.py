"""Supplementary experiment: sensitivity to the panel width nb.

The paper fixes nb=32 throughout. The model shows why that is a sound
choice on the Table-I machine: wider panels raise GEMM efficiency in the
trailing updates but lengthen the serial panel (more memory-bound GEMV
columns) and enlarge the per-error redo; the sweet spot for baseline
GFLOPS sits near 32–64, and the FT overhead stays sub-1% across the
whole range — the paper's conclusions are not an artifact of the nb
choice.
"""

from conftest import emit

from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.faults import FaultInjector, FaultSpec
from repro.utils.fmt import Table

N = 10110
WIDTHS = (8, 16, 32, 64, 128)


def test_nb_sensitivity(benchmark, results_dir):
    def sweep():
        rows = []
        for nb in WIDTHS:
            base = hybrid_gehrd(N, HybridConfig(nb=nb))
            ft = ft_gehrd(N, FTConfig(nb=nb))
            inj = FaultInjector().add(
                FaultSpec(iteration=2, row=N // 2, col=N // 2 + 5, magnitude=1.0)
            )
            ftf = ft_gehrd(N, FTConfig(nb=nb), injector=inj)
            rows.append(
                (nb, base.gflops, overhead_percent(ft, base),
                 overhead_percent(ftf, base))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    t = Table(
        ["nb", "baseline GFLOPS", "FT ovh %", "FT+1fault ovh %"],
        title=f"Panel-width sensitivity at N={N} (modeled, Table-I machine)",
    )
    for nb, g, o, of in rows:
        t.add_row([nb, f"{g:.1f}", f"{o:.3f}", f"{of:.3f}"])
    emit(results_dir, "nb_sweep", t.render())

    by_nb = {r[0]: r for r in rows}
    # nb=32 is within a few percent of the best baseline rate
    best = max(r[1] for r in rows)
    assert by_nb[32][1] > 0.9 * best
    # FT overhead stays sub-1% across the sweep
    for nb, g, o, of in rows:
        assert o < 1.0, f"nb={nb}: no-error overhead {o}"
