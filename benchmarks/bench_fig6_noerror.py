"""Fig. 6 (blue line) — FT-Hess overhead without failures, at the paper's
matrix sizes on the Table I machine model.

Shape target: the overhead decreases monotonically with N (the paper's
O(1/N) claim) and lands well under 2% at N=10110 (paper: 0.56%).
"""

from conftest import emit

from repro.analysis import PAPER_SIZES
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.utils.fmt import Table


def test_fig6_no_error_line(benchmark, results_dir):
    def sweep():
        rows = []
        for n in PAPER_SIZES:
            base = hybrid_gehrd(n, HybridConfig(nb=32))
            ft = ft_gehrd(n, FTConfig(nb=32))
            rows.append((n, base.gflops, ft.gflops, overhead_percent(ft, base)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    t = Table(
        ["N", "MAGMA GFLOPS", "FT GFLOPS", "overhead %"],
        title="Fig. 6 no-failure overhead (blue line), all areas share this",
    )
    for n, bg, fg, ovh in rows:
        t.add_row([n, f"{bg:.1f}", f"{fg:.1f}", f"{ovh:.3f}"])
    emit(results_dir, "fig6_noerror", t.render())

    ovhs = [r[3] for r in rows]
    assert all(a >= b for a, b in zip(ovhs, ovhs[1:])), "overhead must decrease with N"
    assert ovhs[-1] < 2.0
