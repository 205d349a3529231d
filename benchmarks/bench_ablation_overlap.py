"""Ablation 1 (DESIGN.md §5) — the paper's key overhead trick: Q-checksum
GEMVs on the idle CPU, overlapped with the GPU's trailing update, vs. the
same work serialized onto the critical path.

Shape target: overlap strictly helps (or at worst ties) at every size,
and the serialized variant's extra cost shrinks with N (the GPU update
grows faster than the checksum GEMVs).
"""

from conftest import emit

from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.utils.fmt import Table

SIZES = [1022, 2046, 4030, 8062, 10110]


def test_ablation_q_checksum_overlap(benchmark, results_dir):
    def sweep():
        rows = []
        for n in SIZES:
            base = hybrid_gehrd(n, HybridConfig(nb=32))
            over = ft_gehrd(n, FTConfig(nb=32, overlap_q_checksums=True))
            serial = ft_gehrd(n, FTConfig(nb=32, overlap_q_checksums=False))
            rows.append(
                (n, overhead_percent(over, base), overhead_percent(serial, base))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    t = Table(
        ["N", "overlapped ovh %", "serialized ovh %", "saved %"],
        title="Ablation: Q-checksum maintenance overlapped vs on the critical path",
    )
    for n, o, s in rows:
        t.add_row([n, f"{o:.3f}", f"{s:.3f}", f"{s - o:.3f}"])
    emit(results_dir, "ablation_overlap", t.render())

    for n, o, s in rows:
        assert o <= s + 1e-9, f"overlap must not hurt at N={n}"
