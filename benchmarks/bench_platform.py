"""Table I — the simulated test platform, plus cost-model sanity rates.

Regenerates: paper Table I (as a machine-model preset) and the headline
"MAGMA Hess reaches ~160+ GFLOPS at N≈10000" calibration the Fig. 6
curves rest on.
"""

from conftest import emit

from repro.analysis import render_table1
from repro.core import HybridConfig, hybrid_gehrd
from repro.hybrid import CostModel, paper_testbed
from repro.utils.fmt import Table


def test_table1_platform(benchmark, results_dir):
    machine = paper_testbed()
    cm = CostModel(machine)

    def model_rates():
        rows = Table(
            ["kernel", "shape", "modeled rate"],
            title="Cost-model sanity (GPU kernels)",
        )
        for m, n, k in [(8000, 8000, 8000), (8000, 8000, 32)]:
            t = cm.gemm("gpu", m, n, k)
            rows.add_row([f"gemm", f"{m}x{n}x{k}", f"{2*m*n*k/t/1e9:.0f} GFLOPS"])
        t = cm.gemv("gpu", 8000, 8000)
        rows.add_row(["gemv", "8000x8000", f"{2*8000*8000/t/1e9:.0f} GFLOPS"])
        return rows.render()

    rates = benchmark(model_rates)
    base = hybrid_gehrd(10110, HybridConfig(nb=32))
    text = (
        render_table1(machine)
        + "\n\n"
        + rates
        + f"\n\nModeled hybrid DGEHRD at N=10110: {base.gflops:.1f} GFLOPS "
        "(paper Fig. 6 tops out ~160-170)"
    )
    emit(results_dir, "table1_platform", text)
    assert 140 < base.gflops < 190
