"""Machine-sensitivity study: does the paper's <2% overhead claim
survive on machines other than the 2016 testbed?

Sweeps the machine model across GPU generations (K40-class → A100-class)
and PCIe bandwidths, regenerating the no-error overhead at N=10110 for
each. The structural reason the claim generalizes: the ABFT work is a
fixed set of GEMV/reduction kernels per iteration whose cost scales with
the same memory bandwidth that bounds the baseline's panel GEMVs.
"""

from conftest import emit

from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.hybrid import DeviceSpec, LinkSpec, MachineSpec, paper_testbed
from repro.utils.fmt import Table

N = 10110


def _machine(name, gpu_tflops, gpu_bw, link_gbs):
    base = paper_testbed()
    return MachineSpec(
        cpu=base.cpu,
        gpu=DeviceSpec(name, "gpu", gpu_tflops * 1000.0, gpu_bw, 40.0, 1400.0),
        link=LinkSpec("link", link_gbs, 10.0),
        description=name,
    )


MACHINES = [
    ("K40c (paper)", None),
    ("P100-class", _machine("P100-class", 4.7, 550.0, 12.0)),
    ("V100-class", _machine("V100-class", 7.0, 800.0, 14.0)),
    ("A100-class", _machine("A100-class", 9.7, 1500.0, 25.0)),
]


def test_machine_sensitivity(benchmark, results_dir):
    def sweep():
        rows = []
        for name, machine in MACHINES:
            machine = machine or paper_testbed()
            base = hybrid_gehrd(N, HybridConfig(nb=32, machine=machine))
            ft = ft_gehrd(N, FTConfig(nb=32, machine=machine))
            rows.append((name, base.gflops, overhead_percent(ft, base)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    t = Table(
        ["machine", "baseline GFLOPS", "FT overhead %"],
        title=f"Machine sensitivity of the no-error FT overhead (N={N}, nb=32)",
    )
    for name, g, o in rows:
        t.add_row([name, f"{g:.0f}", f"{o:.3f}"])
    emit(results_dir, "machine_sensitivity", t.render())

    for name, g, o in rows:
        assert o < 2.0, f"{name}: the <2% claim must generalize"
    # newer machines are faster in absolute terms
    assert rows[-1][1] > rows[0][1]
