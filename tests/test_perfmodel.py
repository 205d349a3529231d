"""Tests for the machine models and the kernel cost model."""

import pytest

from repro.errors import SimulationError
from repro.hybrid.machine import DeviceSpec, LinkSpec, MachineSpec, laptop_sim, paper_testbed
from repro.hybrid.perfmodel import CostModel


class TestMachine:
    def test_paper_testbed_matches_table1(self):
        m = paper_testbed()
        assert m.cpu.name == "Intel Xeon E5-2670"
        assert m.gpu.name == "NVIDIA Tesla K40c"
        assert m.cpu.peak_gflops == pytest.approx(10.4)
        assert m.gpu.peak_gflops == pytest.approx(1430.0)
        assert m.cpu.mem_gb == 62.0 and m.gpu.mem_gb == 11.5
        assert m.cpu.clock_mhz == 2600.0 and m.gpu.clock_mhz == 745.0

    def test_fits_matrix(self):
        m = paper_testbed()
        assert m.fits_matrix(10110)       # the paper's largest run fits
        assert not m.fits_matrix(50000)   # 20 GB matrix does not

    def test_device_lookup(self):
        m = laptop_sim()
        assert m.device("cpu").kind == "cpu"
        assert m.device("gpu").kind == "gpu"
        with pytest.raises(SimulationError):
            m.device("fpga")

    def test_invalid_device_spec(self):
        with pytest.raises(SimulationError):
            DeviceSpec("x", "asic", 1, 1, 1, 1)
        with pytest.raises(SimulationError):
            DeviceSpec("x", "cpu", -1, 1, 1, 1)

    def test_link_transfer_model(self):
        link = LinkSpec("pcie", bandwidth_gbs=10.0, latency_us=5.0)
        assert link.transfer_seconds(0) == pytest.approx(5e-6)
        assert link.transfer_seconds(10e9) == pytest.approx(1.0, rel=1e-4)
        with pytest.raises(SimulationError):
            link.transfer_seconds(-1)


class TestCostModel:
    def setup_method(self):
        self.cm = CostModel(paper_testbed())

    def test_gemm_scales_with_flops(self):
        t1 = self.cm.gemm("gpu", 1000, 1000, 1000)
        t2 = self.cm.gemm("gpu", 2000, 2000, 1000)
        assert t2 == pytest.approx(4 * t1, rel=0.05)

    def test_small_inner_dimension_less_efficient(self):
        """A skinny k=32 gemm must run at a much lower rate than a cubic
        one — the ramp that makes the trailing updates realistic."""
        flops = lambda m, n, k: 2.0 * m * n * k
        big = flops(2000, 2000, 2000) / self.cm.gemm("gpu", 2000, 2000, 2000)
        skinny = flops(2000, 2000, 32) / self.cm.gemm("gpu", 2000, 2000, 32)
        assert skinny < 0.55 * big

    def test_gemv_is_bandwidth_bound(self):
        m = paper_testbed()
        t = self.cm.gemv("gpu", 4000, 4000)
        bytes_touched = 8 * (4000 * 4000 + 8000)
        assert t == pytest.approx(bytes_touched / (m.gpu.mem_bandwidth_gbs * 1e9), rel=1e-6)

    def test_cpu_slower_than_gpu_on_gemm(self):
        assert self.cm.gemm("cpu", 1000, 1000, 1000) > self.cm.gemm("gpu", 1000, 1000, 1000)

    def test_panel_gpu_dominates_cpu_part(self):
        """Hessenberg's character: the panel's trailing GEMVs dwarf the
        host-side reflector work at large m."""
        m, ib = 8000, 32
        assert self.cm.panel_gpu_part(m, ib) > 5 * self.cm.panel_cpu_part(m, ib)

    def test_negative_work_rejected(self):
        with pytest.raises(SimulationError):
            self.cm._roofline(paper_testbed().gpu, -1.0, 0.0, 0)

    def test_hessenberg_rate_calibration(self):
        """DESIGN.md calibration target: the modeled baseline tops out in
        the 140-190 GFLOPS range at the paper's largest size."""
        from repro.core import HybridConfig, hybrid_gehrd

        res = hybrid_gehrd(10110, HybridConfig(nb=32))
        assert 140.0 < res.gflops < 190.0

    def test_rate_increases_with_n(self):
        from repro.core import HybridConfig, hybrid_gehrd

        rates = [
            hybrid_gehrd(n, HybridConfig(nb=32)).gflops
            for n in (1022, 4030, 10110)
        ]
        assert rates[0] < rates[1] < rates[2]
