"""Kernel cost model — converts operation shapes into device seconds.

The model follows the standard roofline shape: a kernel takes
``max(compute time, memory time)`` where compute time uses a
size-dependent efficiency ramp (small inner dimensions cannot saturate
the device) and memory time charges every operand touched once.

Calibration targets the *shape* of the paper's Fig. 6: the hybrid
Hessenberg reduction on the Table I machine tops out around 160–170
GFLOPS at N≈10000, limited by the memory-bound panel GEMVs (the known
character of Hessenberg reduction, ~20% of its flops are level-2 BLAS).
Absolute numbers are model outputs; the FT-vs-baseline overhead ratios —
the paper's claims — depend only on relative kernel costs and the overlap
structure, which the event engine reproduces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.hybrid.machine import DeviceSpec, MachineSpec

_DTYPE_BYTES = 8  # float64 everywhere


@dataclass(frozen=True)
class CostModel:
    """Timing oracle for the kernels the hybrid drivers schedule.

    Parameters
    ----------
    machine:
        The machine model supplying peaks, bandwidths and the link.
    gemm_eff_max:
        Asymptotic fraction of peak a large GEMM reaches.
    gemm_k_half:
        Inner dimension at which GEMM efficiency reaches half of max
        (the ramp ``eff = eff_max * k / (k + k_half)``); GPUs need much
        larger k than CPUs to fill their pipelines.
    cpu_eff_max, cpu_k_half:
        Same ramp for the host BLAS.
    """

    machine: MachineSpec
    gemm_eff_max: float = 0.85
    gemm_k_half: float = 48.0
    cpu_eff_max: float = 0.90
    cpu_k_half: float = 8.0

    # -- internals ----------------------------------------------------------

    def _eff(self, dev: DeviceSpec, inner: int) -> float:
        # inner <= 0 marks level-1/2 kernels: no pipeline ramp applies —
        # they run at full compute rate but are memory-bandwidth bound.
        if inner <= 0:
            return 1.0
        if dev.kind == "gpu":
            return self.gemm_eff_max * inner / (inner + self.gemm_k_half)
        return self.cpu_eff_max * inner / (inner + self.cpu_k_half)

    def _roofline(self, dev: DeviceSpec, flops: float, nbytes: float, inner: int) -> float:
        if flops < 0 or nbytes < 0:
            raise SimulationError(f"negative work: flops={flops}, bytes={nbytes}")
        t_compute = flops / (dev.peak_gflops * 1e9 * self._eff(dev, inner))
        t_memory = nbytes / (dev.mem_bandwidth_gbs * 1e9)
        return max(t_compute, t_memory)

    # -- kernels --------------------------------------------------------------

    def gemm(self, device: str, m: int, n: int, k: int) -> float:
        """``C ← A·B + C`` with A (m x k), B (k x n)."""
        dev = self.machine.device(device)
        flops = 2.0 * m * n * k
        nbytes = _DTYPE_BYTES * (m * k + k * n + 2.0 * m * n)
        return self._roofline(dev, flops, nbytes, min(m, n, k))

    def gemv(self, device: str, m: int, n: int) -> float:
        """Matrix-vector product — memory bound by the matrix sweep."""
        dev = self.machine.device(device)
        flops = 2.0 * m * n
        nbytes = _DTYPE_BYTES * (m * n + m + n)
        return self._roofline(dev, flops, nbytes, 0)

    def larfb(self, device: str, m: int, n: int, k: int) -> float:
        """Block-reflector application = two GEMMs + a TRMM."""
        return self.gemm(device, k, n, m) + self.gemm(device, m, n, k)

    def reduction(self, device: str, n: int) -> float:
        """Sum-reduction of an n-vector."""
        dev = self.machine.device(device)
        return self._roofline(dev, float(n), _DTYPE_BYTES * float(n), 0)

    def dot(self, device: str, n: int) -> float:
        dev = self.machine.device(device)
        return self._roofline(dev, 2.0 * n, 2.0 * _DTYPE_BYTES * n, 0)

    def copy(self, nbytes: float) -> float:
        """Host↔device transfer over the link."""
        return self.machine.link.transfer_seconds(nbytes)

    # -- composite: the Hessenberg panel (MAGMA_DLAHR2) ----------------------

    def panel_gpu_part(self, m: int, ib: int) -> float:
        """GPU share of the hybrid panel: the per-column trailing GEMVs.

        In MAGMA's hybrid DLAHR2 [Tomov & Dongarra, UT-CS-09-642 — the
        paper's ref 26] the large matrix-vector products
        ``Y(:, j) = A(:, j+1:) v`` run on the GPU; this is the dominant,
        memory-bound share of the panel (and of the whole reduction).
        """
        return _panel_gpu_part(self, m, ib)

    def panel_cpu_part(self, m: int, ib: int) -> float:
        """Host share of the hybrid panel: reflector generation and the
        small triangular/skinny updates, ~O(m·ib²) level-2 work."""
        dev = self.machine.cpu
        flops = 6.0 * m * ib * ib
        nbytes = _DTYPE_BYTES * (4.0 * m * ib)
        return self._roofline(dev, flops, nbytes, ib)

    def panel_sync_overhead(self, ib: int) -> float:
        """Per-column CPU↔GPU ping-pong latencies inside the panel."""
        return 2.0 * ib * self.machine.link.latency_us * 1e-6


@functools.lru_cache(maxsize=4096)
def _panel_gpu_part(cost: CostModel, m: int, ib: int) -> float:
    # a per-column sum every run repeats for the same (m, ib) shapes;
    # cached per model (frozen, so hashable) with the summation order kept
    total = 0.0
    for j in range(ib):
        total += cost.gemv("gpu", m, max(m - j, 1))
    return total
