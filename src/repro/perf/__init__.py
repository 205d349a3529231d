"""Throughput layer: workspace pooling for the functional hot path.

The paper's thesis is that ABFT protection costs almost nothing on top of
the blocked reduction — which only holds if the kernels themselves waste
nothing. This package supplies the engineering discipline FT-GEMM-style
implementations use on real hardware, transplanted to the NumPy layer:

* :class:`~repro.perf.workspace.Workspace` — a per-driver scratch arena
  that pre-sizes and reuses the V/Y/T/checksum buffers across iterations,
  so no per-iteration allocation survives in the O(n²)-per-iteration path;
* :mod:`~repro.perf.reference` — the frozen pre-pooling kernels, kept as
  the golden reference for the equivalence tests.
"""

from repro.perf.workspace import Workspace, process_workspace

__all__ = ["Workspace", "process_workspace"]
