"""Simulated GPU-based hybrid machine (DESIGN.md substitution for the
paper's K40c testbed): machine models, kernel cost model, discrete-event
scheduling engine, timeline analysis and the runtime that prices a
driver's schedule in simulated time."""

from repro.hybrid.machine import DeviceSpec, LinkSpec, MachineSpec, paper_testbed, laptop_sim
from repro.hybrid.perfmodel import CostModel
from repro.hybrid.engine import SimEngine, SimOp, DEFAULT_RESOURCES
from repro.hybrid.trace import Timeline, ResourceSummary
from repro.hybrid.runtime import HybridRuntime

__all__ = [
    "DeviceSpec",
    "LinkSpec",
    "MachineSpec",
    "paper_testbed",
    "laptop_sim",
    "CostModel",
    "SimEngine",
    "SimOp",
    "DEFAULT_RESOURCES",
    "Timeline",
    "ResourceSummary",
    "HybridRuntime",
]
