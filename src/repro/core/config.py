"""Configuration objects for the hybrid and fault-tolerant drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abft.detection import ThresholdPolicy
from repro.errors import ShapeError
from repro.hybrid.machine import MachineSpec, paper_testbed
from repro.linalg.gehrd import DEFAULT_NB
from repro.resilience.ladder import LadderConfig


@dataclass
class HybridConfig:
    """Settings shared by Algorithm 2 and Algorithm 3 drivers.

    Attributes
    ----------
    nb:
        Panel width (the paper uses 32 throughout).
    machine:
        Simulated machine; defaults to the paper's Table I testbed.
    """

    nb: int = DEFAULT_NB
    machine: MachineSpec = field(default_factory=paper_testbed)

    def validate(self, n: int) -> None:
        if self.nb < 1:
            raise ShapeError(f"nb must be >= 1, got {self.nb}")
        if n < 2:
            raise ShapeError(f"matrix order must be >= 2, got {n}")


@dataclass
class FTConfig(HybridConfig):
    """Extra knobs of the fault-tolerant driver (Algorithm 3).

    Attributes
    ----------
    threshold:
        Detection threshold policy (paper: eps x 10^2..10^3).
    overlap_q_checksums:
        Schedule the Q-checksum GEMVs on the idle CPU under the GPU
        update (paper's trick) instead of on the critical path
        (the ablation's serialized variant).
    channels:
        Number of checksum weight channels. 1 = the paper's unit
        encoding; 2 adds Huang-Abraham linear weights, enabling
        ratio-based location that decodes multi-error patterns the unit
        scheme cannot (at ~2x the checksum-maintenance cost, still
        O(N²) total).
    ladder:
        Budgets for the recovery escalation ladder (in-place correct →
        reverse+redo → deep rollback → full diskless restart); see
        :class:`~repro.resilience.ladder.LadderConfig`. Each iteration
        may be re-executed :data:`~repro.resilience.ladder.MAX_RETRIES`
        times in a row before the ladder skips to the restart tier.
    audit_every:
        0 (paper-faithful default) disables the extension; k > 0 runs a
        full fresh-vs-maintained checksum audit every k iterations and
        at the end, closing the paper's one silent-corruption hole — the
        finished-H region, which the Σ test cannot see because its
        corruption never feeds a maintained update. Costs O(N²) per
        audit. Finished-H errors never propagate, so the audit corrects
        them in place without any rollback.
    """

    threshold: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    overlap_q_checksums: bool = True
    channels: int = 1
    audit_every: int = 0
    ladder: LadderConfig = field(default_factory=LadderConfig)
