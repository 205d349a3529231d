"""Soft-error injection (the paper's experimental methodology, widened
to an adversarial fault surface).

Faults are *planned* as :class:`FaultSpec` records — which element of
which memory space, at which iteration and **phase**, corrupted how —
and *applied* by the drivers through a :class:`FaultInjector` hook.
The paper's protocol only strikes the encoded matrix at iteration
boundaries ("the soft error is injected when the first iteration has
finished, and the second iteration has not yet started"); the widened
model also targets the FT machinery itself — the diskless checkpoint
buffer, the tau scalars, the live Householder block V and the
Q-protection checksums — and can strike *inside* an iteration or while
recovery is running (the Bosilca et al. critique: checksum state must
survive the faults it guards against).

Corruption models:

* ``"add"``   — add a signed magnitude (the analytical default; its
  detectability is magnitude-controlled),
* ``"set"``   — overwrite with a value,
* ``"bitflip"`` — flip one bit of the IEEE-754 representation (the
  physical model: an SEU in DRAM).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultConfigError
from repro.abft.encoding import EncodedMatrix

#: Memory spaces a fault can strike. The ``qr_*`` spaces belong to the
#: Francis QR stage (:mod:`repro.eigen.ft_hqr`); their ``iteration``
#: indexes the QR driver's outer-step clock, not the blocked reduction.
SPACES = (
    "matrix",
    "row_checksum",
    "col_checksum",
    "checkpoint",
    "tau",
    "panel_v",
    "q_checksum",
    "qr_matrix",
    "qr_z",
    "qr_shift",
    "qr_deflation",
    "qr_checkpoint",
)
#: Moments within a blocked-reduction iteration a fault can strike.
REDUCTION_PHASES = ("boundary", "post_panel", "post_right", "during_recovery")
#: Moments within a QR outer step a fault can strike. ``during_recovery``
#: is shared with the reduction: the strike lands at recovery entry of
#: whichever stage owns the space.
QR_PHASES = ("pre_sweep", "post_sweep", "shift", "during_recovery")
#: Every known phase.
PHASES = REDUCTION_PHASES + ("pre_sweep", "post_sweep", "shift")
KINDS = ("add", "set", "bitflip")

#: Which phases make sense per space. The checkpoint buffer and the live
#: V block do not exist yet at an iteration boundary (the checkpoint is
#: about to be overwritten by the new save; V is produced by the panel
#: factorization), so planning them there is a configuration error.
#: The shift pair only exists while a sweep's shifts are being computed,
#: and the deflation test reads the iterating matrix before the sweep.
SPACE_PHASES = {
    "matrix": REDUCTION_PHASES,
    "row_checksum": REDUCTION_PHASES,
    "col_checksum": REDUCTION_PHASES,
    "checkpoint": ("post_panel", "post_right", "during_recovery"),
    "tau": REDUCTION_PHASES,
    "panel_v": ("post_panel", "post_right", "during_recovery"),
    "q_checksum": REDUCTION_PHASES,
    "qr_matrix": QR_PHASES,
    "qr_z": QR_PHASES,
    "qr_shift": ("shift",),
    "qr_deflation": ("pre_sweep",),
    "qr_checkpoint": ("pre_sweep", "post_sweep", "during_recovery"),
}

#: The memory spaces owned by the QR stage (used by drivers to split a
#: mixed fault plan between the reduction and the eigen stage).
QR_SPACES = tuple(s for s in SPACES if s.startswith("qr_"))


def flip_bit(x: float, bit: int) -> float:
    """Flip one bit (0 = LSB of mantissa … 63 = sign) of a float64."""
    if not (0 <= bit < 64):
        raise FaultConfigError(f"bit index must be in [0, 64), got {bit}")
    (as_int,) = struct.unpack("<Q", struct.pack("<d", float(x)))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", as_int ^ (1 << bit)))
    return flipped


@dataclass(frozen=True)
class FaultSpec:
    """One planned soft error.

    Attributes
    ----------
    iteration:
        0-based blocked-iteration index; boundary faults are applied at
        the *start* of this iteration (= the previous iteration's
        boundary), other phases strike inside it.
    row, col:
        Target element. For ``space="row_checksum"`` only *row* is used;
        for ``space="col_checksum"`` only *col*; for ``space="tau"``
        *row* indexes the tau array; for ``space="q_checksum"`` set
        ``col=-1`` to hit ``Qr_chk[row]`` or ``row=-1`` to hit
        ``Qc_chk[col]``; for ``space="checkpoint"`` / ``"panel_v"`` the
        indices address the buffer itself. For the QR spaces:
        ``qr_matrix``/``qr_z``/``qr_checkpoint`` address the iterating
        matrix, the Schur-vector matrix and the checkpoint's saved T;
        ``qr_deflation`` uses *row* alone to strike the subdiagonal
        entry ``T[row, row-1]`` the deflation test reads; ``qr_shift``
        uses ``row`` 0/1 to hit the live (trace, det) shift pair.
    kind, magnitude, bit:
        Corruption model parameters (*magnitude* for add/set, *bit* for
        bitflip).
    space, phase, channel:
        Memory space, injection moment, and (for checksum spaces with
        ``channels >= 2``) which weight channel to corrupt.
    """

    iteration: int
    row: int
    col: int
    kind: str = "add"
    magnitude: float = 1.0
    bit: int = 52
    space: str = "matrix"
    phase: str = "boundary"
    channel: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultConfigError(f"unknown fault kind {self.kind!r}")
        if self.space not in SPACES:
            raise FaultConfigError(f"unknown fault space {self.space!r}")
        if self.phase not in PHASES:
            raise FaultConfigError(f"unknown fault phase {self.phase!r}")
        if self.phase not in SPACE_PHASES[self.space]:
            raise FaultConfigError(
                f"space {self.space!r} cannot be struck at phase {self.phase!r} "
                f"(valid: {SPACE_PHASES[self.space]})"
            )
        if self.iteration < 0:
            raise FaultConfigError(f"iteration must be >= 0, got {self.iteration}")
        if self.channel < 0:
            raise FaultConfigError(f"channel must be >= 0, got {self.channel}")
        if self.space == "q_checksum" and (self.row == -1) == (self.col == -1):
            raise FaultConfigError(
                "q_checksum faults need exactly one of row/col set to -1 "
                f"(got row={self.row}, col={self.col})"
            )

    def corrupt(self, value: float) -> float:
        if self.kind == "add":
            return value + self.magnitude
        if self.kind == "set":
            return self.magnitude
        return flip_bit(value, self.bit)


@dataclass
class InjectionTargets:
    """Live state an injection phase can corrupt.

    A driver may keep one for a whole run (the FT driver re-points
    ``panel_v`` at each iteration's V); only the spaces whose targets are
    present can be struck (asking for an absent target is a
    :class:`~repro.errors.FaultConfigError` — the plan addressed state
    the driver does not expose at that phase).
    """

    em: EncodedMatrix | None = None
    ext: np.ndarray | None = None  # raw (n+k)x(n+k) storage when em is None
    n: int = 0
    k: int = 1
    taus: np.ndarray | None = None
    qprot: object | None = None       # QProtector (qr_chk / qc_chk vectors)
    checkpoint: object | None = None  # DisklessCheckpointStore (.current.panel)
    panel_v: np.ndarray | None = None  # live V block of the running iteration
    qr_t: np.ndarray | None = None    # iterating quasi-triangular matrix (QR stage)
    qr_z: np.ndarray | None = None    # accumulated Schur vectors (QR stage)
    qr_shift: np.ndarray | None = None  # live [trace, det] double-shift pair
    qr_checkpoint: object | None = None  # QRCheckpointStore (.current.t buffer)

    def __post_init__(self) -> None:
        if self.em is not None:
            self.ext = self.em.ext
            self.n = self.em.n
            self.k = self.em.k


@dataclass
class InjectionRecord:
    """What actually happened when a fault was applied."""

    spec: FaultSpec
    old_value: float
    new_value: float


def _site(f: FaultSpec, t: InjectionTargets) -> tuple[np.ndarray | None, tuple[int, ...]]:
    """Where *f* strikes: its space's live array in *t*, as a view over
    that space alone (None when this injection point does not expose
    it), and the struck element's index into that view."""
    space, n, ext = f.space, t.n, t.ext
    if space == "matrix":
        return (None if ext is None else ext[:n, :n]), (f.row, f.col)
    if space == "row_checksum":
        return (None if ext is None else ext[:n, n : n + t.k]), (f.row, f.channel)
    if space == "col_checksum":
        return (None if ext is None else ext[n : n + t.k, :n]), (f.channel, f.col)
    if space == "tau":
        return t.taus, (f.row,)
    if space == "panel_v":
        return t.panel_v, (f.row, f.col)
    if space == "q_checksum":
        if t.qprot is None:
            return None, ()
        return (t.qprot.qr_chk, (f.row,)) if f.col == -1 else (t.qprot.qc_chk, (f.col,))
    if space == "checkpoint":
        cp = getattr(t.checkpoint, "current", None)
        return (None if cp is None else cp.panel), (f.row, f.col)
    if space == "qr_matrix":
        return t.qr_t, (f.row, f.col)
    if space == "qr_deflation":  # the subdiagonal entry the deflation test reads
        return t.qr_t, (f.row, f.row - 1)
    if space == "qr_z":
        return t.qr_z, (f.row, f.col)
    if space == "qr_shift":
        return t.qr_shift, (f.row,)
    cp = getattr(t.qr_checkpoint, "current", None)  # qr_checkpoint
    return (None if cp is None else cp.t), (f.row, f.col)


@dataclass
class FaultInjector:
    """Applies planned faults at their (iteration, phase) strike points.

    Drivers call :meth:`apply_phase` at each hook. The injector is
    idempotent per fault (each spec fires once) and records old/new
    values so tests can verify exact recovery.
    """

    faults: list[FaultSpec] = field(default_factory=list)
    injected: list[InjectionRecord] = field(default_factory=list)
    _fired: set[int] = field(default_factory=set)

    def add(self, spec: FaultSpec) -> "FaultInjector":
        self.faults.append(spec)
        return self

    def pending(self, iteration: int) -> list[FaultSpec]:
        """Faults scheduled for this iteration that have not fired yet."""
        return [
            f
            for idx, f in enumerate(self.faults)
            if f.iteration == iteration and idx not in self._fired
        ]

    def pending_after(self, iteration: int) -> list[FaultSpec]:
        """Faults scheduled at or after this iteration (end-of-run injection
        uses ``iteration >= iteration_count``)."""
        return [
            f
            for idx, f in enumerate(self.faults)
            if f.iteration >= iteration and idx not in self._fired
        ]

    def unfired(self) -> list[FaultSpec]:
        """Every planned fault that never struck."""
        return [f for idx, f in enumerate(self.faults) if idx not in self._fired]

    # -- application -------------------------------------------------------

    def _fire(self, idx: int, f: FaultSpec, t: InjectionTargets) -> InjectionRecord:
        """Strike planned fault *idx* into *t* and mark it fired."""
        view, at = _site(f, t)
        if view is None:
            raise FaultConfigError(
                f"{f.space} fault planned at phase {f.phase!r}, but this "
                "injection point does not expose that space"
            )
        if not all(0 <= i < size for i, size in zip(at, view.shape)):
            raise FaultConfigError(
                f"{f.space} fault target {at} out of range for its "
                f"{view.shape} space"
            )
        old = float(view[at])
        new = f.corrupt(old)
        view[at] = new
        rec = InjectionRecord(spec=f, old_value=old, new_value=new)
        self.injected.append(rec)
        self._fired.add(idx)
        return rec

    def apply_phase(
        self, iteration: int, phase: str, targets: InjectionTargets
    ) -> list[InjectionRecord]:
        """Fire every unfired fault planned for (*iteration*, *phase*)."""
        records = []
        for idx, f in enumerate(self.faults):
            if f.iteration == iteration and f.phase == phase and idx not in self._fired:
                records.append(self._fire(idx, f, targets))
        return records

    def apply_due(
        self, iteration: int, phase: str, targets: InjectionTargets
    ) -> list[InjectionRecord]:
        """Fire every unfired *phase* fault planned at or before *iteration*.

        Phases that only occur when the driver takes a particular path
        (a recovery entry, a sweep that computes shifts) cannot promise
        an exact-iteration match — a recovery at step 12 must still honor
        a ``during_recovery`` plan for step 10 whose detection lagged to
        the next verification point. Exact-phase hooks keep using
        :meth:`apply_phase`."""
        records = []
        for idx, f in enumerate(self.faults):
            if f.phase == phase and f.iteration <= iteration and idx not in self._fired:
                records.append(self._fire(idx, f, targets))
        return records

    def apply_pending_after(
        self, targets: InjectionTargets, iteration: int
    ) -> list[InjectionRecord]:
        """End-of-run injection: fire *every* unfired fault planned at or
        past *iteration*, whatever its phase — a fault planned after the
        last iteration strikes the finished state. Specs whose memory
        space no longer exists at the end of the run (e.g. the live V
        block) are left unfired for the caller's never-fired warning."""
        records = []
        for idx, f in enumerate(self.faults):
            if (f.iteration >= iteration and idx not in self._fired
                    and _site(f, targets)[0] is not None):
                records.append(self._fire(idx, f, targets))
        return records

    def apply_to_array(self, a: np.ndarray, iteration: int) -> list[InjectionRecord]:
        """Corrupt a plain (unencoded) matrix — used against the baseline
        driver for the propagation experiments (Fig. 2)."""
        targets = InjectionTargets(ext=a, n=a.shape[0])
        records = []
        for idx, f in enumerate(self.faults):
            if f.iteration == iteration and f.space == "matrix" and idx not in self._fired:
                records.append(self._fire(idx, f, targets))
        return records

    @property
    def count_fired(self) -> int:
        return len(self._fired)
