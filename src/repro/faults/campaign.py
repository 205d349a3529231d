"""Fault-injection campaigns: sweeps over areas, moments and sizes.

A campaign runs the FT driver repeatedly under a grid of fault plans and
aggregates recovery outcomes — the machinery behind the Fig. 6
uncertainty bands and the recovery-coverage tests.

Two grid builders:

* :func:`build_fault_grid` — the paper's protocol: one matrix fault per
  (area × moment) cell, struck at an iteration boundary;
* :func:`build_adversarial_grid` — the widened surface: every fault
  space (matrix, both checksum banks, the checkpoint buffer, the tau
  scalars, the live V block, the Q checksums) × every phase that space
  supports, including faults *during recovery* (which ride along with a
  boundary trigger fault so that recovery is actually running when they
  strike).

The grid is generated up front (one RNG, one draw order) and executed by
:mod:`repro.faults.executor`, serially or across a process pool; the
trial list is identical either way, which is what makes the on-disk
journal's grid-index keying sound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.faults.executor import (
    OUTCOMES,
    EigTrialConfig,
    TrialOutcome,
    choose_execution_mode,
    run_ft_trials,
    run_one_eig_trial,
    spectrum_distance,
)
from repro.faults.injector import QR_SPACES, SPACE_PHASES, SPACES, FaultSpec
from repro.faults.journal import CampaignJournal, grid_fingerprint
from repro.faults.regions import finished_cols_at, iteration_count, sample_in_area
from repro.utils.rng import make_rng
from repro.utils.shm import hash_update_array

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.core.config import FTConfig

__all__ = [
    "TrialOutcome",
    "CampaignResult",
    "build_fault_grid",
    "build_adversarial_grid",
    "build_eig_adversarial_grid",
    "baseline_residual",
    "baseline_spectrum",
    "run_campaign",
    "run_eig_campaign",
]

#: The spaces the blocked reduction owns — the adversarial reduction
#: grid defaults to these; the ``qr_*`` spaces belong to the eigensolver
#: campaign (:func:`build_eig_adversarial_grid`).
REDUCTION_SPACES = tuple(s for s in SPACES if s not in QR_SPACES)


@dataclass
class CampaignResult:
    """Aggregate over a campaign's trials."""

    n: int
    nb: int
    trials: list[TrialOutcome] = field(default_factory=list)
    baseline_residual: float = 0.0
    resumed: int = 0  # trials replayed from a journal instead of re-run
    # where the pending trials executed: "serial" (in-process sweep) or
    # "pool" (process fan-out) — see executor.choose_execution_mode
    execution_mode: str = "serial"

    @property
    def recovery_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.recovered for t in self.trials) / len(self.trials)

    @property
    def worst_residual(self) -> float:
        return max((t.residual for t in self.trials), default=0.0)

    def by_area(self, area: int) -> list[TrialOutcome]:
        return [t for t in self.trials if t.area == area]

    def by_outcome(self, outcome: str) -> list[TrialOutcome]:
        return [t for t in self.trials if t.outcome == outcome]

    @property
    def outcome_counts(self) -> dict[str, int]:
        counts = {o: 0 for o in OUTCOMES}
        for t in self.trials:
            counts[t.outcome] = counts.get(t.outcome, 0) + 1
        return counts


def build_fault_grid(
    n: int,
    nb: int,
    *,
    areas: tuple[int, ...] = (1, 2, 3),
    moments: int = 4,
    seed: int = 0,
    magnitude: float = 1.0,
) -> list[tuple[FaultSpec, int]]:
    """The campaign's (spec, area) task grid — one fault per cell.

    Deterministic in its arguments: a single RNG drawn in a fixed
    area-major order, so the grid (and therefore every trial) is
    identical no matter how many workers later execute it.
    """
    rng = make_rng(seed)
    total = iteration_count(n, nb)
    tasks: list[tuple[FaultSpec, int]] = []
    for area in areas:
        for k in range(moments):
            frac = k / max(moments - 1, 1)
            it = int(round(frac * (total - 1)))
            it = max(it, 1) if area == 3 else min(it, total - 1)
            p = finished_cols_at(it, n, nb)
            i, j = sample_in_area(area, p, n, rng)
            tasks.append((FaultSpec(iteration=it, row=i, col=j, magnitude=magnitude), area))
    return tasks


def _adversarial_target(
    space: str,
    phase: str,
    rng: np.random.Generator,
    *,
    n: int,
    p: int,
    ib: int,
    channels: int,
    flip: bool,
) -> dict:
    """Draw (row, col, channel) aimed at the live, consequential part of
    *space* at an iteration with ``p`` finished columns.

    "Live" excludes state this very iteration retires: a fault planned
    after the panel factorization does not land in the panel columns
    ``[p, p+ib)``. A strike on their column checksums is overwritten
    when the retiring panel refreezes them. A strike on their matrix
    entries is not harmless, though the detector misses it: they become
    finished H, which the Σ test never reads again, and reflector
    storage, which ``orghr`` reads. The panel's Q checksums are taken
    after the detector, so a struck V is recorded as truth and the run
    returns a wrong Q. Both holes are left to an output check; the
    recovery campaign does not grade them."""
    if space == "matrix":
        if phase == "boundary":
            i, j = sample_in_area(2, p, n, rng)  # full-propagation region
            return {"row": i, "col": j}
        return {
            "row": int(rng.integers(p + 1, n)),
            "col": int(rng.integers(p + ib, n)),
        }
    if space == "row_checksum":
        return {
            "row": int(rng.integers(0, n)),
            "col": 0,
            "channel": int(rng.integers(0, channels)),
        }
    if space == "col_checksum":
        # columns still live after this iteration; the panel columns'
        # checksums freeze into never-read scratch when the panel retires
        return {
            "row": 0,
            "col": int(rng.integers(p + ib, n)),
            "channel": int(rng.integers(0, channels)),
        }
    if space == "checkpoint":
        # the buffer snapshots all N rows of the ib panel columns
        return {"row": int(rng.integers(0, n)), "col": int(rng.integers(0, ib))}
    if space == "tau":
        # a finished reflector scalar (shadow-repairable; p >= 1 by clamp)
        return {"row": int(rng.integers(0, p)), "col": 0}
    if space == "panel_v":
        return {"row": int(rng.integers(0, n - p - 1)), "col": int(rng.integers(0, ib))}
    if space == "q_checksum":
        if flip:  # alternate between the two checksum vectors
            return {"row": int(rng.integers(2, n)), "col": -1}
        return {"row": -1, "col": int(rng.integers(0, p))}
    raise ValueError(f"unknown space {space!r}")  # pragma: no cover


def build_adversarial_grid(
    n: int,
    nb: int,
    *,
    spaces: tuple[str, ...] | None = None,
    phases: tuple[str, ...] | None = None,
    moments: int = 3,
    seed: int = 0,
    magnitude: float = 1.0,
    channels: int = 2,
) -> list[tuple[tuple[FaultSpec, ...], int]]:
    """Task grid over the widened fault surface: spaces × phases × moments.

    Each task's plan is a tuple of specs. Most plans hold one fault; two
    classes ride along with a **trigger** — a detectable boundary matrix
    fault in the trailing block at the same iteration:

    * ``during_recovery`` faults (any space): without a detection there
      is no recovery for them to strike during;
    * ``checkpoint`` faults (any phase): the buffer is only ever *read*
      by a recovery's restore — an unread corruption is vacuously masked.

    The adversarial spec is first in the plan, so ``TrialOutcome.spec``
    identifies the trial by the fault under study, not its trigger.
    Matrix-space trials carry area 2 (they are drawn from the
    full-propagation region); FT-machinery spaces carry area 0 — they
    live outside the paper's Fig. 2 partition of the matrix itself.
    """
    spaces = tuple(spaces) if spaces is not None else REDUCTION_SPACES
    total = iteration_count(n, nb)
    rng = make_rng(seed)
    tasks: list[tuple[tuple[FaultSpec, ...], int]] = []
    flip = False
    for space in spaces:
        space_phases = SPACE_PHASES[space]
        # the gehrd driver does not expose the live V block at the
        # recovery hook, so a during_recovery panel_v plan cannot fire
        if space == "panel_v":
            space_phases = tuple(ph for ph in space_phases if ph != "during_recovery")
        use_phases = (
            space_phases
            if phases is None
            else tuple(ph for ph in phases if ph in space_phases)
        )
        for phase in use_phases:
            for k in range(moments):
                frac = k / max(moments - 1, 1)
                # clamp >= 1: every space needs at least one finished
                # panel (taus, q columns) or a live trailing block
                it = min(max(int(round(frac * (total - 1))), 1), total - 1)
                p = finished_cols_at(it, n, nb)
                ib = min(nb, n - 1 - p)
                target = _adversarial_target(
                    space, phase, rng, n=n, p=p, ib=ib, channels=channels, flip=flip
                )
                if space == "q_checksum":
                    flip = not flip
                spec = FaultSpec(
                    iteration=it,
                    kind="add",
                    magnitude=magnitude,
                    space=space,
                    phase=phase,
                    **target,
                )
                plan = [spec]
                if phase == "during_recovery" or space == "checkpoint":
                    ti, tj = sample_in_area(2, p, n, rng)
                    plan.append(
                        FaultSpec(iteration=it, row=ti, col=tj, magnitude=magnitude)
                    )
                area = 2 if space == "matrix" else 0
                tasks.append((tuple(plan), area))
    return tasks


def _eig_adversarial_target(
    space: str, rng: np.random.Generator, *, n: int
) -> dict:
    """Draw a target inside the live part of a QR-stage *space*.

    ``qr_matrix``/``qr_checkpoint`` strikes land in the Hessenberg
    envelope (``col >= row - 1``) — the entries the iteration actually
    carries; an off-envelope strike would test the structural guard
    rather than the invariant drift. ``qr_z`` is dense. ``qr_shift``
    indexes the live ``[trace, det]`` pair, ``qr_deflation`` the
    subdiagonal entry the deflation test reads."""
    if space in ("qr_matrix", "qr_checkpoint"):
        i = int(rng.integers(0, n))
        return {"row": i, "col": int(rng.integers(max(i - 1, 0), n))}
    if space == "qr_z":
        return {"row": int(rng.integers(0, n)), "col": int(rng.integers(0, n))}
    if space == "qr_shift":
        return {"row": int(rng.integers(0, 2)), "col": 0}
    if space == "qr_deflation":
        return {"row": int(rng.integers(1, n)), "col": 0}
    raise ValueError(f"unknown QR space {space!r}")  # pragma: no cover


def build_eig_adversarial_grid(
    n: int,
    *,
    spaces: tuple[str, ...] | None = None,
    phases: tuple[str, ...] | None = None,
    moments: int = 3,
    seed: int = 0,
    magnitude: float = 1.0,
) -> list[tuple[tuple[FaultSpec, ...], int]]:
    """Task grid over the QR stage's fault surface: spaces × phases × moments.

    The eigensolver analogue of :func:`build_adversarial_grid`: every
    ``qr_*`` space × every phase it supports, struck at ``moments`` ticks
    spread over the early outer steps (the iteration runs ~1.5·n steps;
    ticks stay within ``[1, n-2]`` so each planned phase genuinely
    occurs — a fault planned past convergence would strike the finished
    state instead of the phase under study). Two plan classes ride along
    with a **trigger** — a detectable ``qr_matrix`` fault at the same
    tick — exactly as in the reduction grid:

    * ``during_recovery`` faults: no detection, no recovery to strike;
    * ``qr_checkpoint`` faults (any phase): the parked buffer is only
      read by a rollback's restore — an unread corruption is vacuously
      masked.

    ``qr_matrix`` trials carry area 2 (they corrupt the operand the
    paper's Fig. 2 partition would call full-propagation); the QR
    machinery spaces carry area 0.
    """
    spaces = tuple(spaces) if spaces is not None else QR_SPACES
    rng = make_rng(seed)
    tasks: list[tuple[tuple[FaultSpec, ...], int]] = []
    last_tick = max(n - 2, 1)
    for space in spaces:
        space_phases = SPACE_PHASES[space]
        use_phases = (
            space_phases
            if phases is None
            else tuple(ph for ph in phases if ph in space_phases)
        )
        for phase in use_phases:
            for k in range(moments):
                frac = k / max(moments - 1, 1)
                it = min(max(int(round(frac * last_tick)), 1), last_tick)
                target = _eig_adversarial_target(space, rng, n=n)
                spec = FaultSpec(
                    iteration=it,
                    kind="add",
                    magnitude=magnitude,
                    space=space,
                    phase=phase,
                    **target,
                )
                plan = [spec]
                if phase == "during_recovery" or space == "qr_checkpoint":
                    ti = int(rng.integers(0, n))
                    tj = int(rng.integers(max(ti - 1, 0), n))
                    plan.append(
                        FaultSpec(
                            iteration=it,
                            row=ti,
                            col=tj,
                            magnitude=magnitude,
                            space="qr_matrix",
                            phase="pre_sweep",
                        )
                    )
                area = 2 if space == "qr_matrix" else 0
                tasks.append((tuple(plan), area))
    return tasks


# Fault-free reference residuals, keyed by (n, nb, channels, sha1(A)).
# Campaigns over the same input share one clean run instead of paying
# an extra factorization each.
_BASELINE_CACHE: dict[tuple, float] = {}


def baseline_residual(a: np.ndarray, cfg: "FTConfig") -> float:
    """Table II residual of a fault-free FT run on *a* (memoized)."""
    from repro.core.ft_hessenberg import ft_gehrd
    from repro.linalg.orghr import orghr
    from repro.linalg.verify import extract_hessenberg, factorization_residual

    h = hashlib.sha1()
    hash_update_array(h, a)  # zero-copy for contiguous inputs
    digest = h.hexdigest()
    key = (a.shape[0], cfg.nb, cfg.channels, digest)
    cached = _BASELINE_CACHE.get(key)
    if cached is not None:
        return cached
    ft = ft_gehrd(a, cfg)
    q = orghr(ft.a, ft.taus)
    h = extract_hessenberg(ft.a)
    residual = factorization_residual(a, q, h)
    _BASELINE_CACHE[key] = residual
    return residual


#: Fault-free reference spectra, keyed like the residual cache plus the
#: QR knobs that change the sweep sequence.
_SPECTRUM_CACHE: dict[tuple, np.ndarray] = {}


def baseline_spectrum(a: np.ndarray, cfg: "FTConfig", qr_cfg) -> np.ndarray:
    """Eigenvalues of the fault-free protected pipeline on *a* (memoized).

    This is the reference a corrected trial must reproduce: the clean
    run of the *same* pipeline, not an external solver — a rollback
    replay is bit-identical, so equality against this reference is the
    sharpest possible grade.
    """
    from repro.core.ft_hessenberg import ft_gehrd
    from repro.eigen.ft_hqr import ft_hqr
    from repro.linalg.verify import extract_hessenberg

    h = hashlib.sha1()
    hash_update_array(h, a)
    key = (
        a.shape[0],
        cfg.nb,
        cfg.channels,
        h.hexdigest(),
        qr_cfg.verify_every,
        qr_cfg.max_sweeps_per_eig,
        qr_cfg.want_z,
    )
    cached = _SPECTRUM_CACHE.get(key)
    if cached is not None:
        return cached
    ft = ft_gehrd(a, cfg)
    hess = extract_hessenberg(ft.a)
    fr = ft_hqr(hess, qr_cfg, check_input=False)
    _SPECTRUM_CACHE[key] = fr.eigvals
    return fr.eigvals


def run_campaign(
    a: np.ndarray,
    *,
    nb: int = 32,
    areas: tuple[int, ...] = (1, 2, 3),
    moments: int = 4,
    seed: int = 0,
    magnitude: float = 1.0,
    residual_tol: float | None = None,
    config: "FTConfig | None" = None,
    workers: int = 1,
    adversarial: bool = False,
    spaces: tuple[str, ...] | None = None,
    phases: tuple[str, ...] | None = None,
    journal: "str | CampaignJournal | None" = None,
    resume: "bool | str" = False,
    trial_timeout: float | None = None,
    crash_index: int | None = None,
    crash_once_path: str | None = None,
    transport: str = "auto",
) -> CampaignResult:
    """Run a fault campaign over *a* and verify recovery of every trial.

    ``residual_tol`` is the pass bar on the Table II residual after
    recovery — recovered runs must be as good as fault-free ones. The
    default (``None``) resolves to ``1e-13`` scaled by the lane-eps
    ratio of ``a.dtype`` (so the float64 bar is unchanged and the
    float32 bar widens by ``eps32/eps64 = 2^29``). ``workers > 1``
    distributes the trials over a process pool; results are identical
    to the serial sweep (same grid, same seeds).

    ``adversarial=True`` swaps the paper's area×moment matrix grid for
    :func:`build_adversarial_grid` (all fault spaces × phases) and
    defaults the config to two checksum channels, which the widened
    surface needs for multi-error location.

    ``journal`` names an on-disk JSONL journal that records each trial
    as it completes; ``resume=True`` (or ``resume=<path>``, which
    implies the journal path) replays the journaled trials and executes
    only the remainder — after a campaign-runner crash the rerun
    produces the identical outcome table without redoing finished work.
    ``trial_timeout`` (seconds) bounds each pooled trial; see
    :func:`repro.faults.executor.run_ft_trials` for the crash semantics
    of ``crash_index`` / ``crash_once_path`` (test/chaos hooks).
    ``transport`` selects the pooled data plane (``"auto"``/``"shm"``/
    ``"pickle"``): with shared memory the input matrix reaches every
    worker as a ~100-byte handle instead of an n×n pickle.
    """
    from repro.core.config import FTConfig
    from repro.utils.precision import lane_scale

    n = a.shape[0]
    if residual_tol is None:
        residual_tol = 1e-13 * lane_scale(a.dtype)
    if isinstance(resume, (str, bytes)) or hasattr(resume, "__fspath__"):
        if journal is None:
            journal = resume
        resume = True
    if adversarial:
        cfg = config or FTConfig(nb=nb, channels=2)
        tasks = build_adversarial_grid(
            n,
            nb,
            spaces=spaces,
            phases=phases,
            moments=moments,
            seed=seed,
            magnitude=magnitude,
            channels=cfg.channels,
        )
    else:
        cfg = config or FTConfig(nb=nb)
        tasks = build_fault_grid(
            n, nb, areas=areas, moments=moments, seed=seed, magnitude=magnitude
        )

    on_result = None
    precomputed = None
    if journal is not None:
        jr = journal if isinstance(journal, CampaignJournal) else CampaignJournal(journal)
        fp = grid_fingerprint(n, nb, tasks)
        if resume:
            precomputed = jr.load(fp)
        jr.ensure_header(fp)
        on_result = jr.append

    result = CampaignResult(
        n=n,
        nb=nb,
        baseline_residual=baseline_residual(a, cfg),
        resumed=len(precomputed or {}),
        execution_mode=choose_execution_mode(
            workers, len(tasks) - len(precomputed or {})
        ),
    )
    result.trials = run_ft_trials(
        a,
        tasks,
        cfg,
        residual_tol=residual_tol,
        workers=workers,
        trial_timeout=trial_timeout,
        on_result=on_result,
        precomputed=precomputed,
        crash_index=crash_index,
        crash_once_path=crash_once_path,
        transport=transport,
    )
    return result


def run_eig_campaign(
    a: np.ndarray,
    *,
    nb: int = 32,
    moments: int = 3,
    seed: int = 0,
    magnitude: float = 1.0,
    residual_tol: float | None = None,
    config: "FTConfig | None" = None,
    qr_config=None,
    workers: int = 1,
    spaces: tuple[str, ...] | None = None,
    phases: tuple[str, ...] | None = None,
    journal: "str | CampaignJournal | None" = None,
    resume: "bool | str" = False,
    trial_timeout: float | None = None,
    crash_index: int | None = None,
    crash_once_path: str | None = None,
    transport: str = "auto",
) -> CampaignResult:
    """Fault campaign over the **end-to-end protected eigensolver**:
    FT reduction → protected Francis QR, with the adversarial grid of
    :func:`build_eig_adversarial_grid` striking the QR stage.

    Each trial runs the full pipeline under one plan
    (:func:`~repro.faults.executor.run_one_eig_trial`) and is graded on
    spectrum distance against the fault-free pipeline's eigenvalues —
    computed once here, shipped to the workers inside the trial config.
    The default ``residual_tol`` is ``1e-8`` scaled by the square root
    of the lane-eps ratio (a corrected rollback replays bit-identical
    sweeps; the tolerance only needs to absorb masked sub-threshold
    perturbations and benign shift-path divergence, both far below it).

    ``CampaignResult.baseline_residual`` holds the *external* parity of
    the clean pipeline — its spectrum distance to
    ``numpy.linalg.eigvals`` — so a campaign report carries both "we
    recovered our own answer" and "our answer was right to begin with".
    Journal/resume, pooling and transport semantics match
    :func:`run_campaign`.
    """
    from repro.core.config import FTConfig
    from repro.eigen.ft_hqr import QRProtectConfig
    from repro.utils.precision import lane_scale

    n = a.shape[0]
    if residual_tol is None:
        residual_tol = 1e-8 * float(np.sqrt(lane_scale(a.dtype)))
    if isinstance(resume, (str, bytes)) or hasattr(resume, "__fspath__"):
        if journal is None:
            journal = resume
        resume = True
    cfg = config or FTConfig(nb=nb, channels=2)
    qr_cfg = qr_config or QRProtectConfig()
    ref = baseline_spectrum(a, cfg, qr_cfg)
    trial_cfg = EigTrialConfig(ft=cfg, qr=qr_cfg, ref_eigvals=ref)
    tasks = build_eig_adversarial_grid(
        n,
        spaces=spaces,
        phases=phases,
        moments=moments,
        seed=seed,
        magnitude=magnitude,
    )

    on_result = None
    precomputed = None
    if journal is not None:
        jr = journal if isinstance(journal, CampaignJournal) else CampaignJournal(journal)
        fp = grid_fingerprint(n, nb, tasks)
        if resume:
            precomputed = jr.load(fp)
        jr.ensure_header(fp)
        on_result = jr.append

    external = spectrum_distance(
        ref, np.linalg.eigvals(np.asarray(a, dtype=np.float64))
    )
    result = CampaignResult(
        n=n,
        nb=nb,
        baseline_residual=external,
        resumed=len(precomputed or {}),
        execution_mode=choose_execution_mode(
            workers, len(tasks) - len(precomputed or {})
        ),
    )
    result.trials = run_ft_trials(
        a,
        tasks,
        trial_cfg,
        residual_tol=residual_tol,
        workers=workers,
        trial_timeout=trial_timeout,
        on_result=on_result,
        precomputed=precomputed,
        crash_index=crash_index,
        crash_once_path=crash_once_path,
        transport=transport,
        trial_fn=run_one_eig_trial,
    )
    return result
