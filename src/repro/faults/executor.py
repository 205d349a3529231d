"""Crash-proof multiprocess trial runner for fault-injection campaigns.

A campaign is embarrassingly parallel: every trial is an independent
FT-GEHRD run under its own fault plan. The expensive part of scaling it
out is *not* the orchestration — it is keeping determinism. The grid of
:class:`~repro.faults.injector.FaultSpec` plans is therefore built
entirely in the parent (one RNG, one draw order, identical to the serial
sweep), and only the frozen, picklable specs travel to the workers. A
campaign run with ``workers=4`` produces byte-identical trial lists to
``workers=1``.

Hardening beyond the plain pool:

* **per-trial timeout** — a wedged worker cannot stall the campaign;
  its chunk's trials are graded ``aborted`` and the pool is rebuilt;
* **worker-crash recovery** — a ``BrokenProcessPool`` (segfault,
  OOM-kill, deliberate ``os._exit``) rebuilds the pool and retries each
  lost chunk exactly once before grading its trials ``aborted``;
* **incremental results** — an ``on_result`` callback fires as each
  trial completes (the campaign journal appends through it), and a
  ``precomputed`` map short-circuits trials a resumed campaign already
  journaled.

Workers are primed once via the pool initializer with the (read-only)
input matrix, the FT configuration and the residual bar, so the per-task
payload is just the plan. Tasks are shipped in contiguous chunks to
amortize IPC, and results are reassembled in grid order.

Data plane: with ``transport="auto"`` (the default) a base matrix big
enough to beat a pickle travels as a ~100-byte
:class:`~repro.utils.shm.SharedMatrix` handle over ``/dev/shm`` instead
of being serialized into each worker. Workers attach the segment once,
share the same read-only pages for every trial of every chunk, and pair
the attached view with the per-process
:func:`~repro.perf.workspace.process_workspace` arena — a warm worker
performs zero allocation and zero deserialization per trial. The
segment is owned by a :class:`~repro.utils.shm.SegmentRegistry` tied to
the pool, which guarantees the unlink on shutdown, rebuild, crash and
interpreter exit.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING, Callable

from repro.errors import EscalationExhausted, ReproError
from repro.faults.injector import QR_SPACES, FaultInjector, FaultSpec
from repro.resilience.ladder import max_tier as _deepest_tier
from repro.utils.procpool import ResilientProcessPool
from repro.utils.shm import (
    SegmentRegistry,
    SharedMatrix,
    sweep_stale_segments,
    use_shm_for,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.core.config import FTConfig

#: Outcome taxonomy, one label per trial (see docs/resilience.md):
#: every trial lands in exactly one bucket, campaign-crash included.
OUTCOMES = ("detected", "corrected", "masked", "escalated", "restarted", "aborted")


@dataclass
class TrialOutcome:
    """One injected run's result.

    ``spec`` is the plan's primary fault (compatibility with single-fault
    grids); ``specs`` carries the full plan when a trial injects several.
    """

    spec: FaultSpec
    area: int
    detected: bool
    corrected: bool
    residual: float
    recoveries: int
    q_corrections: int
    failure: str = ""
    outcome: str = ""
    max_tier: str = ""
    restarts: int = 0
    tau_repairs: int = 0
    specs: tuple[FaultSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.specs:
            self.specs = (self.spec,)
        if not self.outcome:
            self.outcome = classify_outcome(
                detected=self.detected,
                corrected=self.corrected,
                restarts=self.restarts,
                max_tier=self.max_tier,
                failure=self.failure,
            )

    @property
    def recovered(self) -> bool:
        return self.corrected and not self.failure


def classify_outcome(
    *,
    detected: bool,
    corrected: bool,
    restarts: int,
    max_tier: str,
    failure: str,
) -> str:
    """Map a trial's raw facts onto the outcome taxonomy.

    ``aborted``   — the run raised (or timed out / lost its worker);
    ``restarted`` — clean result, but only via the full-restart tier;
    ``escalated`` — clean result via deep rollback (beyond the paper's
    one-tier reverse+redo);
    ``corrected`` — clean result, detection + ordinary recovery;
    ``masked``    — clean result, nothing ever detected (sub-threshold);
    ``detected``  — the final state is wrong (detected-but-uncorrected,
    the paper's fail-stop residue; a silent-wrong run lands here too —
    the end-of-run verify *is* the detection).
    """
    if failure:
        return "aborted"
    if corrected:
        if restarts > 0:
            return "restarted"
        if max_tier == "deep_rollback":
            return "escalated"
        return "corrected" if detected else "masked"
    return "detected"


def run_one_trial(
    a: np.ndarray,
    plan: "FaultSpec | tuple[FaultSpec, ...] | list[FaultSpec]",
    area: int,
    cfg: "FTConfig",
    residual_tol: float,
    *,
    workspace=None,
) -> TrialOutcome:
    """Run FT-GEHRD under one fault plan and grade the outcome.

    ``residual_tol`` is the pass bar on the Table II residual after
    recovery — recovered runs must be as good as fault-free ones.
    ``workspace`` is a long-lived scratch arena for callers that run
    many trials back to back (the pool workers and the serial sweep);
    without one the driver allocates a fresh arena per trial.
    """
    from repro.core.ft_hessenberg import ft_gehrd
    from repro.linalg.orghr import orghr
    from repro.linalg.verify import extract_hessenberg, factorization_residual

    specs = tuple(plan) if isinstance(plan, (tuple, list)) else (plan,)
    inj = FaultInjector(faults=list(specs))
    failure = ""
    detected = corrected = False
    residual = float("inf")
    recov = qcorr = restarts = taurep = 0
    tier = ""
    try:
        with warnings.catch_warnings():
            # NaN-poisoned trials spray numpy RuntimeWarnings; unfired-spec
            # warnings are the caller's business, not per-trial noise
            warnings.simplefilter("ignore", RuntimeWarning)
            ft = ft_gehrd(a, cfg, injector=inj, workspace=workspace)
            q = orghr(ft.a, ft.taus)
            h = extract_hessenberg(ft.a)
            residual = factorization_residual(a, q, h)
        detected = (
            ft.detections > 0
            or (ft.q_report is not None and ft.q_report.count > 0)
            or ft.tau_repairs > 0
            or ft.checkpoint_corruptions > 0
        )
        corrected = residual <= residual_tol
        recov = len(ft.recoveries)
        qcorr = ft.q_report.count if ft.q_report else 0
        restarts = ft.restarts
        taurep = ft.tau_repairs
        tier = _deepest_tier(r.tier for r in ft.recoveries)
    except EscalationExhausted as exc:  # ladder exhausted: structured refusal
        detected = True
        failure = f"EscalationExhausted: {exc}"
        if exc.report is not None:
            tier = _deepest_tier(exc.report.attempts)
    except ReproError as exc:  # recovery machinery failed outright
        failure = f"{type(exc).__name__}: {exc}"
    return TrialOutcome(
        spec=specs[0],
        area=area,
        detected=detected,
        corrected=corrected,
        residual=residual,
        recoveries=recov,
        q_corrections=qcorr,
        failure=failure,
        max_tier=tier,
        restarts=restarts,
        tau_repairs=taurep,
        specs=specs,
    )


@dataclass
class EigTrialConfig:
    """Configuration bundle for end-to-end eigensolver trials.

    Carries both stages' configs plus the fault-free reference spectrum
    (computed once in the parent — workers grade against it instead of
    re-running the clean pipeline per trial). Exposes ``nb``/``channels``
    so the worker initializer can presize its arena exactly as it does
    for a plain :class:`~repro.core.config.FTConfig`.
    """

    ft: "FTConfig"
    qr: object  # QRProtectConfig (typed loosely to avoid an import cycle)
    ref_eigvals: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    @property
    def nb(self) -> int:
        return self.ft.nb

    @property
    def channels(self) -> int:
        return getattr(self.ft, "channels", 1)


def spectrum_distance(eigs: np.ndarray, ref: np.ndarray) -> float:
    """Relative distance between two spectra, paired by the canonical
    complex sort (conjugate pairs line up under ``np.sort_complex``)."""
    if eigs.size != ref.size:
        return float("inf")
    if eigs.size == 0:
        return 0.0
    a = np.sort_complex(np.asarray(eigs, dtype=complex))
    b = np.sort_complex(np.asarray(ref, dtype=complex))
    scale = max(float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


def run_one_eig_trial(
    a: np.ndarray,
    plan: "FaultSpec | tuple[FaultSpec, ...] | list[FaultSpec]",
    area: int,
    cfg: EigTrialConfig,
    residual_tol: float,
    *,
    workspace=None,
) -> TrialOutcome:
    """Run the full protected eigensolver pipeline under one fault plan.

    The plan is split by memory space: reduction-stage specs drive an
    injector through :func:`~repro.core.ft_hessenberg.ft_gehrd`, the
    ``qr_*`` specs drive a second injector through
    :func:`~repro.eigen.ft_hqr.ft_hqr` on the extracted Hessenberg form.
    The grade is the spectrum distance against the fault-free reference
    eigenvalues carried in *cfg* — a corrected run must reproduce the
    clean pipeline's spectrum to within *residual_tol*.
    """
    from repro.core.ft_hessenberg import ft_gehrd
    from repro.eigen.ft_hqr import ft_hqr
    from repro.linalg.verify import extract_hessenberg

    specs = tuple(plan) if isinstance(plan, (tuple, list)) else (plan,)
    red_specs = [f for f in specs if f.space not in QR_SPACES]
    qr_specs = [f for f in specs if f.space in QR_SPACES]
    failure = ""
    detected = corrected = False
    residual = float("inf")
    recov = qcorr = restarts = taurep = 0
    tier = ""
    tiers: list[str] = []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            inj_red = FaultInjector(faults=red_specs) if red_specs else None
            ft = ft_gehrd(a, cfg.ft, injector=inj_red, workspace=workspace)
            h = extract_hessenberg(ft.a)
            inj_qr = FaultInjector(faults=qr_specs) if qr_specs else None
            fr = ft_hqr(h, cfg.qr, injector=inj_qr, check_input=False)
            residual = spectrum_distance(fr.eigvals, cfg.ref_eigvals)
        detected = (
            ft.detections > 0
            or (ft.q_report is not None and ft.q_report.count > 0)
            or ft.tau_repairs > 0
            or ft.checkpoint_corruptions > 0
            or fr.detections > 0
            or fr.checkpoint_corruptions > 0
        )
        corrected = residual <= residual_tol
        recov = len(ft.recoveries) + len(fr.recoveries)
        qcorr = ft.q_report.count if ft.q_report else 0
        restarts = ft.restarts
        taurep = ft.tau_repairs
        tiers = [r.tier for r in ft.recoveries] + [r.tier for r in fr.recoveries]
        tier = _deepest_tier(tiers)
    except EscalationExhausted as exc:  # ladder exhausted: structured refusal
        detected = True
        failure = f"EscalationExhausted: {exc}"
        if exc.report is not None:
            tier = _deepest_tier(exc.report.attempts)
    except ReproError as exc:  # recovery machinery failed outright
        failure = f"{type(exc).__name__}: {exc}"
    return TrialOutcome(
        spec=specs[0],
        area=area,
        detected=detected,
        corrected=corrected,
        residual=residual,
        recoveries=recov,
        q_corrections=qcorr,
        failure=failure,
        max_tier=tier,
        restarts=restarts,
        tau_repairs=taurep,
        specs=specs,
    )


def _aborted_outcome(plan, area: int, why: str) -> TrialOutcome:
    specs = tuple(plan) if isinstance(plan, (tuple, list)) else (plan,)
    return TrialOutcome(
        spec=specs[0],
        area=area,
        detected=False,
        corrected=False,
        residual=float("inf"),
        recoveries=0,
        q_corrections=0,
        failure=why,
        specs=specs,
    )


# Per-process state, set once by the pool initializer. A module-level
# dict (not fork-captured closure state) so the same code path works
# under both fork and spawn start methods.
_WORKER: dict = {}


def _init_worker(
    a: "np.ndarray | SharedMatrix",
    cfg: "FTConfig",
    residual_tol: float,
    trial_fn: "Callable" = run_one_trial,
) -> None:
    from repro.perf.workspace import process_workspace

    if isinstance(a, SharedMatrix):
        # attach once; every trial of every chunk re-views the same
        # read-only pages (the driver copies into its own encoded
        # storage, so read-only is exactly the access it needs)
        a = a.attach()
    _WORKER["a"] = a
    _WORKER["cfg"] = cfg
    _WORKER["residual_tol"] = residual_tol
    _WORKER["trial_fn"] = trial_fn
    # the per-process arena: presized here so the steady state of a
    # warm worker allocates nothing at all between trials
    ws = process_workspace()
    ws.presize(a.shape[0], cfg.nb, getattr(cfg, "channels", 1))
    _WORKER["ws"] = ws


def _maybe_crash(index: int, crash_index: int | None, crash_once_path: str | None) -> None:
    """Chaos hook for the crash-recovery tests and the CI smoke job:
    die hard (no exception, no cleanup — like a segfault or OOM kill)
    when asked to process trial *crash_index*. With *crash_once_path*
    set, a sentinel file makes the crash happen exactly once."""
    if crash_index is None or index != crash_index:
        return
    if crash_once_path is not None:
        if os.path.exists(crash_once_path):
            return
        with open(crash_once_path, "w") as fh:
            fh.write("crashed\n")
    os._exit(17)


def _run_chunk(payload) -> list:
    tasks, crash_index, crash_once_path = payload
    a = _WORKER["a"]
    cfg = _WORKER["cfg"]
    residual_tol = _WORKER["residual_tol"]
    trial_fn = _WORKER.get("trial_fn", run_one_trial)
    ws = _WORKER.get("ws")
    out = []
    for index, plan, area in tasks:
        _maybe_crash(index, crash_index, crash_once_path)
        out.append(
            (index, trial_fn(a, plan, area, cfg, residual_tol, workspace=ws))
        )
    return out


def choose_execution_mode(workers: int, pending: int) -> str:
    """``"serial"`` or ``"pool"`` — where a trial grid should execute.

    Pooled execution only pays for its process fan-out when the grid can
    fill at least ~2 chunks per worker (the default chunking); below
    that — including ``workers <= 1`` and the everything-resumed case —
    the in-process sweep is both faster and byte-identical.
    """
    if workers <= 1 or pending < 2 * workers:
        return "serial"
    return "pool"


def run_ft_trials(
    a: np.ndarray,
    tasks: list,
    cfg: "FTConfig",
    *,
    residual_tol: float,
    workers: int = 1,
    trial_timeout: float | None = None,
    on_result: "Callable[[int, TrialOutcome], None] | None" = None,
    precomputed: "dict[int, TrialOutcome] | None" = None,
    crash_index: int | None = None,
    crash_once_path: str | None = None,
    transport: str = "auto",
    shm_min_bytes: int | None = None,
    trial_fn: "Callable" = run_one_trial,
) -> list[TrialOutcome]:
    """Run every (plan, area) task; order of results matches *tasks*.

    ``workers <= 1`` runs serially in-process (no pool overhead, easiest
    to debug), and so does any grid too small to fill ~2 chunks per
    worker (:func:`choose_execution_mode` — spinning up a pool for a
    handful of trials costs more than it saves); anything larger fans
    the chunked task list out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`. ``trial_timeout``
    (seconds per trial, scaled per chunk) and the broken-pool retry make
    the pooled path crash-proof: every trial always ends in an outcome.
    ``precomputed`` maps grid indices to already-known outcomes (resume);
    ``on_result(index, outcome)`` fires for each newly computed trial.

    ``transport`` picks how the base matrix reaches the workers:
    ``"auto"`` ships it over shared memory when that beats pickling
    (see :func:`repro.utils.shm.use_shm_for`), ``"shm"`` forces shared
    memory (raising where unavailable), ``"pickle"`` forces the classic
    serialized path. The serial path has no transport and ignores this.

    ``trial_fn`` is the per-trial driver — :func:`run_one_trial` (the
    reduction campaign) by default, :func:`run_one_eig_trial` for the
    end-to-end eigensolver campaign. It must be a picklable module-level
    callable with the same signature, since it rides the pool
    initializer to the workers.
    """
    if not tasks:
        return []
    precomputed = precomputed or {}
    results: dict[int, TrialOutcome] = dict(precomputed)
    pending = [
        (i, plan, area)
        for i, (plan, area) in enumerate(tasks)
        if i not in precomputed
    ]

    def emit(index: int, outcome: TrialOutcome) -> None:
        results[index] = outcome
        if on_result is not None:
            on_result(index, outcome)

    if choose_execution_mode(workers, len(pending)) == "serial":
        from repro.perf.workspace import Workspace

        ws = Workspace()  # one arena reused across the serial sweep
        for index, plan, area in pending:
            _maybe_crash(index, crash_index, crash_once_path)
            emit(index, trial_fn(a, plan, area, cfg, residual_tol, workspace=ws))
        return [results[i] for i in range(len(tasks))]

    workers = min(workers, len(pending))
    # ~2 chunks per worker: enough slack to absorb stragglers, few
    # enough round-trips that small grids aren't dominated by IPC
    chunksize = max(1, -(-len(pending) // (workers * 2)))
    chunks = [pending[i : i + chunksize] for i in range(0, len(pending), chunksize)]

    payload_a: "np.ndarray | SharedMatrix" = a
    registry = None
    if use_shm_for(a.nbytes, transport, min_bytes=shm_min_bytes):
        registry = SegmentRegistry()  # its constructor sweeps stale segments
        payload_a = SharedMatrix.create(a, registry=registry)
    else:
        # the pickle path builds no registry, so nothing else reclaims
        # dead-pid segments a previous crashed run left in /dev/shm
        sweep_stale_segments()

    queue = list(range(len(chunks)))
    attempts = {ci: 0 for ci in queue}
    pool = ResilientProcessPool(
        workers,
        initializer=_init_worker,
        initargs=(payload_a, cfg, residual_tol, trial_fn),
        registry=registry,
    )
    try:
        while queue:
            # Retried chunks run one at a time: a poisoned chunk that
            # breaks the pool again must not take the other survivors'
            # retries down with it as collateral.
            if attempts[queue[0]] > 0:
                wave, queue = queue[:1], queue[1:]
            else:
                wave, queue = queue, []
            futures = [
                (ci, pool.submit(_run_chunk, (chunks[ci], crash_index, crash_once_path)))
                for ci in wave
            ]
            lost: list[int] = []
            rebuild = False
            for ci, fut in futures:
                chunk = chunks[ci]
                if rebuild and not fut.done():
                    # the pool is already known broken; everything still
                    # in flight is lost with it
                    lost.append(ci)
                    continue
                timeout = None
                if trial_timeout is not None and not fut.done():
                    timeout = trial_timeout * len(chunk)
                try:
                    for index, outcome in fut.result(timeout=timeout):
                        emit(index, outcome)
                except FuturesTimeout:
                    # a wedged worker: grade the chunk aborted and rebuild
                    # the pool to reclaim the process
                    for index, plan, area in chunk:
                        emit(index, _aborted_outcome(
                            plan, area,
                            f"Timeout: trial exceeded {trial_timeout:.1f}s budget",
                        ))
                    rebuild = True
                except BrokenExecutor:
                    lost.append(ci)
                    rebuild = True
            if rebuild:
                pool.rebuild()
            for ci in lost:
                if attempts[ci] < 1:
                    # one retry: a crash that follows the chunk around is
                    # the chunk's fault, not the environment's
                    attempts[ci] += 1
                    queue.append(ci)
                else:
                    for index, plan, area in chunks[ci]:
                        if index not in results:
                            emit(index, _aborted_outcome(
                                plan, area,
                                "WorkerLost: process pool broke twice on this chunk",
                            ))
    except BaseException:
        # a trial may still be running: kill and reap, do not wait it out
        pool.shutdown(stop_workers=True)
        raise
    # every trial is graded and the workers are idle: join them, so no
    # worker or pool thread outlives the call (and races the exit hook)
    pool.shutdown(wait=True)
    return [results[i] for i in range(len(tasks))]
