"""Protected Francis QR: transient-error resilience for the eigenvalue
stage.

The blocked reduction is guarded by ABFT checksums, but checksum
encodings do not survive the QR iteration — every sweep applies a fresh
orthogonal similarity, so a maintained row/column checksum would cost as
much as the sweep itself. What *is* preserved, for free, by every
similarity transform are the spectrum's power sums ``p1 = tr(T)`` and
``p2 = tr(T²)``, and — because the transforms are orthogonal — the
Frobenius norm of the whole matrix. Those three scalars, re-measured in
float64 every ``verify_every`` outer steps and compared against the last
*verified* checkpoint, are the detection substrate (the same
norm-at-fp64 / variance-style-below-double threshold split as the
reduction's V-ABFT policy). Structural guards ride along: the iterating
matrix must stay upper Hessenberg, deflation must be monotone, and the
accumulated Schur vectors must stay orthogonal (spot-checked per
verification, fully checked once at the end).

Recovery is backward/forward in the style of the reduction's escalation
ladder: on an invariant violation, roll back to the last verified
checkpoint of ``(T, Z, deflation state, iteration counters)`` and
replay (``reverse_redo``); if the checkpoint itself fails its guard
sums or the replay budget is exhausted, fall back to the pristine
post-reduction H with a tightened verify period (``deep_rollback``);
when that budget too is gone the driver raises
:class:`~repro.errors.EscalationExhausted` carrying a
:class:`~repro.resilience.FailureReport`.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.results import RecoveryEvent
from repro.eigen.schur import (
    _standardize_blocks,
    _work_dtype,
    is_quasi_triangular,
    qr_outer_step,
    schur_eigvals,
    standardized_blocks_ok,
)
from repro.errors import ConvergenceError, EscalationExhausted, ShapeError
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.linalg.verify import hessenberg_defect
from repro.resilience.ladder import (
    TIER_DEEP_ROLLBACK,
    TIER_REVERSE_REDO,
    LadderConfig,
    ResilienceSupervisor,
)
from repro.utils.precision import lane_eps, lane_scale


@dataclass
class QRProtectConfig:
    """Knobs of the protected Francis QR driver.

    Attributes
    ----------
    verify_every:
        Outer steps between invariant verifications — also the rollback
        window (work at risk per fault) and the checkpoint cadence.
        Halved (min 1) after every deep rollback.
    max_sweeps_per_eig:
        Francis stall budget, as in the unprotected drivers.
    eps_factor:
        Headroom of the fp64 norm-rule thresholds (PR 6's fixed rule).
    sigma_factor:
        Headroom of the sub-double variance-style thresholds.
    max_replays:
        Checkpoint rollback+replay attempts per verified checkpoint
        before escalating to the deep rollback.
    max_retries:
        Consecutive recoveries (without an intervening clean
        verification) tolerated before escalation; ``< 1`` is strict
        fail-stop — the deep-rollback budget is forced to 0.
    max_deep_rollbacks:
        Full re-iterations from the pristine post-reduction H.
    ladder:
        Carried for :class:`ResilienceSupervisor` bookkeeping and the
        serve tier's ``stricter()`` escalation; the QR stage maps its
        two recovery levels onto ``reverse_redo``/``deep_rollback``.
    want_z:
        Accumulate Schur vectors (required for ``ft_schur``).
    z_spot_checks:
        Z columns orthogonality-tested per verification (0 disables);
        the end-of-run check is always the full ``‖ZᵀZ − I‖``.
    """

    verify_every: int = 5
    max_sweeps_per_eig: int = 30
    eps_factor: float = 1e3
    sigma_factor: float = 24.0
    max_replays: int = 3
    max_retries: int = 3
    max_deep_rollbacks: int = 1
    ladder: LadderConfig = field(default_factory=LadderConfig)
    want_z: bool = True
    z_spot_checks: int = 2


@dataclass
class QRCheckpoint:
    """One verified snapshot of the QR iteration state. The invariant
    baselines (``p1``/``p2``/``fro`` of T, ``zfro`` of Z) double as the
    checkpoint's guard sums: they are re-measured at restore time and a
    mismatch means the buffer itself was corrupted while parked."""

    t: np.ndarray
    z: np.ndarray | None
    hi: int
    stalls: int
    total: int
    p1: float
    p2: float
    fro: float
    zfro: float


class QRCheckpointStore:
    """Diskless checkpoints for the QR stage: the rolling verified
    snapshot plus the pristine post-reduction H (the deep-rollback
    substrate), both self-verifying via their measured invariants."""

    def __init__(self) -> None:
        self.current: QRCheckpoint | None = None
        self.initial: QRCheckpoint | None = None
        self.saves = 0
        self.restores = 0
        self.corruptions = 0

    @staticmethod
    def _snap(
        t: np.ndarray, z: np.ndarray | None, hi: int, stalls: int, total: int
    ) -> QRCheckpoint:
        p1, p2, fro = measure_invariants(t)
        zfro = float(np.sqrt(np.sum(np.square(z, dtype=np.float64)))) if z is not None else 0.0
        return QRCheckpoint(
            t=t.copy(order="F"),
            z=z.copy(order="F") if z is not None else None,
            hi=hi,
            stalls=stalls,
            total=total,
            p1=p1,
            p2=p2,
            fro=fro,
            zfro=zfro,
        )

    def save(self, t: np.ndarray, z: np.ndarray | None, hi: int, stalls: int, total: int) -> None:
        self.current = self._snap(t, z, hi, stalls, total)
        self.saves += 1

    def save_initial(self, t: np.ndarray, z: np.ndarray | None) -> None:
        self.initial = self._snap(t, z, n_to_hi(t.shape[0]), 0, 0)

    @staticmethod
    def verify(cp: QRCheckpoint | None) -> bool:
        """Re-measure the parked buffers against their save-time guard
        sums. The recomputation runs over untouched memory, so any
        disagreement beyond re-summation roundoff is corruption."""
        if cp is None:
            return False
        p1, p2, fro = measure_invariants(cp.t)
        tol = 1e-12 * max(1.0, cp.fro)
        if not (abs(p1 - cp.p1) <= tol and abs(fro - cp.fro) <= tol):
            return False
        if not (abs(p2 - cp.p2) <= tol * max(1.0, cp.fro)):
            return False
        if cp.z is not None:
            zfro = float(np.sqrt(np.sum(np.square(cp.z, dtype=np.float64))))
            if not (abs(zfro - cp.zfro) <= 1e-12 * max(1.0, cp.zfro)):
                return False
        return True

    @property
    def peak_bytes(self) -> int:
        total = 0
        for cp in (self.current, self.initial):
            if cp is not None:
                total += cp.t.nbytes + (cp.z.nbytes if cp.z is not None else 0)
        return total


def n_to_hi(n: int) -> int:
    """Initial active-block end for an n×n iteration."""
    return n - 1


def measure_invariants(t: np.ndarray) -> tuple[float, float, float]:
    """``(p1, p2, fro)`` of *t*, accumulated in float64 whatever the
    lane: the first two spectral power sums ``tr(T)`` / ``tr(T²)``
    (preserved by every similarity) and the Frobenius norm (preserved by
    *orthogonal* similarity)."""
    p1 = float(np.trace(t, dtype=np.float64))
    p2 = float(np.sum(np.multiply(t, t.T, dtype=np.float64)))
    fro = float(np.sqrt(np.sum(np.square(t, dtype=np.float64))))
    return p1, p2, fro


@dataclass
class FTQRResult:
    """Outcome of the protected Francis QR driver."""

    n: int
    t: np.ndarray
    z: np.ndarray | None
    eigvals: np.ndarray
    dtype: str
    sweeps: int = 0            # logical outer steps (replayed work excluded)
    wall_steps: int = 0        # every outer step executed, replays included
    verifications: int = 0
    detections: int = 0
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    rollbacks: int = 0
    deep_rollbacks: int = 0
    checkpoint_saves: int = 0
    checkpoint_restores: int = 0
    checkpoint_peak_bytes: int = 0
    checkpoint_corruptions: int = 0
    verify_every_final: int = 0

    @property
    def errors_corrected(self) -> int:
        return len(self.recoveries)

    @property
    def tier_tally(self) -> dict[str, int]:
        return dict(Counter(ev.tier for ev in self.recoveries))


def ft_hqr(
    h: np.ndarray,
    config: QRProtectConfig | None = None,
    *,
    injector: FaultInjector | None = None,
    check_input: bool = True,
) -> FTQRResult:
    """Eigenvalues (and optionally the real Schur form) of the
    upper-Hessenberg *h* under transient-fault protection.

    Runs the same Francis double-shift sweeps as
    :func:`~repro.eigen.schur.hessenberg_schur` — fault-free fp64 output
    is byte-identical — with invariant verification, checkpoint/rollback
    recovery and the end-to-end fault-injection surface described in the
    module docstring.

    Raises
    ------
    EscalationExhausted
        Every recovery tier failed or ran out of budget (carries the
        structured :class:`FailureReport`).
    ConvergenceError
        The iteration genuinely stalled past its sweep budget.
    """
    cfg = config or QRProtectConfig()
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"ft_hqr needs a square matrix, got {h.shape}")
    n = h.shape[0]
    dt = _work_dtype(h)
    eps = lane_eps(dt)
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if n and check_input and hessenberg_defect(h) > 1e-12 * lane_scale(dt) * max(scale, 1.0):
        raise ShapeError("input is not upper Hessenberg")

    t = np.array(h, dtype=dt, order="F", copy=True)
    z = np.eye(n, dtype=dt, order="F") if cfg.want_z else None
    if n <= 1:
        eig = np.array([complex(t[0, 0])] if n == 1 else [], dtype=complex)
        if injector is not None:
            _warn_unfired(injector)
        return FTQRResult(
            n=n, t=t, z=z, eigvals=eig, dtype=dt.name,
            verify_every_final=max(1, cfg.verify_every),
        )

    store = QRCheckpointStore()
    store.save_initial(t, z)
    store.save(t, z, n - 1, 0, 0)
    sup = ResilienceSupervisor(cfg.ladder, cfg.max_retries)
    deep_budget = cfg.max_deep_rollbacks if cfg.max_retries >= 1 else 0

    verify_every = max(1, cfg.verify_every)
    budget = cfg.max_sweeps_per_eig * n + 10
    wall_cap = 4 * budget + 40

    hi = n - 1
    stalls = 0
    total = 0          # logical outer steps — rolled back with the state
    tick = 0           # wall clock — monotone, the injector's timeline
    since_verify = 0
    replays = 0        # rollbacks against the current checkpoint
    consecutive = 0    # recoveries since the last clean verification
    detections = 0
    verifications = 0
    recoveries: list[RecoveryEvent] = []
    deep = 0
    end_faults_fired = False

    def _targets(shift_pair: np.ndarray | None = None) -> InjectionTargets:
        return InjectionTargets(
            n=n, qr_t=t, qr_z=z, qr_shift=shift_pair, qr_checkpoint=store
        )

    def _shift_hook(pair: np.ndarray) -> None:
        if injector is not None:
            injector.apply_due(tick, "shift", _targets(shift_pair=pair))

    def _thresholds(fro_cp: float) -> tuple[float, float, float, float]:
        """(tau_p1, tau_p2, tau_fro, tau_orth) against checkpoint *fro_cp*.

        The drift window is at most ``verify_every`` sweeps since the
        last verified state, so the bounds track that window: the fixed
        norm rule at fp64, the variance-style ``sigma·eps·sqrt(n·V)``
        rule below double — the same split as the reduction's V-ABFT
        thresholds (docs/resilience.md §5).
        """
        if dt.itemsize >= 8:
            tau_fro = cfg.eps_factor * eps * max(1.0, fro_cp) * n
        else:
            tau_fro = (
                cfg.sigma_factor
                * eps
                * math.sqrt(n * max(verify_every, 1))
                * max(fro_cp, 1.0)
            )
        tau_p2 = 2.0 * max(fro_cp, 1.0) * tau_fro
        tau_orth = cfg.eps_factor * eps * n
        return tau_fro, tau_p2, tau_fro, tau_orth

    def _verify(final: bool = False) -> tuple[str, float] | None:
        """Invariant + structural verification against the current
        checkpoint's baselines. Returns ``(reason, drift)`` on
        violation, None when the state checks out."""
        nonlocal verifications
        verifications += 1
        cp = store.current
        tau_p1, tau_p2, tau_fro, tau_orth = _thresholds(cp.fro)
        p1, p2, fro = measure_invariants(t)
        if not (math.isfinite(p1) and math.isfinite(p2) and math.isfinite(fro)):
            return "non-finite iterate", float("inf")
        d1, d2, df = abs(p1 - cp.p1), abs(p2 - cp.p2), abs(fro - cp.fro)
        if not (d1 <= tau_p1):
            return f"trace drift {d1:.3e} > {tau_p1:.3e}", d1
        if not (df <= tau_fro):
            return f"Frobenius drift {df:.3e} > {tau_fro:.3e}", df
        if not (d2 <= tau_p2):
            return f"tr(T²) drift {d2:.3e} > {tau_p2:.3e}", d2
        defect = hessenberg_defect(t)
        if not (defect <= tau_fro):
            return f"Hessenberg defect {defect:.3e} > {tau_fro:.3e}", defect
        if hi > cp.hi:
            return f"deflation regressed ({cp.hi} -> {hi})", float(hi - cp.hi)
        if z is not None:
            if final:
                gram = z.T.astype(np.float64) @ z.astype(np.float64)
                err = float(np.max(np.abs(gram - np.eye(n))))
                if not (err <= tau_orth * math.sqrt(n)):
                    return f"Z orthogonality {err:.3e} > {tau_orth * math.sqrt(n):.3e}", err
            elif cfg.z_spot_checks > 0:
                for i in range(cfg.z_spot_checks):
                    j = (7 * verifications + 13 * i) % n
                    col = z[:, j].astype(np.float64)
                    err = abs(float(col @ col) - 1.0)
                    if not (err <= tau_orth):
                        return f"Z column {j} norm drift {err:.3e} > {tau_orth:.3e}", err
                    jj = (j + 1 + i) % n
                    if jj != j:
                        dot = abs(float(col @ z[:, jj].astype(np.float64)))
                        if not (dot <= tau_orth):
                            return f"Z columns {j},{jj} lost orthogonality {dot:.3e}", dot
        if final:
            if not is_quasi_triangular(t, tol=tau_fro):
                return "final T is not quasi-triangular", 0.0
            if not standardized_blocks_ok(t):
                return "final T has unstandardized 2x2 blocks", 0.0
        return None

    def _restore(cp: QRCheckpoint) -> None:
        nonlocal hi, stalls, total
        t[:, :] = cp.t
        if z is not None:
            z[:, :] = cp.z
        hi, stalls, total = cp.hi, cp.stalls, cp.total
        store.restores += 1

    def _recover(reason: str, gap: float) -> None:
        nonlocal detections, consecutive, replays, deep, verify_every
        detections += 1
        consecutive += 1
        if injector is not None:
            # strikes planned to land while the machinery is recovering
            injector.apply_due(tick, "during_recovery", _targets())
        if consecutive <= cfg.max_retries and replays < cfg.max_replays:
            if store.verify(store.current):
                _restore(store.current)
                replays += 1
                recoveries.append(
                    RecoveryEvent(iteration=tick, p=hi, gap=gap, tier=TIER_REVERSE_REDO)
                )
                sup.record(TIER_REVERSE_REDO, tick, True, reason)
                return
            store.corruptions += 1
            sup.record(TIER_REVERSE_REDO, tick, False, f"checkpoint guard mismatch ({reason})")
        else:
            sup.record(TIER_REVERSE_REDO, tick, False, f"replay budget exhausted ({reason})")
        if deep < deep_budget and store.verify(store.initial):
            _restore(store.initial)
            deep += 1
            replays = 0
            verify_every = max(1, verify_every // 2)  # tightened verify period
            store.save(t, z, hi, stalls, total)
            recoveries.append(
                RecoveryEvent(iteration=tick, p=hi, gap=gap, tier=TIER_DEEP_ROLLBACK)
            )
            sup.record(TIER_DEEP_ROLLBACK, tick, True, reason)
            return
        sup.record(
            TIER_DEEP_ROLLBACK,
            tick,
            False,
            reason if deep < deep_budget else f"deep-rollback budget exhausted ({reason})",
        )
        raise EscalationExhausted(
            f"QR step {tick}: {reason}", report=sup.report(tick, reason)
        )

    while True:
        while hi > 0:
            if total >= budget:
                raise ConvergenceError("QR iteration exceeded its global sweep budget")
            if tick >= wall_cap:
                raise ConvergenceError(
                    "QR iteration exceeded its wall budget (replay storm)"
                )
            tick += 1
            if injector is not None:
                injector.apply_phase(tick, "pre_sweep", _targets())
            hi, stalls = qr_outer_step(
                t,
                z,
                hi,
                stalls,
                scale=scale,
                eps=eps,
                max_sweeps_per_eig=cfg.max_sweeps_per_eig,
                shift_hook=_shift_hook if injector is not None else None,
            )
            total += 1
            since_verify += 1
            if injector is not None:
                injector.apply_phase(tick, "post_sweep", _targets())
            if since_verify >= verify_every and hi > 0:
                violation = _verify()
                since_verify = 0
                if violation is None:
                    store.save(t, z, hi, stalls, total)
                    replays = 0
                    consecutive = 0
                else:
                    _recover(*violation)
        # converged: late faults strike the finished state exactly once,
        # then the final thorough verification decides whether the run
        # is clean or must re-enter the recovery path
        if injector is not None and not end_faults_fired:
            end_faults_fired = True
            if injector.pending_after(tick + 1):
                injector.apply_pending_after(_targets(), tick + 1)
        _standardize_blocks(t, z)
        violation = _verify(final=True)
        since_verify = 0
        if violation is None:
            break
        _recover(*violation)

    if injector is not None:
        _warn_unfired(injector)

    return FTQRResult(
        n=n,
        t=t,
        z=z,
        eigvals=schur_eigvals(t),
        dtype=dt.name,
        sweeps=total,
        wall_steps=tick,
        verifications=verifications,
        detections=detections,
        recoveries=recoveries,
        rollbacks=sum(1 for ev in recoveries if ev.tier == TIER_REVERSE_REDO),
        deep_rollbacks=deep,
        checkpoint_saves=store.saves,
        checkpoint_restores=store.restores,
        checkpoint_peak_bytes=store.peak_bytes,
        checkpoint_corruptions=store.corruptions,
        verify_every_final=verify_every,
    )


def _warn_unfired(injector: FaultInjector) -> None:
    for spec in injector.unfired():
        warnings.warn(
            f"fault spec never fired: {spec} (its phase never occurred "
            "at that iteration)",
            RuntimeWarning,
            stacklevel=3,
        )
