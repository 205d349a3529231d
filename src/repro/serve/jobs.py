"""Typed job model for the batch-reduction service.

A :class:`JobSpec` describes one unit of work against any driver the
library has — the plain blocked reduction, the hybrid baseline, the
fault-tolerant Hessenberg/tridiagonal drivers, or a whole fault
campaign. Specs are declarative and picklable, so the same object is
what travels to a pool worker and what a JSONL job file deserializes
into.

Content addressing
------------------
``job_key(spec)`` is a deterministic digest of everything that can
change the *result*: the matrix identity (an RNG recipe or a byte-exact
fingerprint of an inline matrix) plus the driver configuration.
Scheduling metadata — priority lane, submitter id, timeout, chaos
hooks — is deliberately excluded, so the same computation submitted by
two clients at different priorities is one cache entry. The key is what
the result cache, the in-flight coalescer, and the on-disk spill all
index by.

The caveat that follows from byte-exact fingerprints: two matrices that
differ in the last ulp of one entry are different jobs. Near-duplicate
inputs (same matrix re-generated through a different code path, a
round-tripped file, an epsilon perturbation) will *miss* the cache; see
``docs/serving.md`` for the discussion.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import ReproError, ShapeError
from repro.utils.precision import lane_dtype
from repro.utils.shm import (
    DEFAULT_MIN_BYTES,
    SharedMatrix,
    hash_update_array,
    shm_available,
)

#: Drivers a job may target. ``ft_eig`` runs the end-to-end protected
#: eigensolver (FT reduction → protected Francis QR, eigenvalues only);
#: ``ft_schur`` additionally accumulates and returns the real Schur
#: form ``A = (QZ) T (QZ)ᵀ``.
DRIVERS = ("gehrd", "hybrid_gehrd", "ft_gehrd", "ft_sytrd", "campaign",
           "ft_eig", "ft_schur")

#: Drivers built on the protected Francis QR stage.
EIG_DRIVERS = ("ft_eig", "ft_schur")

#: Priority lanes, highest first. The scheduler always drains a higher
#: lane before looking at a lower one.
LANES = ("high", "normal", "low")

#: Job lifecycle states (terminal: done / failed / cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class JobSpecError(ReproError, ValueError):
    """A job specification is malformed (unknown driver, bad size, ...)."""


@dataclass(frozen=True)
class JobSpec:
    """One unit of work for the batch service.

    The matrix is either generated deterministically from
    ``(kind, n, seed)`` — the common case for sweeps and job files — or
    supplied inline via ``matrix`` (which then overrides the recipe and
    is fingerprinted byte-exactly).

    ``faults`` is a tuple of :class:`~repro.faults.FaultSpec` keyword
    dicts injected into FT drivers, so resilience jobs (and their
    recovery-tier tallies) flow through the same pipeline as clean runs.

    ``crash`` / ``crash_once_path`` are chaos hooks mirroring the
    campaign executor's: the worker process dies hard (``os._exit``)
    before doing any work — once only if a sentinel path is given. They
    exist for the broken-pool recovery tests and the CI smoke job and
    are excluded from the content key.

    ``return_factors=True`` asks the driver to ship the H and Q factors
    back with the payload (lazily materialized via
    :meth:`JobResult.factor`); it *is* part of the content key, and
    factor-bearing results bypass the result cache — their shared
    segments have a lifecycle the JSON cache cannot own.

    ``matrix`` may arrive as a :class:`~repro.utils.shm.SharedMatrix`
    handle instead of an ndarray — that is how the scheduler ships
    large inline matrices to pool workers without re-pickling them per
    attempt (the zero-copy data plane; see ``docs/performance.md``).

    ``dtype`` names the precision lane (``"float64"`` / ``"float32"``)
    the job runs at; it is part of the content key. An inline float32
    matrix keeps its lane even under the default ``dtype="float64"`` —
    see :attr:`lane` — so a submitted fp32 matrix is never silently
    promoted.
    """

    driver: str = "ft_gehrd"
    n: int = 128
    seed: int = 0
    kind: str = "uniform"
    dtype: str = "float64"
    nb: int = 32
    channels: int = 1
    audit_every: int = 0
    functional: bool = True
    faults: tuple = ()
    moments: int = 2
    adversarial: bool = False
    return_factors: bool = False
    # eigensolver drivers only: also compute right eigenvectors via
    # inverse iteration and back-transformation
    eigvecs: bool = False
    # scheduling metadata (not part of the content key)
    priority: str = "normal"
    submitter: str = "anon"
    timeout: float | None = None
    # chaos hooks (not part of the content key)
    crash: bool = False
    crash_once_path: str | None = None
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`JobSpecError` on anything the drivers would
        only reject deep inside a worker."""
        from repro.utils.rng import MatrixKind

        if self.driver not in DRIVERS:
            raise JobSpecError(f"unknown driver {self.driver!r} (want one of {DRIVERS})")
        try:
            lane_dtype(self.dtype)
        except ShapeError as exc:
            raise JobSpecError(str(exc)) from exc
        if self.driver == "ft_sytrd" and self.lane != np.float64:
            raise JobSpecError(
                "ft_sytrd runs in the float64 lane only "
                f"(got dtype {self.lane.name!r})"
            )
        if self.priority not in LANES:
            raise JobSpecError(f"unknown priority {self.priority!r} (want one of {LANES})")
        if self.matrix is None and self.n < 2:
            raise JobSpecError(f"matrix order must be >= 2, got {self.n}")
        if self.matrix is not None:
            shape = (
                self.matrix.shape
                if isinstance(self.matrix, SharedMatrix)
                else np.asarray(self.matrix).shape
            )
            if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
                raise JobSpecError(
                    f"inline matrix must be square of order >= 2, got {tuple(shape)}"
                )
        if self.return_factors:
            if self.driver in ("ft_sytrd", "campaign"):
                raise JobSpecError(
                    f"return_factors is not available for driver {self.driver!r}"
                )
            if not self.functional:
                raise JobSpecError("return_factors needs functional=True")
            if self.driver == "ft_eig" and not self.eigvecs:
                raise JobSpecError(
                    "ft_eig has no factors without eigvecs=True "
                    "(eigenvalues travel in the payload; use ft_schur for T/Z)"
                )
        if self.eigvecs and self.driver not in EIG_DRIVERS:
            raise JobSpecError(
                f"eigvecs is only available for {EIG_DRIVERS}, "
                f"not driver {self.driver!r}"
            )
        if self.nb < 1:
            raise JobSpecError(f"nb must be >= 1, got {self.nb}")
        if self.channels not in (1, 2):
            raise JobSpecError(f"channels must be 1 or 2, got {self.channels}")
        if self.moments < 1:
            raise JobSpecError(f"moments must be >= 1, got {self.moments}")
        if self.timeout is not None and self.timeout <= 0:
            raise JobSpecError(f"timeout must be positive, got {self.timeout}")
        try:
            MatrixKind(self.kind)
        except ValueError as exc:
            raise JobSpecError(f"unknown matrix kind {self.kind!r}") from exc
        for f in self.faults:
            if not isinstance(f, dict):
                raise JobSpecError(f"faults entries must be FaultSpec kwarg dicts, got {f!r}")

    # -- content addressing -------------------------------------------------

    @property
    def order(self) -> int:
        """The matrix order the job will actually run at."""
        if isinstance(self.matrix, SharedMatrix):
            return int(self.matrix.shape[0])
        if self.matrix is not None:
            return int(np.asarray(self.matrix).shape[0])
        return self.n

    @property
    def lane(self) -> np.dtype:
        """The precision lane the job actually runs at.

        ``dtype`` rules unless it is the default float64 *and* an inline
        float32 matrix was supplied — then the matrix's own lane wins, so
        fp32 submissions survive end-to-end without an explicit flag.
        """
        if self.dtype == "float64" and self.matrix is not None:
            dt = (
                np.dtype(self.matrix.dtype)
                if isinstance(self.matrix, SharedMatrix)
                else np.asarray(self.matrix).dtype
            )
            if dt == np.float32:
                return np.dtype(np.float32)
        return lane_dtype(self.dtype)

    def matrix_fingerprint(self) -> str:
        """Deterministic identity of the input matrix.

        Generated matrices hash their recipe; inline matrices hash their
        exact bytes (shape + dtype + data) straight from the array's
        buffer — a contiguous matrix is hashed with zero copies.
        ``ft_sytrd`` always symmetrizes the recipe, so its fingerprint
        pins ``kind`` to ``symmetric`` regardless of what the spec says.
        """
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=self.lane)
            h = hashlib.sha256()
            h.update(repr((m.shape, str(m.dtype))).encode())
            hash_update_array(h, m)
            return f"sha256:{h.hexdigest()[:16]}"
        kind = "symmetric" if self.driver == "ft_sytrd" else self.kind
        return f"rng:{kind}:n={self.n}:seed={self.seed}:dtype={self.lane.name}"

    def content_dict(self, fingerprint: str | None = None) -> dict:
        """Everything that determines the result, canonically ordered.

        *fingerprint* is :meth:`matrix_fingerprint`'s value, for a caller
        that already holds it: an inline matrix is then hashed once.
        """
        if fingerprint is None:
            fingerprint = self.matrix_fingerprint()
        return {
            "driver": self.driver,
            "matrix": fingerprint,
            "dtype": self.lane.name,
            # a literal so keys, spilled cache entries and results files from before still match
            "backend": "numpy",
            "nb": self.nb,
            "channels": self.channels,
            "audit_every": self.audit_every,
            "functional": self.functional,
            "faults": [dict(sorted(f.items())) for f in self.faults],
            "return_factors": self.return_factors,
            "moments": self.moments if self.driver == "campaign" else None,
            "adversarial": self.adversarial if self.driver == "campaign" else None,
            "seed": self.seed if self.driver == "campaign" else None,
            "eigvecs": self.eigvecs if self.driver in EIG_DRIVERS else None,
        }

    @property
    def key(self) -> str:
        """The content-addressed job key (stable across processes)."""
        fingerprint = self.matrix_fingerprint()
        blob = json.dumps(self.content_dict(fingerprint), sort_keys=True,
                          separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return f"{self.driver}:{fingerprint}:{digest}"

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "matrix":
                if isinstance(v, SharedMatrix):
                    # a transport artifact, not a portable description;
                    # serialize the identity, not unreachable segment bytes
                    out["matrix"] = None
                elif v is not None:
                    out["matrix"] = np.asarray(v, dtype=self.lane).tolist()
                continue
            if f.name == "dtype":
                # round-trip the *effective* lane, so an inline fp32
                # matrix re-materializes as fp32 from nested JSON lists
                out["dtype"] = self.lane.name
                continue
            if f.name == "faults":
                v = [dict(x) for x in v]
            out[f.name] = v
        return out

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise JobSpecError(f"unknown JobSpec fields: {sorted(unknown)}")
        kw = dict(data)
        if kw.get("matrix") is not None:
            try:
                dt = lane_dtype(kw.get("dtype", "float64"))
            except ShapeError as exc:
                raise JobSpecError(str(exc)) from exc
            kw["matrix"] = np.asarray(kw["matrix"], dtype=dt)
        if "faults" in kw:
            kw["faults"] = tuple(dict(x) for x in kw["faults"])
        return cls(**kw)


@dataclass
class JobResult:
    """The JSON-serializable lifecycle record of one submitted job.

    ``payload`` is the driver outcome (residuals, recovery counts, tier
    tally, ...) — always plain JSON types, which is what lets the result
    cache spill it to disk and the CLI stream it as JSONL. A
    factor-returning job's payload carries a ``"factors"`` table of
    references (inline nested lists for small factors, shared-memory
    handles for large ones); the arrays themselves are reconstructed
    lazily on first access through :meth:`factor` / :attr:`factors` —
    a result nobody inspects never pays the copy.
    """

    job_id: int
    key: str
    status: str = QUEUED
    lane: str = "normal"
    submitter: str = "anon"
    payload: dict | None = None
    error: str = ""
    failure_class: str = ""
    retries: int = 0
    cache_hit: bool = False
    coalesced: bool = False
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    # lazy-materialization plumbing (process-local, never serialized)
    _registry: object = field(default=None, init=False, repr=False, compare=False)
    _materialized: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    # -- lazy factors --------------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Attach the owning scheduler's segment registry so shm-backed
        factor references can be resolved (and their segments released)."""
        self._registry = registry

    @property
    def has_factors(self) -> bool:
        return bool(self.payload and self.payload.get("factors"))

    def factor(self, name: str) -> np.ndarray:
        """Materialize one returned factor (``"h"`` or ``"q"``).

        Inline references decode from the payload; shared-memory
        references attach the worker-written segment, copy it out once,
        and drop this result's reference (the last reader's release
        unlinks the segment). The copy is cached — repeated access is
        free — and survives the service closing afterwards.
        """
        if name in self._materialized:
            return self._materialized[name]
        refs = (self.payload or {}).get("factors") or {}
        if name not in refs:
            raise KeyError(
                f"no factor {name!r} on this result (have {sorted(refs)}); "
                "submit with return_factors=True to get factors back"
            )
        ref = refs[name]
        if "data" in ref:
            arr = np.asarray(ref["data"], dtype=ref.get("dtype", "float64"))
        else:
            handle = SharedMatrix.from_json(ref["shm"])
            if self._registry is not None:
                arr = self._registry.materialize(handle)
            else:
                # a result rehydrated from JSON in another process: the
                # segment may or may not still exist — attach_view gives
                # the definitive answer either way
                arr = np.array(handle.attach())
        self._materialized[name] = arr
        return arr

    @property
    def factors(self) -> dict:
        """All returned factors, materialized (see :meth:`factor`)."""
        refs = (self.payload or {}).get("factors") or {}
        return {name: self.factor(name) for name in refs}

    @property
    def tier_tally(self) -> dict:
        """Recovery-ladder tiers the job's driver run climbed through."""
        if not self.payload:
            return {}
        return dict(self.payload.get("tier_tally", {}))

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "key": self.key,
            "status": self.status,
            "lane": self.lane,
            "submitter": self.submitter,
            "payload": self.payload,
            "error": self.error,
            "failure_class": self.failure_class,
            "retries": self.retries,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_json(cls, data: dict) -> "JobResult":
        return cls(**data)


# ---------------------------------------------------------------------------
# Execution — runs inside a pool worker process or an in-thread lane.
# ---------------------------------------------------------------------------


def _maybe_crash(spec: JobSpec) -> None:
    """Chaos hook: die like a segfault (no exception, no cleanup)."""
    if not spec.crash:
        return
    if spec.crash_once_path is not None:
        if os.path.exists(spec.crash_once_path):
            return
        with open(spec.crash_once_path, "w") as fh:
            fh.write("crashed\n")
    os._exit(23)


def _build_matrix(spec: JobSpec, workspace=None) -> np.ndarray:
    from repro.utils.rng import random_matrix

    if isinstance(spec.matrix, SharedMatrix):
        # zero-deserialization: view the shared pages the scheduler
        # wrote once, then land them in a pooled arena buffer (zero
        # allocation on a warm worker) or a private copy without one
        view = spec.matrix.attach()
        if workspace is not None:
            return workspace.matrix_like("jobs.inline_a", view)
        return view.copy(order="F")
    if spec.matrix is not None:
        return np.asfortranarray(np.asarray(spec.matrix, dtype=spec.lane))
    kind = "symmetric" if spec.driver == "ft_sytrd" else spec.kind
    return random_matrix(spec.n, kind=kind, seed=spec.seed, dtype=spec.lane)


def _injector(spec: JobSpec):
    if not spec.faults:
        return None
    from repro.faults import FaultInjector, FaultSpec

    return FaultInjector(faults=[FaultSpec(**f) for f in spec.faults])


def _split_injectors(spec: JobSpec):
    """Split a fault plan between the two pipeline stages: reduction
    faults drive :func:`~repro.core.ft_hessenberg.ft_gehrd`, ``qr_*``
    faults drive :func:`~repro.eigen.ft_hqr.ft_hqr`. Returns
    ``(reduction_injector, qr_injector)``, either side None when empty."""
    if not spec.faults:
        return None, None
    from repro.faults import FaultInjector, FaultSpec
    from repro.faults.injector import QR_SPACES

    plan = [FaultSpec(**f) for f in spec.faults]
    red = [f for f in plan if f.space not in QR_SPACES]
    qr = [f for f in plan if f.space in QR_SPACES]
    return (
        FaultInjector(faults=red) if red else None,
        FaultInjector(faults=qr) if qr else None,
    )


def _tier_tally(recoveries, restarts: int) -> dict:
    tally: dict[str, int] = {}
    for rec in recoveries:
        tally[rec.tier] = tally.get(rec.tier, 0) + 1
    if restarts:
        tally["restart"] = tally.get("restart", 0) + restarts
    return tally


def _eig_payload(spec: JobSpec, res, fr) -> dict:
    """The payload rows the scalar and batched eigensolver paths share:
    the spectrum (as ``[re, im]`` pairs, JSON-safe) plus both stages'
    detection/recovery accounting and the QR checkpoint statistics."""
    return {
        "driver": spec.driver,
        "n": spec.order,
        "nb": spec.nb,
        "dtype": spec.lane.name,
        "eigvals": [[float(z.real), float(z.imag)] for z in fr.eigvals],
        "seconds_simulated": float(res.seconds),
        "detections": int(res.detections) + int(fr.detections),
        "recoveries": len(res.recoveries) + len(fr.recoveries),
        "restarts": int(res.restarts),
        "tau_repairs": int(res.tau_repairs),
        "sweeps": int(fr.sweeps),
        "qr_verifications": int(fr.verifications),
        "rollbacks": int(fr.rollbacks),
        "deep_rollbacks": int(fr.deep_rollbacks),
        "checkpoint_saves": int(fr.checkpoint_saves),
        "checkpoint_restores": int(fr.checkpoint_restores),
        "checkpoint_corruptions": int(fr.checkpoint_corruptions),
        "verify_every_final": int(fr.verify_every_final),
        "tier_tally": _tier_tally(
            list(res.recoveries) + list(fr.recoveries), res.restarts
        ),
    }


def _pack_factor(arr: np.ndarray, *, shm_factors: bool, shm_min_bytes: int) -> dict:
    """One factor's payload reference: a shared-memory handle when the
    transport is on and the factor is big enough to beat a pickle,
    inline nested lists otherwise. The segment created here is owned by
    nobody yet — the scheduler adopts it when the payload arrives, and
    the dead-pid sweep reclaims it if the worker dies in between."""
    arr = np.asarray(arr)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if shm_factors and arr.nbytes >= shm_min_bytes and shm_available():
        return {"shm": SharedMatrix.create(arr).to_json()}
    return {"data": arr.tolist(), "dtype": str(arr.dtype)}


def execute_job(
    spec: JobSpec,
    *,
    workspace=None,
    ladder=None,
    shm_factors: bool = False,
    shm_min_bytes: int = DEFAULT_MIN_BYTES,
    max_sweeps: int | None = None,
) -> dict:
    """Run the job's driver and return a JSON-safe outcome payload.

    ``workspace`` is the caller's long-lived scratch arena (one per pool
    worker / in-thread lane); ``ladder`` overrides the FT driver's
    escalation-ladder budgets — the retry policy passes a stricter one
    after an :class:`~repro.errors.EscalationExhausted` failure.
    ``max_sweeps`` similarly overrides the eigensolver drivers' Francis
    stall budget (``max_sweeps_per_eig``) — the retry policy raises it
    after a :class:`~repro.errors.ConvergenceError`.
    ``shm_factors`` lets a ``return_factors`` job ship its H/Q factors
    back as shared-memory handles instead of inline lists (pool workers
    only — an in-thread job has no process line to cross).

    Failures propagate as the driver's own exceptions; classification
    into retryable/permanent is the scheduler's job, not this one's.
    """
    _maybe_crash(spec)
    t0 = time.perf_counter()
    payload: dict = {
        "driver": spec.driver,
        "n": spec.order,
        "nb": spec.nb,
        "dtype": spec.lane.name,
    }
    factors: "dict[str, np.ndarray] | None" = None

    if spec.driver == "gehrd":
        from repro.linalg import extract_hessenberg, factorization_residual, gehrd, orghr

        a = _build_matrix(spec, workspace)
        fact = gehrd(a.copy(order="F"), nb=spec.nb)
        q = orghr(fact.a, fact.taus)
        h = extract_hessenberg(fact.a)
        payload["residual"] = float(factorization_residual(a, q, h))
        if spec.return_factors:
            factors = {"h": h, "q": q}

    elif spec.driver == "hybrid_gehrd":
        from repro.core import HybridConfig, hybrid_gehrd
        from repro.linalg import extract_hessenberg, factorization_residual, orghr

        cfg = HybridConfig(nb=spec.nb)
        arg = _build_matrix(spec, workspace) if spec.functional else spec.order
        res = hybrid_gehrd(arg, cfg, workspace=workspace)
        payload["seconds_simulated"] = float(res.seconds)
        payload["gflops"] = float(res.gflops)
        if spec.functional:
            q = orghr(res.a, res.taus)
            h = extract_hessenberg(res.a)
            payload["residual"] = float(factorization_residual(arg, q, h))
            if spec.return_factors:
                factors = {"h": h, "q": q}

    elif spec.driver == "ft_gehrd":
        from repro.core import FTConfig, ft_gehrd
        from repro.linalg import extract_hessenberg, factorization_residual, orghr

        cfg = FTConfig(
            nb=spec.nb,
            channels=spec.channels,
            audit_every=spec.audit_every,
        )
        if ladder is not None:
            cfg.ladder = ladder
        arg = _build_matrix(spec, workspace) if spec.functional else spec.order
        res = ft_gehrd(arg, cfg, injector=_injector(spec), workspace=workspace)
        payload["seconds_simulated"] = float(res.seconds)
        payload["detections"] = int(res.detections)
        payload["recoveries"] = len(res.recoveries)
        payload["restarts"] = int(res.restarts)
        payload["tau_repairs"] = int(res.tau_repairs)
        payload["tier_tally"] = _tier_tally(res.recoveries, res.restarts)
        if spec.functional:
            q = orghr(res.a, res.taus)
            h = extract_hessenberg(res.a)
            payload["residual"] = float(factorization_residual(arg, q, h))
            if spec.return_factors:
                factors = {"h": h, "q": q}

    elif spec.driver == "ft_sytrd":
        from repro.core import ft_sytrd
        from repro.core.ft_tridiag import DEFAULT_AUDIT_EVERY

        a = _build_matrix(spec, workspace)
        # the tridiagonal driver's audit is mandatory (>= 1); 0 means
        # "driver default" here, unlike the gehrd family where it's "off"
        res = ft_sytrd(
            a,
            audit_every=spec.audit_every or DEFAULT_AUDIT_EVERY,
            injector=_injector(spec),
        )
        payload["detections"] = int(res.detections)
        payload["recoveries"] = len(res.recoveries)
        payload["checks"] = int(res.checks)
        payload["tier_tally"] = _tier_tally(res.recoveries, 0)

    elif spec.driver in EIG_DRIVERS:
        from repro.core import FTConfig, ft_gehrd
        from repro.eigen import hessenberg_eigvecs
        from repro.eigen.ft_hqr import QRProtectConfig, ft_hqr
        from repro.linalg import extract_hessenberg, factorization_residual, orghr

        cfg = FTConfig(
            nb=spec.nb,
            channels=spec.channels,
            audit_every=spec.audit_every,
        )
        if ladder is not None:
            cfg.ladder = ladder
        a = _build_matrix(spec, workspace)
        red_inj, qr_inj = _split_injectors(spec)
        res = ft_gehrd(a, cfg, injector=red_inj, workspace=workspace)
        h = extract_hessenberg(res.a)
        want_z = spec.driver == "ft_schur"
        qcfg = QRProtectConfig(want_z=want_z)
        if max_sweeps:
            qcfg.max_sweeps_per_eig = max_sweeps
        fr = ft_hqr(h, qcfg, injector=qr_inj, check_input=False)
        payload.update(_eig_payload(spec, res, fr))
        q = None
        if want_z or spec.eigvecs:
            q = orghr(res.a, res.taus)
        if want_z:
            qz = np.asfortranarray(q @ fr.z)
            # ‖A − (QZ) T (QZ)ᵀ‖₁ / (N ‖A‖₁): the Schur-form analogue of
            # the Table II factorization residual
            payload["schur_residual"] = float(factorization_residual(a, qz, fr.t))
            if spec.return_factors:
                factors = {"t": np.asarray(fr.t), "z": qz}
        if spec.eigvecs:
            xh = hessenberg_eigvecs(h, fr.eigvals, check_input=False)
            v = q @ xh
            av = np.asarray(a, dtype=np.float64) @ v
            lv = v * fr.eigvals[None, :]
            scale = max(float(np.max(np.abs(a))), 1.0)
            payload["eigvec_residual"] = float(np.max(np.abs(av - lv)) / scale)
            if spec.return_factors:
                factors = dict(factors or {})
                factors["v_re"] = np.ascontiguousarray(v.real)
                factors["v_im"] = np.ascontiguousarray(v.imag)

    elif spec.driver == "campaign":
        from repro.core import FTConfig
        from repro.faults import run_campaign

        a = _build_matrix(spec, workspace)
        res = run_campaign(
            a,
            nb=spec.nb,
            moments=spec.moments,
            seed=spec.seed,
            config=FTConfig(nb=spec.nb, channels=spec.channels),
            adversarial=spec.adversarial,
            workers=1,  # the service already owns the process fan-out
        )
        payload["trials"] = len(res.trials)
        payload["recovery_rate"] = float(res.recovery_rate)
        payload["worst_residual"] = float(res.worst_residual)
        payload["outcomes"] = {k: int(v) for k, v in res.outcome_counts.items()}

    else:  # pragma: no cover - validate() runs first
        raise JobSpecError(f"unknown driver {spec.driver!r}")

    if factors is not None:
        payload["factors"] = {
            name: _pack_factor(arr, shm_factors=shm_factors, shm_min_bytes=shm_min_bytes)
            for name, arr in factors.items()
        }
    payload["elapsed_s"] = time.perf_counter() - t0
    return payload


# -- batched execution (the serve coalescing lane's fast path) --------------

#: Drivers the stacked engine can run (see :mod:`repro.batch`).
#: ``ft_eig`` batches its reduction front through the stacked FT engine
#: and finishes each item with a scalar protected QR — the QR stage is
#: already O(n³) scalar work, so only the reduction's Python overhead
#: needed amortizing.
BATCHABLE_DRIVERS = ("gehrd", "ft_gehrd", "ft_eig")


def batch_compatible(spec: JobSpec) -> bool:
    """Can this spec ride the batched fast path at all?

    Static surface only: functional gehrd/ft_gehrd/ft_eig without
    factors, eigenvectors, audits, chaos hooks, or shared-memory inputs.
    Fault plans *are* allowed — the batched driver ejects faulty items
    to the scalar resilience ladder (and QR-stage faults strike the
    per-item protected QR), so recovery semantics are unchanged.
    """
    return (
        spec.driver in BATCHABLE_DRIVERS
        and spec.functional
        and not spec.crash
        and not spec.return_factors
        and not spec.eigvecs
        and spec.audit_every == 0
        and not isinstance(spec.matrix, SharedMatrix)
    )


def batch_group_key(spec: JobSpec) -> tuple:
    """Jobs sharing this key may run in one stacked execution.

    The precision lane is part of the key: the stacked engine runs one
    dtype per `(B, n, n)` stack, so fp32 and fp64 jobs at identical
    shapes still bucket into separate batch lanes.
    """
    return (spec.driver, spec.order, spec.nb, spec.channels, spec.lane.name)


def execute_jobs_batched(specs: list[JobSpec], *, workspace=None) -> dict:
    """Run a group of batch-compatible jobs through the stacked engine.

    All *specs* must share one :func:`batch_group_key`. Returns::

        {"outcomes": [...], "ejections": int, "batch_size": int}

    where each outcome is ``{"ok": True, "payload": dict}`` — a payload
    with exactly the keys :func:`execute_job` would produce for that
    spec (byte-identical numerics; only the wall-clock ``elapsed_s``,
    reported as the batch wall divided by the batch size, differs) — or
    ``{"ok": False, "error": BaseException}`` for an item whose scalar
    re-run failed. Item failures never poison siblings; a *batch-level*
    failure (bad group, engine bug) raises instead, and the caller
    re-routes the whole group to the scalar path.
    """
    if not specs:
        return {"outcomes": [], "ejections": 0, "batch_size": 0}
    bad = [s for s in specs if not batch_compatible(s)]
    keys = {batch_group_key(s) for s in specs}
    if bad or len(keys) != 1:
        raise JobSpecError(
            f"incompatible batch group: {len(bad)} unbatchable specs, "
            f"{len(keys)} distinct group keys"
        )
    driver, n, nb, channels, _lane = keys.pop()

    from repro.batch import (
        as_item_f_stack,
        factorization_residuals_batched,
        ft_gehrd_batched,
        gehrd_batched,
    )
    from repro.linalg import extract_hessenberg, orghr

    t0 = time.perf_counter()
    mats = [_build_matrix(spec, workspace) for spec in specs]

    stack = as_item_f_stack(mats)  # the drivers copy; this stays pristine
    outcomes: list[dict] = []
    ejections = 0

    def _residuals(idx: list[int], packed: list, taus: list) -> np.ndarray:
        """Batched Q formation + Table II residuals for items *idx*."""
        a_pack = as_item_f_stack(packed)
        qs = orghr(a_pack, np.stack(taus))
        return factorization_residuals_batched(stack[idx], qs, extract_hessenberg(a_pack))

    if driver == "ft_eig":
        from repro.core import FTConfig
        from repro.eigen.ft_hqr import QRProtectConfig, ft_hqr

        cfg = FTConfig(nb=nb, channels=channels, audit_every=0)
        split = [_split_injectors(spec) for spec in specs]
        br = ft_gehrd_batched(
            stack, cfg, injectors=[s[0] for s in split], workspace=workspace
        )
        ejections = len(br.ejected)
        for i, spec in enumerate(specs):
            if i in br.errors:
                outcomes.append({"ok": False, "error": br.errors[i]})
                continue
            res = br.results[i]
            try:
                fr = ft_hqr(
                    extract_hessenberg(res.a),
                    QRProtectConfig(want_z=False),
                    injector=split[i][1],
                    check_input=False,
                )
            except BaseException as exc:  # noqa: BLE001 - item retry isolation
                outcomes.append({"ok": False, "error": exc})
                continue
            outcomes.append({"ok": True, "payload": _eig_payload(spec, res, fr)})

    elif driver == "gehrd":
        facts = gehrd_batched(stack, nb=nb, workspace=workspace)
        residuals = _residuals(
            list(range(len(specs))),
            [f.a for f in facts],
            [f.taus for f in facts],
        )
        for spec, r in zip(specs, residuals):
            payload = {
                "driver": spec.driver,
                "n": n,
                "nb": nb,
                "dtype": spec.lane.name,
                "residual": float(r),
            }
            outcomes.append({"ok": True, "payload": payload})
    else:
        from repro.core import FTConfig

        cfg = FTConfig(nb=nb, channels=channels, audit_every=0)
        injectors = [_injector(spec) for spec in specs]
        br = ft_gehrd_batched(stack, cfg, injectors=injectors, workspace=workspace)
        ejections = len(br.ejected)
        ok_idx = [i for i in range(len(specs)) if i not in br.errors]
        residuals = dict(
            zip(
                ok_idx,
                _residuals(
                    ok_idx,
                    [br.results[i].a for i in ok_idx],
                    [br.results[i].taus for i in ok_idx],
                ),
            )
        ) if ok_idx else {}
        for i, spec in enumerate(specs):
            if i in br.errors:
                outcomes.append({"ok": False, "error": br.errors[i]})
                continue
            res = br.results[i]
            payload = {
                "driver": spec.driver,
                "n": n,
                "nb": nb,
                "dtype": spec.lane.name,
                "seconds_simulated": float(res.seconds),
                "detections": int(res.detections),
                "recoveries": len(res.recoveries),
                "restarts": int(res.restarts),
                "tau_repairs": int(res.tau_repairs),
                "tier_tally": _tier_tally(res.recoveries, res.restarts),
                "residual": float(residuals[i]),
            }
            outcomes.append({"ok": True, "payload": payload})

    per_item = (time.perf_counter() - t0) / len(specs)
    for oc in outcomes:
        if oc["ok"]:
            oc["payload"]["elapsed_s"] = per_item
    return {"outcomes": outcomes, "ejections": ejections, "batch_size": len(specs)}


# -- pool-worker entry points (top-level, so they pickle) -------------------


def pool_worker_init() -> None:
    """Prime a pool worker: import the hot modules and create the
    per-process scratch arena once, off the first job's latency."""
    import repro.core  # noqa: F401  (driver import cost paid here)
    from repro.perf.workspace import process_workspace

    process_workspace()


def execute_job_pooled(
    spec: JobSpec,
    ladder=None,
    shm_factors: bool = False,
    shm_min_bytes: int = DEFAULT_MIN_BYTES,
    max_sweeps: int | None = None,
) -> dict:
    """Worker-side wrapper binding the per-process Workspace arena."""
    from repro.perf.workspace import process_workspace

    return execute_job(
        spec,
        workspace=process_workspace(),
        ladder=ladder,
        shm_factors=shm_factors,
        shm_min_bytes=shm_min_bytes,
        max_sweeps=max_sweeps,
    )
