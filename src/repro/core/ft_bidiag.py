"""Fault-tolerant bidiagonal reduction — the third two-sided
factorization of the family the paper's conclusion targets, protecting
the SVD front-end (``B = Qᵀ A P``) the way FT-Hess protects the
eigensolver front-end.

Design, mirroring :mod:`repro.core.ft_tridiag` at column-step
granularity, with the twist that each step applies *two* reflectors —
a left (column) one and a right (row) one:

* checksum-extended operands: the row-checksum column rides the left
  application directly; the column-checksum row rides nothing — its left
  correction is computed from the data and its right correction **from
  the maintained checksums** (the detection-channel asymmetry);
* both applications are restricted to the *active* block
  (rows/columns ``i..n-1``): the finished lines' storage holds the
  packed reflectors and is mathematically zero there;
* two-tier detection: the cheap ``ΣAr_chk − ΣAc_chk`` test per step,
  plus a periodic full audit (every ``audit_every`` steps) against the
  band-masked mathematical matrix;
* recovery reverses step by step (each Householder is an involution),
  restoring each step's column/row pair from a diskless buffer, until
  the residual pattern decodes — then corrects and re-executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.detection import ThresholdPolicy
from repro.abft.qprotect import QProtector
from repro.abft.location import LocatedError, decode_residuals
from repro.core.results import RecoveryEvent
from repro.errors import ConvergenceError, ShapeError, UncorrectableError
from repro.faults.injector import FaultInjector, InjectionRecord
from repro.linalg.flops import FlopCounter
from repro.linalg.householder import larfg
from repro.linalg.verify import one_norm

DEFAULT_AUDIT_EVERY = 16


@dataclass
class FTBidiagResult:
    """Outcome of the fault-tolerant bidiagonal reduction."""

    a: np.ndarray              # packed: band = B, reflectors off-band
    tau_q: np.ndarray
    tau_p: np.ndarray
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    detections: int = 0
    checks: int = 0
    counter: FlopCounter = field(default_factory=FlopCounter)


@dataclass
class _StepRecord:
    """Reversal material for one finished step."""

    i: int
    tau_q: float
    d: float                  # diagonal beta of the left reflector
    u: np.ndarray             # full left reflector (leading 1)
    tau_p: float
    e: float                  # superdiagonal beta of the right reflector
    v: np.ndarray | None      # full right reflector (None when i >= n-2)
    row_pre: np.ndarray       # row i's trailing values after the left app,
    #                           before the right reflector overwrote them
    freeze_gap: float         # |frozen − maintained| checksum discrepancy
    r_i_post: float           # r[i] before the freeze overwrote it — the
    #                           left-reversal (H_u) mixes r[i] into r[i+1:],
    #                           so the frozen value must not leak in
    cp_col: np.ndarray        # pre-step column i of the extended matrix
    cp_row: np.ndarray        # pre-step row i of the extended matrix


class _FTGebd2State:
    """Working state shared by the driver's helpers."""

    def __init__(self, a: np.ndarray, norm_a: float, counter: FlopCounter):
        n = a.shape[0]
        self.n = n
        self.norm_a = norm_a
        self.counter = counter
        self.ext = np.zeros((n + 1, n + 1), order="F")
        self.ext[:n, :n] = a
        e = np.ones(n)
        self.ext[:n, n] = self.ext[:n, :n] @ e
        self.ext[n, :n] = e @ self.ext[:n, :n]
        counter.add("abft_init", 4.0 * n * n)
        self.tau_q = np.zeros(n)
        self.tau_p = np.zeros(max(n - 1, 0))

    @property
    def r(self) -> np.ndarray:
        return self.ext[: self.n, self.n]

    @property
    def c(self) -> np.ndarray:
        return self.ext[self.n, : self.n]

    def gap(self) -> float:
        return abs(float(np.sum(self.r)) - float(np.sum(self.c)))

    def masked_math(self, finished: int) -> np.ndarray:
        """Mathematical matrix: finished lines exactly bidiagonal."""
        n = self.n
        m = self.ext[:n, :n].copy()
        for j in range(min(finished, n)):
            m[j + 1 :, j] = 0.0      # below the diagonal of a finished column
            m[j, j + 2 :] = 0.0      # right of the superdiagonal of a finished row
        return m

    def fresh_sums(self, finished: int) -> tuple[np.ndarray, np.ndarray]:
        mm = self.masked_math(finished)
        e = np.ones(self.n)
        self.counter.add("abft_locate", 4.0 * self.n * self.n)
        return mm @ e, e @ mm

    # -- the forward step ------------------------------------------------------

    def apply_step(self, i: int) -> _StepRecord:
        """One bidiagonalization step (left + right reflector) on the
        extended operands."""
        n, ext = self.n, self.ext
        cp_col = ext[0 : n + 1, i].copy()
        cp_row = ext[i, 0 : n + 1].copy()

        # ---- left (column) reflector ------------------------------------
        refl_q = larfg(ext[i, i], ext[i + 1 : n, i], counter=self.counter,
                       category="gebd2")
        tq, d = refl_q.tau, refl_q.beta
        ustore = refl_q.v.copy()
        ext[i, i] = 1.0
        u = ext[i:n, i].copy()
        if tq != 0.0:
            # rows i.. of the ACTIVE columns + the checksum column; the
            # checksum row gets the data-computed correction.
            block_l = ext[i:n, i : n + 1]
            wl = u @ block_l
            block_l -= tq * np.outer(u, wl)
            ext[n, i:n] -= tq * float(np.sum(u)) * wl[: n - i]
            self.counter.add("bidiag_update", 4.0 * (n - i) * (n - i + 1))
            self.counter.add("abft_maintain", 2.0 * (n - i))

        # ---- right (row) reflector ----------------------------------------
        tp, ev, vstore, v = 0.0, 0.0, None, None
        row_pre = ext[i, i + 1 : n].copy()  # post-left values (reversal needs them)
        # freeze-gap checkpoint: right after the left application the
        # riding r[i] must equal the true row sum d + Σ(row_pre); a
        # corruption consumed by this step breaks the equality (later
        # the row-reflector machinery overwrites the row, invalidating
        # any direct comparison)
        freeze_gap = abs(float(ext[i, n]) - (d + float(np.sum(row_pre))))
        if i < n - 2:
            refl_p = larfg(ext[i, i + 1], ext[i, i + 2 : n], counter=self.counter,
                           category="gebd2")
            tp, ev = refl_p.tau, refl_p.beta
            vstore = refl_p.v.copy()
            ext[i, i + 1] = 1.0
            v = ext[i, i + 1 : n].copy()
            if tp != 0.0:
                # columns i+1.. of the ACTIVE rows; Ar_chk gets the
                # data-computed correction, Ac_chk the maintained one.
                block_r = ext[i:n, i + 1 : n]
                wr = block_r @ v
                block_r -= tp * np.outer(wr, v)
                ext[i:n, n] -= tp * float(np.sum(v)) * wr
                chk = float(ext[n, i + 1 : n] @ v)
                ext[n, i + 1 : n] -= tp * chk * v
                self.counter.add("bidiag_update", 4.0 * (n - i) * (n - i - 1))
                self.counter.add("abft_maintain", 4.0 * (n - i))
        elif i == n - 2:
            ev = float(ext[i, i + 1])  # superdiagonal value, no reflector

        r_i_post = float(ext[i, n])
        # ---- freeze the finished column/row into packed storage -----------
        ext[i, i] = d
        ext[i + 1 : n, i] = ustore
        if i < n - 2:
            ext[i, i + 1] = ev
            ext[i, i + 2 : n] = vstore
        # freeze the finished lines' checksums to the mathematical values,
        # recording the discrepancy (a band corruption would otherwise be
        # silently absorbed)
        csum = float(ext[i - 1, i] + ext[i, i]) if i > 0 else float(ext[i, i])
        rsum = float(ext[i, i] + (ext[i, i + 1] if i < n - 1 else 0.0))
        ext[n, i] = csum
        ext[i, n] = rsum
        self.counter.add("abft_maintain", 4.0)

        self.tau_q[i] = tq
        if i < n - 2:
            self.tau_p[i] = tp
        full_v = None
        if v is not None:
            full_v = v
        return _StepRecord(
            i=i, tau_q=tq, d=d, u=u, tau_p=tp, e=ev, v=full_v,
            row_pre=row_pre, freeze_gap=freeze_gap, r_i_post=r_i_post,
            cp_col=cp_col, cp_row=cp_row,
        )

    def reverse_step(self, rec: _StepRecord) -> None:
        """Undo one step exactly (both reflectors are involutions)."""
        n, ext, i = self.n, self.ext, rec.i
        # restore the post-right working forms the reversal operates on:
        # column i was H_u u = -u after the left app (untouched by the
        # right app); row i was H_v v = -v after the right app.
        ext[i:n, i] = -rec.u if rec.tau_q != 0.0 else rec.u
        ext[i, n] = rec.r_i_post
        if rec.v is not None and rec.tau_p != 0.0:
            ext[i, i + 1 : n] = -rec.v
        elif rec.v is not None:
            ext[i, i + 1 : n] = rec.v
        else:
            ext[i, i + 1 : n] = rec.row_pre

        # ---- reverse the right application --------------------------------
        if rec.v is not None and rec.tau_p != 0.0:
            v, tp = rec.v, rec.tau_p
            block_r = ext[i:n, i + 1 : n]
            wr = block_r @ v
            block_r -= tp * np.outer(wr, v)
            ext[i:n, n] += tp * float(np.sum(v)) * (block_r @ v)
            chk_post = float(ext[n, i + 1 : n] @ v)
            denom = 1.0 - tp * float(v @ v)
            if abs(denom) > 1e-300:
                ext[n, i + 1 : n] += tp * (chk_post / denom) * v
            # un-generate the row reflector: put back the post-left row
            ext[i, i + 1 : n] = rec.row_pre
            self.counter.add("abft_recover", 8.0 * (n - i) * (n - i - 1))

        # ---- reverse the left application ----------------------------------
        if rec.tau_q != 0.0:
            u, tq = rec.u, rec.tau_q
            block_l = ext[i:n, i : n + 1]
            wl = u @ block_l
            block_l -= tq * np.outer(u, wl)
            ext[n, i:n] += tq * float(np.sum(u)) * (u @ ext[i:n, i:n])
            self.counter.add("abft_recover", 8.0 * (n - i) * (n - i + 1))

        # ---- restore the pre-step column/row pair ---------------------------
        ext[0 : n + 1, i] = rec.cp_col
        ext[i, 0 : n + 1] = rec.cp_row
        self.tau_q[i] = 0.0
        if i < n - 2:
            self.tau_p[i] = 0.0


def ft_gebd2(
    a: np.ndarray,
    *,
    threshold: ThresholdPolicy | None = None,
    eps_factor_locate: float = 1.0e3,
    audit_every: int = DEFAULT_AUDIT_EVERY,
    max_simultaneous: int = 4,
    max_retries: int = 3,
    injector: FaultInjector | None = None,
    counter: FlopCounter | None = None,
) -> FTBidiagResult:
    """Fault-tolerant reduction of square *a* to upper bidiagonal form.

    *injector* faults use :class:`~repro.faults.FaultSpec` plans; the
    ``iteration`` field indexes bidiagonalization *steps* here.

    Raises :class:`ConvergenceError` on persistent errors and
    :class:`UncorrectableError` for undecodable patterns, like the other
    FT drivers.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"ft_gebd2 needs a square matrix, got {a.shape}")
    if audit_every < 1:
        raise ShapeError(f"audit_every must be >= 1, got {audit_every}")
    n = a.shape[0]

    counter = counter if counter is not None else FlopCounter()
    norm_a = one_norm(a)
    policy = threshold or ThresholdPolicy()
    st = _FTGebd2State(np.asarray(a, dtype=np.float64), norm_a, counter)
    # reflector-storage protection: column reflectors live below the
    # diagonal (offset 1); row reflectors right of the superdiagonal —
    # i.e. below the first subdiagonal of the TRANSPOSE (offset 2).
    qprot_cols = QProtector(n, eps_factor=eps_factor_locate, offset=1)
    qprot_rows = QProtector(n, eps_factor=eps_factor_locate, offset=2)

    recoveries: list[RecoveryEvent] = []
    detections = 0
    checks = 0
    eps = float(np.finfo(np.float64).eps)
    line_tol = eps_factor_locate * eps * max(1.0, norm_a) * n

    buffer: list[_StepRecord] = []
    audit_base = 0
    retries = 0

    def audit(finished: int) -> list[LocatedError]:
        fr, fc = st.fresh_sums(finished)
        dr = fr - st.r
        dc = fc - st.c
        return decode_residuals(dr.copy(), dc.copy(), line_tol)

    def correct(errors: list[LocatedError], finished: int) -> None:
        for err in errors:
            if err.kind == "data":
                if not (0 <= err.row < n and 0 <= err.col < n):
                    raise UncorrectableError(
                        f"bidiag error index out of range: ({err.row}, {err.col})"
                    )
                st.ext[err.row, err.col] = float(st.ext[err.row, err.col]) - err.magnitude
            elif err.kind == "row_checksum":
                fr, _ = st.fresh_sums(finished)
                st.ext[err.row, n] = float(fr[err.row])
            else:
                _, fc = st.fresh_sums(finished)
                st.ext[n, err.col] = float(fc[err.col])

    def rollback_and_correct() -> tuple[int, list[LocatedError]]:
        last_err: UncorrectableError | None = None
        while buffer:
            rec = buffer.pop()
            if qprot_cols.finished_cols == rec.i + 1:
                qprot_cols.rollback_panel(st.ext[:n, :n], rec.i, 1)
                qprot_rows.rollback_panel(st.ext[:n, :n].T, rec.i, 1)
            st.reverse_step(rec)
            redo_from = rec.i
            try:
                errors = audit(redo_from)
            except UncorrectableError as exc:
                last_err = exc
                continue
            if len([e for e in errors if e.kind == "data"]) > max_simultaneous:
                continue
            if errors:
                correct(errors, redo_from)
                if audit(redo_from):
                    continue
            return redo_from, errors
        raise UncorrectableError(
            "rollback exhausted the reversal buffer without a decodable state"
            + (f" (last: {last_err})" if last_err else "")
        )

    i = 0
    while i < n:
        if injector is not None:
            _inject(injector, st.ext, n, i)

        rec = st.apply_step(i)
        buffer.append(rec)

        checks += 1
        gap = max(st.gap(), rec.freeze_gap)
        tier1 = gap > policy.threshold(n, norm_a, float(np.sum(st.r)), float(np.sum(st.c)))
        boundary = (i + 1 - audit_base >= audit_every) or (i + 1 == n)
        tier2_errors: list[LocatedError] = []
        if not tier1 and boundary:
            tier2_errors = audit(i + 1)

        if tier1 or tier2_errors:
            detections += 1
            retries += 1
            if retries > max_retries:
                raise ConvergenceError(
                    f"ft_gebd2: errors persisted past {max_retries} retries near step {i}"
                )
            redo_from, errors = rollback_and_correct()
            recoveries.append(
                RecoveryEvent(iteration=i, p=redo_from, gap=gap, errors=errors,
                              retries=retries)
            )
            i = redo_from
            continue

        retries = 0
        qprot_cols.update_for_panel(st.ext[:n, :n], i, 1, counter=counter)
        qprot_rows.update_for_panel(st.ext[:n, :n].T, i, 1, counter=counter)
        i += 1
        if boundary:
            audit_base = i
            buffer.clear()

    # end-of-run reflector-storage verification (both factors)
    qprot_cols.verify_and_correct(st.ext[:n, :n], counter=counter)
    # NOTE: the transpose is a VIEW so row-reflector corrections land in
    # the real storage
    qprot_rows.verify_and_correct(st.ext[:n, :n].T, counter=counter)

    return FTBidiagResult(
        a=np.asfortranarray(st.ext[:n, :n]),
        tau_q=st.tau_q,
        tau_p=st.tau_p,
        recoveries=recoveries,
        detections=detections,
        checks=checks,
        counter=counter,
    )


def _inject(injector: FaultInjector, ext: np.ndarray, n: int, step: int) -> None:
    for idx, f in enumerate(injector.faults):
        if f.iteration != step or idx in injector._fired:
            continue
        if f.space == "matrix":
            old = float(ext[f.row, f.col])
            new = f.corrupt(old)
            ext[f.row, f.col] = new
        elif f.space == "row_checksum":
            old = float(ext[f.row, n])
            new = f.corrupt(old)
            ext[f.row, n] = new
        else:
            old = float(ext[n, f.col])
            new = f.corrupt(old)
            ext[n, f.col] = new
        injector.injected.append(InjectionRecord(spec=f, old_value=old, new_value=new))
        injector._fired.add(idx)
