"""Fault-tolerant symmetric tridiagonal reduction — the paper's stated
future work ("the entire spectrum of two-sided factorizations"),
implemented with the same ABFT toolkit as FT-Hess.

Design, transplanted from Algorithm 3 to the symmetric case (column
granularity — the reduction is rank-2-update based, so the "panel" is a
single column):

* the input is checksum-encoded: row-checksum column ``Ar_chk`` and
  column-checksum row ``Ac_chk``;
* each Householder similarity ``A ← H A H`` is applied on extended
  operands. ``Ar_chk`` rides the left application as an extra column and
  receives the data-computed right correction; ``Ac_chk`` receives the
  data-computed left correction but its right correction is derived
  **from the maintained checksums** — the FT-Hess asymmetry that turns a
  corruption into a growing ``ΣAr_chk − ΣAc_chk`` gap;
* **two-tier detection.** The cheap Σ-gap test runs after every column.
  For a *symmetric* matrix it has a genuine blind spot the Hessenberg
  case does not: a corruption on the diagonal drifts both checksum
  vectors identically (H is symmetric, so the left image of ``e_i`` and
  the right image of ``e_iᵀ`` coincide) and the gap stays zero. A second
  tier — a full fresh-vs-maintained checksum audit, O(N²) — therefore
  runs every ``audit_every`` columns and at the end, bounding the extra
  work by ``2N³/audit_every`` flops and the detection latency by
  ``audit_every`` columns;
* recovery rolls back column by column to the last audited state —
  a Householder transform is an involution (``H = Hᵀ = H⁻¹``), so each
  reversal re-applies the same H — restoring each column/row pair from a
  diskless buffer that holds at most ``audit_every`` pairs (the same
  panel-sized ``S ≈ nb·N`` storage class as the paper's §V), then
  locates by fresh checksums, corrects by the residual magnitude, and
  re-executes the rolled-back columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.detection import DEFAULT_EPS_FACTOR, ThresholdPolicy
from repro.abft.qprotect import QProtector
from repro.abft.location import MAX_SIMULTANEOUS, LocatedError, decode_residuals
from repro.core.results import RecoveryEvent
from repro.errors import ConvergenceError, ShapeError, UncorrectableError
from repro.faults.injector import FaultInjector, InjectionTargets
from repro.linalg.flops import FlopCounter
from repro.linalg.householder import larfg
from repro.linalg.sytd2 import check_symmetric
from repro.linalg.verify import one_norm
from repro.perf.workspace import Workspace
from repro.resilience.ladder import MAX_RETRIES
from repro.resilience.tau_guard import TauGuard

DEFAULT_AUDIT_EVERY = 16


@dataclass
class FTTridiagResult:
    """Outcome of the fault-tolerant tridiagonal reduction."""

    a: np.ndarray              # packed: band = T, reflectors below subdiag
    taus: np.ndarray
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    detections: int = 0
    checks: int = 0
    counter: FlopCounter = field(default_factory=FlopCounter)


@dataclass
class _ColumnRecord:
    """Reversal material for one finished column."""

    j: int
    tau: float
    beta: float
    v: np.ndarray              # full reflector vector (leading 1 included)
    cp_col: np.ndarray         # pre-step column j of the extended matrix
    cp_row: np.ndarray         # pre-step row j of the extended matrix
    row_junk: np.ndarray       # roundoff residue zeroed out of row j
    freeze_gap: float = 0.0    # |frozen − maintained| checksum discrepancy:
    #                            a corruption sitting on the band would be
    #                            silently absorbed by the freeze otherwise


class _FTSytrdState:
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
        self.taus = np.zeros(max(n - 1, 0))
        # scratch arena for the rank-2 update temporaries (the outer
        # products and GEMV results below); checkpoint copies stay
        # per-record — they must outlive the column that made them
        self.ws = Workspace()

    # -- checksum views ------------------------------------------------------

    @property
    def r(self) -> np.ndarray:
        return self.ext[: self.n, self.n]

    @property
    def c(self) -> np.ndarray:
        return self.ext[self.n, : self.n]

    def gap(self) -> float:
        return abs(float(np.sum(self.r)) - float(np.sum(self.c)))

    def masked_math(self, finished: int) -> np.ndarray:
        """Mathematical matrix: finished part exactly tridiagonal."""
        n = self.n
        m = self.ext[:n, :n].copy()
        for j in range(min(finished, n)):
            m[j + 2 :, j] = 0.0
            m[j, j + 2 :] = 0.0
        return m

    def fresh_sums(self, finished: int) -> tuple[np.ndarray, np.ndarray]:
        mm = self.masked_math(finished)
        e = np.ones(self.n)
        self.counter.add("abft_locate", 4.0 * self.n * self.n)
        return mm @ e, e @ mm

    # -- the column step ------------------------------------------------------

    def apply_column(self, j: int) -> _ColumnRecord:
        """One Householder similarity on the extended operands."""
        n, ext = self.n, self.ext
        cp_col = ext[0 : n + 1, j].copy()
        cp_row = ext[j, 0 : n + 1].copy()

        refl = larfg(ext[j + 1, j], ext[j + 2 : n, j], counter=self.counter, category="sytd2")
        tau, beta = refl.tau, refl.beta
        # refl.v is a view into column j, which the left application below
        # transforms in place (H u = −u); keep the true vector for storage.
        vstore = refl.v.copy()
        ext[j + 1, j] = 1.0
        v = ext[j + 1 : n, j].copy()

        if tau != 0.0:
            ws = self.ws
            s = float(np.sum(v))
            g = ws.vec("sytd.g", n + 1)
            # LEFT: rows j+1.. of the *active* columns (finished columns
            # are mathematically zero below the band there — touching
            # their storage would destroy the packed reflectors) plus the
            # checksum column (Ar_chk rides along, staying
            # data-consistent); the checksum ROW gets the data-computed
            # left correction over the same active range.
            block_l = ext[j + 1 : n, j : n + 1]
            wl = ws.vec("sytd.wl", n + 1 - j)
            np.matmul(v, block_l, out=wl)
            outer = ws.buf("sytd.outer", block_l.shape, order="C")
            np.outer(v, wl, out=outer)
            outer *= tau
            block_l -= outer
            np.multiply(wl[: n - j], tau * s, out=g[: n - j])
            ext[n, j:n] -= g[: n - j]
            # RIGHT: columns j+1.. of the *active* rows (finished rows
            # are mathematically zero there — touching them would let a
            # stale corruption in the masked wedge leak into the
            # maintained checksums); Ar_chk gets the data-computed
            # correction, Ac_chk the *maintained*-checksum correction
            # (the detection channel).
            block_r = ext[j:n, j + 1 : n]
            wr = ws.vec("sytd.wr", n - j)
            np.matmul(block_r, v, out=wr)
            outer = ws.buf("sytd.outer", block_r.shape, order="C")
            np.outer(wr, v, out=outer)
            outer *= tau
            block_r -= outer
            np.multiply(wr, tau * s, out=g[: n - j])
            ext[j:n, n] -= g[: n - j]
            chk_rv = float(ext[n, j + 1 : n] @ v)
            np.multiply(v, tau * chk_rv, out=g[: n - j - 1])
            ext[n, j + 1 : n] -= g[: n - j - 1]
            m = n - j - 1
            self.counter.add("tridiag_update", 8.0 * m * n)
            self.counter.add("abft_maintain", 8.0 * m + 4.0 * n)

        # freeze the finished column/row into packed tridiagonal storage
        ext[j + 1, j] = beta
        ext[j, j + 1] = beta
        ext[j + 2 : n, j] = vstore
        row_junk = ext[j, j + 2 : n].copy()
        ext[j, j + 2 : n] = 0.0
        # freeze checksum entries to the mathematical (tridiagonal) values
        # — explicitly from the band: summing raw storage would pick up
        # the physically-zeroed wedge, where a stale corruption may sit
        csum = float(ext[j, j])
        if j > 0:
            csum += float(ext[j - 1, j])
        if j + 1 < n:
            csum += float(ext[j + 1, j])
        ext[n, j] = csum
        rsum = float(ext[j, j])
        if j > 0:
            rsum += float(ext[j, j - 1])
        if j + 1 < n:
            rsum += float(ext[j, j + 1])
        # only the r side is validly maintained pre-freeze (the column
        # checksum's left correction reads the working reflector column)
        freeze_gap = abs(rsum - float(ext[j, n]))
        ext[j, n] = rsum
        self.counter.add("abft_maintain", 2.0 * n)

        self.taus[j] = tau
        full_v = np.empty(n - j - 1)
        full_v[0] = 1.0
        full_v[1:] = vstore
        return _ColumnRecord(
            j=j, tau=tau, beta=beta, v=full_v, cp_col=cp_col, cp_row=cp_row,
            row_junk=row_junk, freeze_gap=freeze_gap,
        )

    def reverse_column(self, rec: _ColumnRecord) -> None:
        """Undo one column step exactly (H is an involution)."""
        n, ext, j = self.n, self.ext, rec.j
        # un-freeze the packed storage back to the post-update working form
        ext[j + 1, j] = 1.0
        ext[j + 2 : n, j] = rec.v[1:]
        ext[j, j + 2 : n] = rec.row_junk
        v, tau = rec.v, rec.tau
        if tau != 0.0:
            ws = self.ws
            s = float(np.sum(v))
            g = ws.vec("sytd.g", n + 1)
            # reverse the RIGHT application (last applied, first reversed)
            block_r = ext[0:n, j + 1 : n]
            wr = ws.vec("sytd.wr", n)
            np.matmul(block_r, v, out=wr)
            outer = ws.buf("sytd.outer", block_r.shape, order="C")
            np.outer(wr, v, out=outer)
            outer *= tau
            block_r -= outer
            np.matmul(block_r, v, out=wr)
            np.multiply(wr, tau * s, out=g[:n])
            ext[0:n, n] += g[:n]
            # Ac_chk right correction was built from the PRE-update row;
            # recover it from the post state: c_pre = c_post + τ(c_pre·v)v
            # ⇒ (c_pre·v) = (c_post·v) / (1 − τ|v|²)
            chk_post = float(ext[n, j + 1 : n] @ v)
            denom = 1.0 - tau * float(v @ v)
            if abs(denom) > 1e-300:
                np.multiply(v, tau * (chk_post / denom), out=g[: n - j - 1])
                ext[n, j + 1 : n] += g[: n - j - 1]
            # reverse the LEFT application (same active-column range)
            block_l = ext[j + 1 : n, j : n + 1]
            wl = ws.vec("sytd.wl", n + 1 - j)
            np.matmul(v, block_l, out=wl)
            outer = ws.buf("sytd.outer", block_l.shape, order="C")
            np.outer(v, wl, out=outer)
            outer *= tau
            block_l -= outer
            np.matmul(v, ext[j + 1 : n, j:n], out=g[: n - j])
            g[: n - j] *= tau * s
            ext[n, j:n] += g[: n - j]
            self.counter.add("abft_recover", 16.0 * (n - j - 1) * n)
        # restore the pre-step column/row pair from the diskless buffer
        ext[0 : n + 1, j] = rec.cp_col
        ext[j, 0 : n + 1] = rec.cp_row
        self.taus[j] = 0.0


def ft_sytrd(
    a: np.ndarray,
    *,
    audit_every: int = DEFAULT_AUDIT_EVERY,
    injector: FaultInjector | None = None,
) -> FTTridiagResult:
    """Fault-tolerant reduction of symmetric *a* to tridiagonal form.

    *injector* faults use the same :class:`~repro.faults.FaultSpec` plans
    as FT-Hess; the ``iteration`` field indexes *columns* here. The
    detection threshold, the location margin, the decode bound and the
    retry budget are ``ft_gehrd``'s defaults.

    Raises :class:`ConvergenceError` on errors that persist past
    :data:`~repro.resilience.ladder.MAX_RETRIES` re-executions and
    :class:`UncorrectableError` for undecodable multi-error patterns.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"ft_sytrd needs a square matrix, got {a.shape}")
    n = a.shape[0]
    check_symmetric(a, "ft_sytrd")
    if audit_every < 1:
        raise ShapeError(f"audit_every must be >= 1, got {audit_every}")

    counter = FlopCounter()
    norm_a = one_norm(a)
    policy = ThresholdPolicy()
    st = _FTSytrdState(np.asarray(a, dtype=np.float64), norm_a, counter)
    qprot = QProtector(n)
    tau_guard = TauGuard(st.taus.size)

    recoveries: list[RecoveryEvent] = []
    detections = 0
    checks = 0
    eps = float(np.finfo(np.float64).eps)
    line_tol = DEFAULT_EPS_FACTOR * eps * max(1.0, norm_a) * n

    buffer: list[_ColumnRecord] = []  # reversal material since last audit
    audit_base = 0                    # first column not yet audited
    retries_here = 0

    def audit(finished: int) -> list[LocatedError]:
        """Full fresh-vs-maintained comparison; returns decoded errors."""
        fr, fc = st.fresh_sums(finished)
        dr = fr - st.r
        dc = fc - st.c
        return decode_residuals(dr.copy(), dc.copy(), line_tol)

    def correct(errors: list[LocatedError], finished: int) -> None:
        for err in errors:
            if err.kind == "data":
                i, jj = err.row, err.col
                if not (0 <= i < n and 0 <= jj < n):
                    raise UncorrectableError(f"tridiag error index out of range: ({i}, {jj})")
                st.ext[i, jj] = float(st.ext[i, jj]) - err.magnitude
            elif err.kind == "row_checksum":
                fr, _ = st.fresh_sums(finished)
                st.ext[err.row, n] = float(fr[err.row])
            else:
                _, fc = st.fresh_sums(finished)
                st.ext[n, err.col] = float(fc[err.col])

    def rollback_and_correct() -> tuple[int, list[LocatedError]]:
        """Reverse column-by-column until the residual pattern decodes.

        The corruption delta is a single element only at states at or
        before its injection point (reversing *through* the faulty update
        is exact — reversal is linear in the data — but reversing past
        transforms applied *before* the corruption smears it). Reversing
        one column at a time and attempting location after each step
        stops exactly where the pattern is clean. A decode that claims
        more than ``MAX_SIMULTANEOUS`` data errors, or two or more that
        all lie on the diagonal, is a smeared state masquerading as
        decodable (a symmetric rank-1 drift pattern decodes as one
        "error" per diagonal element) — keep reversing.
        """
        last_err: UncorrectableError | None = None
        while buffer:
            rec = buffer.pop()
            qprot.rollback_panel(st.ext[:n, :n], rec.j, 1)
            st.reverse_column(rec)
            tau_guard.rollback(rec.j, 1)
            redo_from = rec.j
            try:
                errors = audit(redo_from)
            except UncorrectableError as exc:
                last_err = exc
                continue
            data = [e for e in errors if e.kind == "data"]
            if len(data) > MAX_SIMULTANEOUS or (
                len(data) >= 2 and all(e.row == e.col for e in data)
            ):
                continue  # smeared pseudo-decodable state; keep reversing
            if errors:
                correct(errors, redo_from)
                if audit(redo_from):
                    continue  # correction did not clean the state; keep reversing
            return redo_from, errors
        raise UncorrectableError(
            f"rollback exhausted the reversal buffer without a decodable state"
            + (f" (last: {last_err})" if last_err else "")
        )

    cp_view = _SytrdCheckpointView(buffer)

    def inject(phase: str, column: int, panel_v: np.ndarray | None = None) -> None:
        """Phase-aware hook, mirroring ft_gehrd's: the raw extended
        matrix, the taus, the reflector-protection checksums, and the
        newest column checkpoint are all inside the fault surface."""
        if injector is None:
            return
        injector.apply_phase(
            column,
            phase,
            InjectionTargets(
                ext=st.ext, n=n, k=1, taus=st.taus, qprot=qprot,
                checkpoint=cp_view, panel_v=panel_v,
            ),
        )

    j = 0
    last_cols = max(n - 2, 0)
    while j < last_cols:
        inject("boundary", j)

        rec = st.apply_column(j)
        buffer.append(rec)
        # the column's tau and reflector checksums are committed before
        # anything can strike them; a rollback un-commits both
        tau_guard.record(st.taus, j, 1)
        qprot.update_for_panel(st.ext[:n, :n], j, 1, counter=counter)
        inject("post_panel", j, panel_v=rec.v.reshape(-1, 1))

        # tier 1: cheap Σ-gap test after every column, plus the freeze
        # discrepancy (catches corruption sitting on the band itself)
        checks += 1
        gap = max(st.gap(), rec.freeze_gap)
        tier1 = gap > policy.threshold(n, norm_a, float(np.sum(st.r)), float(np.sum(st.c)))
        # tier 2: periodic full audit (catches the symmetric blind spot)
        boundary = (j + 1 - audit_base >= audit_every) or (j + 1 == last_cols)
        tier2_errors: list[LocatedError] = []
        if not tier1 and boundary:
            tier2_errors = audit(j + 1)

        if tier1 or tier2_errors:
            detections += 1
            retries_here += 1
            if retries_here > MAX_RETRIES:
                raise ConvergenceError(
                    f"ft_sytrd: errors persisted past {MAX_RETRIES} retries near column {j}"
                )
            inject("during_recovery", j)
            redo_from, errors = rollback_and_correct()
            recoveries.append(
                RecoveryEvent(iteration=j, p=redo_from, gap=gap, errors=errors,
                              retries=retries_here)
            )
            j = redo_from  # redo the rolled-back columns
            continue

        retries_here = 0
        j += 1
        if boundary:
            audit_base = j
            buffer.clear()

    # faults planned at or past the last column strike the finished state
    # (the final audit and the reflector check below still see them)
    if injector is not None:
        injector.apply_pending_after(
            InjectionTargets(ext=st.ext, n=n, k=1, taus=st.taus, qprot=qprot,
                             checkpoint=cp_view),
            last_cols,
        )

    # final audit over the fully reduced matrix
    checks += 1
    final_errors = audit(n)
    if final_errors:
        detections += 1
        # at this point nothing remains to redo; correct in place
        correct(final_errors, n)
        recoveries.append(
            RecoveryEvent(iteration=last_cols, p=n, gap=st.gap(), errors=final_errors, retries=1)
        )

    # reflector-storage protection (the analogue of the paper's Q check):
    # verified once, at the end — a packed-vector or tau corruption
    # cannot propagate but would silently corrupt the orthogonal factor.
    tau_guard.verify_and_repair(st.taus)
    qprot.verify_and_correct(st.ext[:n, :n], counter=counter)

    return FTTridiagResult(
        a=np.asfortranarray(st.ext[:n, :n]),
        taus=st.taus,
        recoveries=recoveries,
        detections=detections,
        checks=checks,
        counter=counter,
    )


class _SytrdCheckpointView:
    """Adapter exposing the newest column checkpoint through the
    :class:`~repro.faults.injector.InjectionTargets` checkpoint protocol
    (``.current.panel``): the reversal buffer's pre-step column copy is
    just as much inside the fault surface as ft_gehrd's panel buffer."""

    @dataclass
    class _View:
        panel: np.ndarray

    def __init__(self, buffer: list[_ColumnRecord]):
        self._buffer = buffer

    @property
    def current(self):
        if not self._buffer:
            return None
        return self._View(panel=self._buffer[-1].cp_col.reshape(-1, 1))
