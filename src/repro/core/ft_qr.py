"""Fault-tolerant QR factorization — the related-work comparator.

The paper positions FT-Hess against one-sided ABFT schemes for LU/QR
(Du et al., refs [6]-[8]). This module implements a one-sided ABFT QR in
that spirit, sharing the toolkit of the rest of the repository, so the
two design points can be compared like-for-like:

* **encoding** — checksum *columns* only: ``[A | A Wᵀ]``. Left-applied
  Householder transforms preserve the row-wise relationship
  ``chk_q(i) = Σ_j M(i,j) w_q(j)`` for free (the checksum columns simply
  ride every reflector application).
* **detection** — one-sided encodings have **no cheap Σ-test**: the two
  quantities the Hessenberg detector compares in O(N) both live on the
  same (row) side here and agree trivially. Detection is a per-panel
  audit of fresh masked row sums against the checksum columns — O(N²)
  per audit, O(N³/nb) over the run. This cost-structure difference is
  exactly what the paper's two-sided design buys.
* **location** — a bad row's residual gives the row and magnitude; the
  column needs the weighted channel's ratio test (``channels >= 2``).
  With the paper-era single channel, in-place correction is impossible
  and the scheme degrades to Du et al.'s detect-and-post-process.
* **recovery** — panels reverse from packed storage alone (the aggregate
  block reflector is orthogonal and V/T are reconstructible), so no
  diskless checkpoint is needed at all; the rollback unwinds panel by
  panel until the residual pattern decodes, then corrects and redoes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.detection import ThresholdPolicy
from repro.abft.encoding import make_weight_block
from repro.abft.location import LocatedError
from repro.abft.qprotect import QProtector
from repro.core.results import RecoveryEvent
from repro.errors import ConvergenceError, ShapeError, UncorrectableError
from repro.faults.injector import FaultInjector, InjectionRecord
from repro.linalg.flops import FlopCounter
from repro.linalg.geqrf import geqr2
from repro.linalg.verify import one_norm
from repro.linalg.wy import larfb, larft


@dataclass
class FTQRResult:
    """Outcome of the fault-tolerant QR factorization."""

    a: np.ndarray              # packed: R upper, reflectors below
    taus: np.ndarray
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    detections: int = 0
    checks: int = 0
    counter: FlopCounter = field(default_factory=FlopCounter)


class _FTQRState:
    def __init__(self, a: np.ndarray, channels: int, counter: FlopCounter):
        n = a.shape[0]
        self.n = n
        self.k = channels
        self.counter = counter
        self.weights = make_weight_block(n, channels)
        self.ext = np.zeros((n, n + self.k), order="F")
        self.ext[:, :n] = a
        self.ext[:, n:] = a @ self.weights.T
        counter.add("abft_init", 2.0 * self.k * n * n)
        self.taus = np.zeros(n)

    def masked_math(self, finished: int) -> np.ndarray:
        """Mathematical matrix: finished columns' sub-diagonal storage
        (the packed reflectors) counts as zero."""
        n = self.n
        m = self.ext[:, :n].copy()
        for j in range(min(finished, n)):
            m[j + 1 :, j] = 0.0
        return m

    def audit_residuals(self, finished: int) -> np.ndarray:
        """(n, k) fresh-minus-maintained row residuals."""
        fresh = self.masked_math(finished) @ self.weights.T
        self.counter.add("abft_detect", 2.0 * self.k * self.n * self.n)
        return fresh - self.ext[:, self.n :]

    def extract_panel(self, p: int, ib: int) -> tuple[np.ndarray, np.ndarray]:
        """(V, T) of a completed panel from packed storage."""
        m = self.n
        v = np.zeros((m - p, ib), order="F")
        for j in range(ib):
            v[j, j] = 1.0
            v[j + 1 :, j] = self.ext[p + j + 1 : m, p + j]
        t = larft(v, self.taus[p : p + ib])
        return v, t

    def reverse_panel(self, p: int, ib: int) -> None:
        """Undo a completed panel: ``M_pre = U · M_post`` over the
        extended columns, with the panel's reflector storage masked to
        its mathematical zeros first."""
        m, n, k = self.n, self.n, self.k
        v, t = self.extract_panel(p, ib)
        for j in range(ib):
            self.ext[p + j + 1 : m, p + j] = 0.0
        block = self.ext[p:m, p : n + k]
        w = t @ (v.T @ block)
        block -= v @ w
        self.taus[p : p + ib] = 0.0
        self.counter.add(
            "abft_recover", 4.0 * (m - p) * (n + k - p) * ib
        )


def _decode_qr(
    res_block: np.ndarray, weights: np.ndarray, tol: float, max_simultaneous: int
) -> list[LocatedError]:
    """Ratio-decode the (n, k) row residuals of the one-sided encoding."""
    n, k = res_block.shape
    bad = [
        i
        for i in range(n)
        if np.any(~np.isfinite(res_block[i])) or np.any(np.abs(res_block[i]) > tol)
    ]
    if not bad:
        return []
    errors: list[LocatedError] = []
    for i in bad:
        m = float(res_block[i, 0])
        hot = [q for q in range(k) if abs(res_block[i, q]) > tol]
        if hot and abs(m) <= tol:
            # only a non-unit channel is hot: its checksum element was hit
            q = hot[0]
            errors.append(LocatedError("row_checksum", i, -1, float(-res_block[i, q]), q))
            continue
        if k < 2:
            raise UncorrectableError(
                f"one-sided ABFT located bad row {i} but column localization "
                "needs the weighted channel (channels=2) — with a single "
                "channel the scheme can only detect, as in the post-processing "
                "related work"
            )
        ratio = float(res_block[i, 1]) / m
        j = int(round(ratio * n)) - 1
        if not (0 <= j < n):
            # unit channel only → the unit checksum element itself was hit
            if all(abs(res_block[i, q]) <= tol for q in range(1, k)):
                errors.append(LocatedError("row_checksum", i, -1, float(-m), 0))
                continue
            raise UncorrectableError(f"row {i}: ratio test gave column {j}")
        target = m * weights[:, j]
        if np.any(np.abs(res_block[i] - target) > max(tol, 1e-8 * abs(m))):
            raise UncorrectableError(f"row {i}: residuals inconsistent with one error")
        errors.append(LocatedError("data", i, j, m))
    if len([e for e in errors if e.kind == "data"]) > max_simultaneous:
        raise UncorrectableError("too many simultaneous errors decoded — smeared state")
    return errors


def ft_geqrf(
    a: np.ndarray,
    *,
    nb: int = 32,
    channels: int = 2,
    threshold: ThresholdPolicy | None = None,
    eps_factor_locate: float = 1.0e3,
    max_simultaneous: int = 4,
    max_retries: int = 3,
    injector: FaultInjector | None = None,
    counter: FlopCounter | None = None,
) -> FTQRResult:
    """Fault-tolerant QR of the square matrix *a* (one-sided ABFT).

    *injector* faults index *panels* via their ``iteration`` field;
    ``space="row_checksum"`` targets the checksum column of the fault's
    ``channel`` (always channel 0 through the standard FaultSpec).

    Raises :class:`ConvergenceError` on persistent errors and
    :class:`UncorrectableError` when a pattern cannot be decoded (always
    the case for data errors under ``channels=1`` — the comparison point
    with the paper's two-sided design).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"ft_geqrf needs a square matrix, got {a.shape}")
    n = a.shape[0]
    counter = counter if counter is not None else FlopCounter()
    norm_a = one_norm(a)
    eps = float(np.finfo(np.float64).eps)
    tol = eps_factor_locate * eps * max(1.0, norm_a) * n

    st = _FTQRState(np.asarray(a, dtype=np.float64), channels, counter)
    qprot = QProtector(n, eps_factor=eps_factor_locate, offset=1)
    recoveries: list[RecoveryEvent] = []
    detections = 0
    checks = 0
    retries = 0

    plan: list[tuple[int, int]] = []
    p = 0
    while p < n:
        ib = min(nb, n - p)
        plan.append((p, ib))
        p += ib

    def correct(errors: list[LocatedError], finished: int) -> None:
        for err in errors:
            if err.kind == "data":
                # paper-style dot-product correction along the row
                row = st.masked_math(finished)[err.row]
                row[err.col] = 0.0
                st.ext[err.row, err.col] = float(st.ext[err.row, n]) - float(np.sum(row))
            else:
                row = st.masked_math(finished)[err.row]
                st.ext[err.row, n + err.channel] = float(row @ st.weights[err.channel])

    it = 0
    while it < len(plan):
        p, ib = plan[it]
        if injector is not None:
            _inject_qr(injector, st.ext, n, it)

        # factor the panel (reflectors ride the checksum columns too)
        geqr2(st.ext, p, p + ib, ncols_apply=p + ib, taus_out=st.taus, counter=counter)
        if p + ib < n + st.k:
            v, t = st.extract_panel(p, ib)
            larfb(
                v, t, st.ext[p:n, p + ib : n + st.k],
                side="left", trans=True, counter=counter, category="qr_update",
            )

        # per-panel audit (one-sided ABFT has no cheap Σ test)
        checks += 1
        res_block = st.audit_residuals(p + ib)
        hot = bool(np.any(~np.isfinite(res_block)) or np.any(np.abs(res_block) > tol))
        if not hot:
            retries = 0
            qprot.update_for_panel(st.ext[:, :n], p, ib, counter=counter)
            it += 1
            continue

        detections += 1
        retries += 1
        if retries > max_retries:
            raise ConvergenceError(
                f"ft_geqrf: errors persisted past {max_retries} retries near panel {it}"
            )
        back = it
        errors: list[LocatedError] = []
        while True:
            pb, ibb = plan[back]
            if qprot.finished_cols == pb + ibb:
                qprot.rollback_panel(st.ext[:, :n], pb, ibb)
            st.reverse_panel(pb, ibb)
            try:
                res_b = st.audit_residuals(pb)
                errors = _decode_qr(res_b, st.weights, tol, max_simultaneous)
                if errors:
                    correct(errors, pb)
                    if np.any(np.abs(st.audit_residuals(pb)) > tol):
                        raise UncorrectableError("correction did not clean the state")
                break
            except UncorrectableError:
                if back == 0:
                    raise
                back -= 1
        recoveries.append(
            RecoveryEvent(iteration=it, p=plan[back][0], gap=float("nan"),
                          errors=errors, retries=retries)
        )
        it = back

    # end-of-run reflector-storage verification (the Q factor)
    qprot.verify_and_correct(st.ext[:, :n], counter=counter)

    return FTQRResult(
        a=np.asfortranarray(st.ext[:, :n]),
        taus=st.taus,
        recoveries=recoveries,
        detections=detections,
        checks=checks,
        counter=counter,
    )


def _inject_qr(injector: FaultInjector, ext: np.ndarray, n: int, panel: int) -> None:
    for idx, f in enumerate(injector.faults):
        if f.iteration != panel or idx in injector._fired:
            continue
        if f.space == "matrix":
            old = float(ext[f.row, f.col])
            new = f.corrupt(old)
            ext[f.row, f.col] = new
        elif f.space == "row_checksum":
            old = float(ext[f.row, n])
            new = f.corrupt(old)
            ext[f.row, n] = new
        else:  # col_checksum has no analogue in the one-sided encoding
            continue
        injector.injected.append(InjectionRecord(spec=f, old_value=old, new_value=new))
        injector._fired.add(idx)
