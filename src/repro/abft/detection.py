"""Soft-error detection (paper §IV-C lines 12–13).

At the end of every iteration the two checksum vectors must agree in
total: ``Sre = Σᵢ Ar_chk(i)`` and ``Sce = Σⱼ Ac_chk(j)`` are both the
grand sum of the mathematical matrix. A soft error in the data perturbs
one of them through the maintained updates while leaving the other
unchanged (or perturbs them differently), so ``|Sre − Sce|`` beyond a
roundoff threshold signals an error.

The paper prescribes a threshold "larger than the machine epsilon by 2 to
3 orders of magnitude"; in a finite-precision implementation the
comparison must additionally be scaled by the data magnitude (the grand
sums accumulate ~N² terms of size ~‖A‖), which is what
:class:`ThresholdPolicy` encodes. At float32 the fixed norm-scaled rule
is too loose to be useful (23 fewer mantissa bits push the worst-case
bound far above the fault magnitudes worth catching), so the policy grows
a variance-adaptive kind — V-ABFT — that scales with the *observed*
second moment of the checksum state instead of the a-priori norm bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DetectionError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.abft.encoding import EncodedMatrix
from repro.utils.precision import lane_eps

#: Paper default: eps * 10^3 (2–3 orders of magnitude above machine epsilon).
DEFAULT_EPS_FACTOR = 1.0e3

#: Default k-sigma headroom of the variance-adaptive ("variance") kind.
#: The gap statistic accumulates ~n·m2-scaled rounding noise with standard
#: deviation ≈ eps·sqrt(n·m2); 24 sigmas of headroom keeps fault-free fp32
#: reductions false-positive-free across the calibration grid (n ≤ 512,
#: all matrix kinds) while staying ~2 orders of magnitude below the
#: norm-bound rule at float32.
DEFAULT_SIGMA_FACTOR = 24.0


def checksum_second_moment(em: EncodedMatrix) -> float:
    """``m2`` statistic for the variance kind: Σ r_chk² + Σ c_chk².

    Computed in float64 over the *maintained* checksum banks — O(n) work
    per check, no touch of the n² data block. On consistent state each
    bank holds the column/row sums of the mathematical matrix, so
    ``n·m2`` tracks ``n²·E[a²]``-scale energy, exactly the variance scale
    of the roundoff accumulated by the grand sums.
    """
    rc = np.asarray(em.row_checksums, dtype=np.float64)
    cc = np.asarray(em.col_checksums, dtype=np.float64)
    return float(np.sum(rc * rc) + np.sum(cc * cc))


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the detection threshold is derived.

    ``threshold = eps_factor * machine_eps(dtype) * scale`` where *scale* is:

    * ``"norm"``   — ``max(1, ‖A₀‖₁) · N`` captured at encode time (robust
      across magnitudes, the policy our ablation bench compares),
    * ``"running"``— ``max(1, |Sre|, |Sce|) · N`` evaluated per check,
    * ``"absolute"``— 1 (the paper's literal prescription; only safe for
      O(1)-scaled data),

    plus two dtype-aware kinds:

    * ``"variance"`` — V-ABFT: ``sigma_factor · eps(dtype) · sqrt(N·m2)``
      with ``m2`` the observed second moment of the maintained checksum
      banks (:func:`checksum_second_moment`). Self-scaling: tightens on
      graded/decaying data where the norm bound is loose, and keeps the
      false-positive rate pinned as eps grows 2^29x from fp64 to fp32.
    * ``"auto"`` (default) — ``"norm"`` at float64 (bit-identical to the
      historical default) and ``"variance"`` below double precision.
    """

    kind: str = "auto"
    eps_factor: float = DEFAULT_EPS_FACTOR
    sigma_factor: float = DEFAULT_SIGMA_FACTOR

    def resolve(self, dtype: object = np.float64) -> str:
        """The concrete kind used for *dtype* (``"auto"`` dispatches)."""
        if self.kind != "auto":
            return self.kind
        return "norm" if np.dtype(dtype).itemsize >= 8 else "variance"

    def needs_m2(self, dtype: object = np.float64) -> bool:
        """Whether :meth:`threshold` wants the ``m2`` checksum moment."""
        return self.resolve(dtype) == "variance"

    def threshold(
        self,
        n: int,
        norm_a: float,
        sre: float,
        sce: float,
        *,
        dtype: object = np.float64,
        m2: float | None = None,
    ) -> float:
        return self.bound(self.resolve(dtype), lane_eps(dtype), n, norm_a, sre, sce, m2)

    def bound(
        self,
        kind: str,
        eps: float,
        n: int,
        norm_a: float,
        sre: float = 0.0,
        sce: float = 0.0,
        m2: float | None = None,
    ) -> float:
        """:meth:`threshold` for an already resolved *kind* and lane *eps*."""
        if kind == "variance":
            if m2 is not None and math.isfinite(m2):
                return self.sigma_factor * eps * math.sqrt(max(float(n) * m2, 1.0))
            # No checksum state in sight (e.g. a bare scalar check):
            # degrade to the norm bound at this dtype's eps.
            kind = "norm"
        if kind == "norm":
            scale = max(1.0, norm_a) * n
        elif kind == "running":
            scale = max(1.0, abs(sre), abs(sce)) * n
        elif kind == "absolute":
            scale = 1.0
        else:
            raise DetectionError(f"unknown threshold policy kind {self.kind!r}")
        return self.eps_factor * eps * scale


@dataclass
class Detector:
    """Per-factorization detector holding the threshold context.

    Attributes
    ----------
    policy:
        The threshold derivation rule.
    norm_a:
        1-norm of the input matrix, captured before the factorization
        starts (used by the ``"norm"`` policy).
    checks, detections:
        Counters for reporting.
    """

    policy: ThresholdPolicy
    norm_a: float
    checks: int = 0
    detections: int = 0
    _run: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _constants(self, em: EncodedMatrix) -> tuple[str, float, int, float | None]:
        """The per-run constants of :meth:`check`: the resolved policy
        kind, the lane eps, the flop charge and, for the ``norm`` and
        ``absolute`` kinds, the threshold itself. They are derived once
        and kept under a key of everything they read, so a detector
        reused on another matrix re-derives them."""
        n, dtype, k = em.n, em.ext.dtype, getattr(em, "k", 1)
        key = (n, dtype, k, self.policy, self.norm_a)
        if self._run is None or self._run[0] != key:
            kind = self.policy.resolve(dtype)
            eps = lane_eps(dtype)
            fixed = (
                self.policy.bound(kind, eps, n, self.norm_a)
                if kind in ("norm", "absolute")
                else None
            )
            self._run = (key, (kind, eps, 2 * k * k * F.dot_flops(n), fixed))
        return self._run[1]

    def check(self, em: EncodedMatrix, *, counter: FlopCounter | None = None) -> bool:
        """Return True when a soft error is detected (paper lines 12–13).

        On the paper's single-channel encoding this compares
        ``ΣAr_chk`` against ``ΣAc_chk`` — two length-N sum reductions
        (``FLOP_D`` in §V). With k weighted channels every cross statistic
        ``r_p·w_q − c_q·w_p`` (each side equals ``w_qᵀ A w_p`` on
        consistent state) is checked, which widens coverage — e.g. the
        symmetric diagonal-drift blind spot of the unit statistic.
        """
        flops = self._constants(em)[2]
        sre = float(np.sum(em.row_checksums))
        sce = float(np.sum(em.col_checksums))
        self.checks += 1
        if counter is not None:
            counter.add("abft_detect", flops)
        # A non-finite sum is itself a detection: an exponent-field bit
        # flip can turn an element into Inf/NaN, and NaN would otherwise
        # compare False against any threshold.
        if not (math.isfinite(sre) and math.isfinite(sce)):
            self.detections += 1
            return True
        if getattr(em, "k", 1) > 1:
            gaps = em.cross_gaps()
            if not np.all(np.isfinite(gaps)):
                self.detections += 1
                return True
            gap = float(np.max(gaps))
        else:
            gap = abs(sre - sce)
        if gap > self.tolerance(em, sre, sce):
            self.detections += 1
            return True
        return False

    def tolerance(self, em: EncodedMatrix, sre: float, sce: float) -> float:
        """The threshold :meth:`check` compares the gap with, given the
        grand sums *sre* and *sce* (read by the ``running`` kind; the
        ``variance`` kind reads the checksum moment of *em*)."""
        kind, eps, _, fixed = self._constants(em)
        if fixed is not None:
            return fixed
        m2 = checksum_second_moment(em) if kind == "variance" else None
        return self.policy.bound(kind, eps, em.n, self.norm_a, sre, sce, m2)
