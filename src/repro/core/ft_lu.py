"""Post-processing fault-tolerant linear solve — a faithful rendition of
the HPL-style related work (Du, Luszczek, Dongarra, the paper's refs
[6]-[7]), built on the shared toolkit.

The contrast with FT-Hess, measured like-for-like: this scheme corrects
nothing during the run. It rides checksum columns through the
elimination, checks **once at the end**, and repairs the *solution*
(not the factors) by post-processing:

1. **equivalence** — the right-looking elimination is linear in the
   trailing data, so a single soft error of magnitude ``m`` at (i, j)
   mid-run produces exactly the factors of ``A + m·e_i e_jᵀ`` (provided
   the pivot sequence is unchanged — the scheme's standing assumption,
   which the paper's on-line design does not need);
2. **detection** — ``L⁻¹P`` maps the riding checksum columns to
   ``U Wᵀ``; end-of-run residual ``chk − U w`` nonzero ⇒ an error
   happened;
3. **location** — that residual equals ``m · w(j) · L⁻¹P e_i``: the
   weighted/unit channel ratio yields the column ``j``, and one forward
   solve ``L y = residual`` collapses to a (pivoted) unit vector whose
   support is the row ``i`` and whose value is ``m``;
4. **correction** — Sherman-Morrison on the factored ``M = A + m e_i e_jᵀ``:
   ``x = x̃ + (m x̃_j / (1 − m z_j)) z`` with ``z = M⁻¹ e_i`` — one extra
   solve, no refactorization.

Like the original, the scheme corrects at most the errors its end-of-run
residual can disentangle (we decode exactly one; refs [6]-[7] reach two)
— versus one per *iteration* for the paper's design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.encoding import make_weight_block
from repro.errors import ShapeError, UncorrectableError
from repro.faults.injector import FaultInjector
from repro.linalg.flops import FlopCounter
from repro.linalg.getrf import getrf, getrs
from repro.linalg.verify import one_norm


@dataclass
class FTLUResult:
    """Outcome of the post-processing FT solve."""

    x: np.ndarray
    detected: bool = False
    corrected: bool = False
    error_row: int = -1
    error_col: int = -1
    error_magnitude: float = 0.0
    counter: FlopCounter = field(default_factory=FlopCounter)


def ft_lu_solve(
    a: np.ndarray,
    b: np.ndarray,
    *,
    eps_factor: float = 1.0e3,
    injector: FaultInjector | None = None,
    counter: FlopCounter | None = None,
) -> FTLUResult:
    """Solve ``A x = b`` with end-of-run (post-processing) soft-error
    correction of the solution.

    *injector* faults strike the working matrix at elimination step
    ``iteration`` (one fault maximum is correctable — the scheme's
    design point; more raise :class:`UncorrectableError`).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"ft_lu_solve needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if b.shape != (n,):
        raise ShapeError(f"b must have length {n}, got {b.shape}")
    counter = counter if counter is not None else FlopCounter()
    norm_a = one_norm(a)
    eps = float(np.finfo(np.float64).eps)
    tol = eps_factor * eps * max(1.0, norm_a) * n

    weights = make_weight_block(n, 2)
    ext = np.zeros((n, n + 2), order="F")
    ext[:, :n] = a
    ext[:, n:] = a @ weights.T
    counter.add("abft_init", 4.0 * n * n)

    # ---- factorize, checksum columns riding; faults strike per step -----
    piv = np.arange(n)
    for k in range(n):
        if injector is not None:
            injector.apply_to_array(ext, k)
        p = k + int(np.argmax(np.abs(ext[k:n, k])))
        piv[k] = p
        if p != k:
            ext[[k, p], :] = ext[[p, k], :]
        if ext[k, k] == 0.0:
            raise UncorrectableError(f"singular pivot at column {k}")
        if k + 1 < n:
            ext[k + 1 : n, k] /= ext[k, k]
            ext[k + 1 : n, k + 1 :] -= np.outer(ext[k + 1 : n, k], ext[k, k + 1 :])
            counter.add("getrf", 2.0 * (n - k - 1) * (n - k + 1))

    # ---- end-of-run detection (the post-processing scheme's only check) --
    u = np.triu(ext[:, :n])
    residual = ext[:, n:] - u @ weights.T          # (n, 2)
    counter.add("abft_detect", 4.0 * n * n)
    hot = float(np.max(np.abs(residual)))

    x_tilde = getrs(ext[:, :n], piv, np.asarray(b, dtype=np.float64), counter=counter)
    if hot <= tol:
        return FTLUResult(x=x_tilde, detected=False, corrected=False, counter=counter)

    # ---- location -----------------------------------------------------------
    # residual column q = m·w_q(j) · L⁻¹P e_i ⇒ the channel ratio is the
    # constant w₁(j) across every nonzero component
    r0, r1 = residual[:, 0], residual[:, 1]
    support = np.abs(r0) > tol
    if not np.any(support):
        raise UncorrectableError("weighted channel hot but unit channel cold")
    ratios = r1[support] / r0[support]
    ratio = float(np.median(ratios))
    if np.max(np.abs(ratios - ratio)) > 1e-6 * max(1.0, abs(ratio)):
        raise UncorrectableError(
            "inconsistent channel ratios — more than one error (this "
            "post-processing scheme corrects a single error; the paper's "
            "on-line design corrects one per iteration)"
        )
    j = int(round(ratio * n)) - 1
    if not (0 <= j < n):
        raise UncorrectableError(f"ratio test gave column {j}")
    # residual₀ = m · L⁻¹ P e_i ⇒ multiplying by L recovers the pivoted
    # unit vector m · P e_i
    l_factor = np.tril(ext[:, :n], -1) + np.eye(n)
    y = l_factor @ r0
    counter.add("abft_locate", float(n) * n)
    idx = int(np.argmax(np.abs(y)))
    # residual = chk − Uw = −m · L⁻¹P e_i · w(j): negate to get the true m
    m_val = -float(y[idx])
    rest = np.abs(y).copy()
    rest[idx] = 0.0
    if float(np.max(rest)) > max(tol, 1e-6 * abs(m_val)):
        raise UncorrectableError("location vector is not a single spike")
    # un-pivot: the spike sits at the row's position after the swaps
    perm = np.arange(n)
    for k in range(n):
        p = int(piv[k])
        if p != k:
            perm[k], perm[p] = perm[p], perm[k]
    i = int(perm[idx])

    # ---- Sherman-Morrison correction of the solution -------------------------
    # factors are those of M = A + m e_i e_jᵀ; solve A x = b through them
    e_i = np.zeros(n)
    e_i[i] = 1.0
    z = getrs(ext[:, :n], piv, e_i, counter=counter)
    denom = 1.0 - m_val * z[j]
    if abs(denom) < 1e-14:
        raise UncorrectableError("Sherman-Morrison denominator vanished")
    x = x_tilde + (m_val * x_tilde[j] / denom) * z
    counter.add("abft_correct", 4.0 * n)

    return FTLUResult(
        x=x,
        detected=True,
        corrected=True,
        error_row=i,
        error_col=j,
        error_magnitude=m_val,  # sign-corrected above
        counter=counter,
    )
