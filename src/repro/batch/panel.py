"""Batched panel factorization (stacked DLAHR2) and reflector generation.

``lahr2_batched`` mirrors :func:`repro.linalg.lahr2.lahr2` **call for
call**: every scalar GEMV/GEMM becomes one stacked ``np.matmul`` over
``(B, ...)`` operands, every scalar assignment becomes the same
assignment with a leading batch axis.  Because each item of every stack
is F-contiguous (see :mod:`repro.batch.stack`) and a stacked matmul
performs the identical per-item GEMM, the results agree with B scalar
calls byte for byte.

The only delicate piece of DLARFG — ``beta``/``tau`` from
``math.hypot``/``math.copysign`` (Python's hypot is correctly rounded;
``np.hypot`` is allowed to differ by 1 ulp) — is vectorized through
``np.hypot`` only after a one-time byte-parity probe
(:func:`hypot_vectorizes_exactly`) proves that this platform's
``np.hypot`` agrees bit-for-bit with ``math.hypot`` across an
adversarial magnitude grid (denormals, near-overflow magnitudes,
huge/tiny mixes) plus dense ordinary-mantissa pairs.  On platforms
where the probe finds any mismatch, only the hypot itself falls back to
a per-item ``math.hypot`` sweep — beta/tau/denominator stay vectorized
— so batched-vs-scalar byte parity is preserved either way.  Zero-norm
items
take the LAPACK identity branch (``tau = 0``), enforced by masking the
scaling so no ``0/0`` poisons the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter
from repro.linalg.lahr2 import PanelFactors
from repro.perf.workspace import Workspace

from repro.batch.stack import stack_buf

#: Cached verdict of the np.hypot-vs-math.hypot byte-parity probe
#: (``None`` until first use).
_HYPOT_PARITY: bool | None = None


def hypot_vectorizes_exactly() -> bool:
    """One-time probe: does ``np.hypot`` match ``math.hypot`` bit-for-bit?

    Python's ``math.hypot`` is correctly rounded by contract; C library
    ``hypot`` (which ``np.hypot`` dispatches to) is correctly rounded on
    every mainstream libm but is not *guaranteed* to be.  The probe
    sweeps an adversarial magnitude grid — exact zeros, denormals,
    values near the overflow/underflow thresholds, and huge/tiny mixed
    pairs whose naive ``sqrt(a*a + b*b)`` would overflow or lose the
    small operand — and compares the raw result bytes.  The verdict is
    cached for the process; :func:`larfg_batched` only takes its
    vectorized ``np.hypot`` tail when the probe passes, so a platform
    with a sloppy libm silently keeps the byte-exact per-item loop.
    """
    global _HYPOT_PARITY
    if _HYPOT_PARITY is None:
        mags = np.array(
            [
                0.0,
                5e-324,          # smallest subnormal
                1e-310,          # subnormal
                2.2250738585072014e-308,  # smallest normal
                1e-300, 1e-155, 1e-30, 1e-16,
                0.5, 1.0, 1.5, 3.0, 6.25, 1e3,
                1e16, 1e30, 1e155, 1e300,
                8.988465674311579e307,    # ~DBL_MAX/2
            ]
        )
        a = np.repeat(mags, mags.size)
        c = np.tile(mags, mags.size)
        # Ordinary full-mantissa pairs are essential: NumPy builds where
        # np.hypot is an in-house SIMD kernel rather than libm miss
        # correct rounding on a dense fraction (~0.5%) of *typical*
        # operands while agreeing on every special-magnitude case above,
        # so a grid-only probe would pass exactly where it must fail.
        rng = np.random.default_rng(0x5AFE)
        ra = rng.standard_normal(8192) * np.exp(rng.uniform(-20, 20, 8192))
        rc = np.abs(rng.standard_normal(8192)) * np.exp(rng.uniform(-20, 20, 8192))
        a = np.concatenate([a, ra])
        c = np.concatenate([c, rc])
        got = np.hypot(a, c)
        want = np.array([math.hypot(x, y) for x, y in zip(a.tolist(), c.tolist())])
        _HYPOT_PARITY = got.tobytes() == want.tobytes()
    return _HYPOT_PARITY


@dataclass
class PanelFactorsBatch:
    """Stacked panel factors: item ``b`` of every array is exactly the
    scalar :class:`~repro.linalg.lahr2.PanelFactors` field for matrix
    ``b`` (see :meth:`item`)."""

    p: int
    ib: int
    v: np.ndarray        # (B, n-p-1, ib)
    t: np.ndarray        # (B, ib, ib)
    y: np.ndarray        # (B, n, ib)
    taus: np.ndarray     # (B, ib)
    ei: np.ndarray       # (B,)
    v_full: np.ndarray   # (B, rows, ib)

    def item(self, b: int) -> PanelFactors:
        """Scalar-shaped view of item *b*'s factors (shares storage)."""
        return PanelFactors(
            p=self.p, ib=self.ib, v=self.v[b], t=self.t[b], y=self.y[b],
            taus=self.taus[b], ei=float(self.ei[b]), v_full=self.v_full[b],
        )


def larfg_batched(
    alpha: np.ndarray,
    x: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larfg",
) -> tuple[np.ndarray, np.ndarray]:
    """Generate B reflectors at once (stacked DLARFG).

    *alpha* is the (B,) pivot values, *x* the (B, m) below-pivot block,
    scaled in place to the Householder vectors.  Returns ``(beta, tau)``
    arrays; items with a zero norm get the LAPACK identity reflector
    (``beta = alpha, tau = 0``) and their *x* row is left untouched.
    """
    if x.ndim != 2:
        raise ShapeError(f"larfg_batched expects a (B, m) block, got {x.shape}")
    b, m = x.shape
    if counter is not None:
        counter.add(category, F.batched_flops(b, F.larfg_flops(m + 1)))
    # beta/tau/denom live in the stack dtype so the per-item arithmetic
    # reproduces the scalar larfg exactly in both lanes: the scalar code
    # computes tau and the scaling denominator with a *weak* Python-float
    # beta against the strong element dtype (NEP 50), i.e. in x.dtype —
    # which is what computing from the cast ``bt_c = beta[i]`` does here.
    beta = np.empty(b, dtype=x.dtype)
    tau = np.zeros(b, dtype=x.dtype)
    if m == 0:
        beta[:] = alpha
        return beta, tau
    # per-item sqrt(x . x) — bitwise what np.linalg.norm computes on a
    # 1-D vector
    xnorm = np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
    active = xnorm != 0.0
    denom = np.ones(b, dtype=x.dtype)
    # Vectorized tail.  The scalar kernel runs hypot/copysign on Python
    # floats (i.e. in float64) and casts the result once into the lane
    # dtype before deriving tau and the scaling denominator — reproduced
    # here operation for operation, so the bytes match B scalar calls
    # exactly.  Only the hypot itself is conditional: np.hypot when the
    # one-time probe proved bit-parity with math.hypot, otherwise a
    # per-item math.hypot sweep (hypot(|al|, 0) == |al| exactly, so
    # running it for inactive items too is harmless — beta is
    # overwritten with alpha for those below).
    a64 = np.asarray(alpha, dtype=np.float64)
    x64 = xnorm.astype(np.float64)
    if hypot_vectorizes_exactly():
        h64 = np.hypot(a64, x64)
    else:
        h64 = np.array([math.hypot(p, q) for p, q in zip(a64.tolist(), x64.tolist())])
    beta[:] = alpha
    np.copyto(beta, (-np.copysign(h64, a64)).astype(x.dtype), where=active)
    np.divide(beta - alpha, beta, out=tau, where=active)
    np.subtract(alpha, beta, out=denom, where=active)
    if active.all():
        x /= denom[:, None]
    else:
        np.divide(x, denom[:, None], out=x, where=active[:, None])
    return beta, tau


def lahr2_batched(
    a: np.ndarray,
    p: int,
    ib: int,
    n: int,
    *,
    counter: FlopCounter | None = None,
    category: str = "panel",
    workspace: Workspace | None = None,
) -> PanelFactorsBatch:
    """Factorize panel ``[:, p:p+ib]`` of every matrix in the (B, ...)
    stack *a* — the stacked mirror of :func:`repro.linalg.lahr2.lahr2`.

    *a* may be the stacked checksum-extended storage (rows/cols past
    ``n`` are neither read nor written, exactly as in the scalar
    kernel).  Mutates *a* in place; the returned factors are views into
    *workspace* (a private arena when omitted) with panel lifetime.
    """
    if a.ndim != 3:
        raise ShapeError(f"lahr2_batched needs a (B, r, c) stack, got {a.shape}")
    if not (0 <= p and p + ib < n <= min(a.shape[1], a.shape[2])):
        raise ShapeError(
            f"invalid panel: p={p}, ib={ib}, n={n}, stack shape {a.shape}"
        )
    if ib < 1:
        raise ShapeError(f"panel width must be >= 1, got {ib}")

    b = a.shape[0]
    rows = a.shape[1]
    m1 = n - p - 1  # rows of the dense V block
    dt = a.dtype
    ws = workspace or Workspace()
    v_full = stack_buf(ws, "blahr2.v_full", b, rows, ib, zero=True, dtype=dt)
    y = stack_buf(ws, "blahr2.y", b, n, ib, dtype=dt)
    t = stack_buf(ws, "blahr2.t", b, ib, ib, zero=True, dtype=dt)
    g = stack_buf(ws, "blahr2.g", b, m1, 1, dtype=dt)
    wj = stack_buf(ws, "blahr2.wj", b, ib, 1, dtype=dt)
    wj2 = stack_buf(ws, "blahr2.wj2", b, ib, 1, dtype=dt)
    v = v_full[:, p + 1 : n, :]
    # taus/ei are panel-lifetime outputs like v/t/y (the batched drivers
    # copy them out right after the panel)
    taus = ws.buf("blahr2.taus", (b, ib), zero=True, dtype=dt)
    ei = ws.buf("blahr2.ei", (b,), zero=True, dtype=dt)

    for j in range(ib):
        c = p + j  # global column of reflector j
        if j > 0:
            # (1) right-update contribution to column c
            np.matmul(y[:, p + 1 : n, :j], v[:, j - 1, :j][:, :, None], out=g)
            a[:, p + 1 : n, c] -= g[:, :, 0]
            if counter is not None:
                counter.add(category, F.batched_flops(b, F.gemv_flops(n - p - 1, j)))

            # (2) left update: two stacked GEMVs against the dense V
            bcol = a[:, p + 1 : n, c][:, :, None]
            np.matmul(v[:, :, :j].transpose(0, 2, 1), bcol, out=wj[:, :j])
            np.matmul(t[:, :j, :j].transpose(0, 2, 1), wj[:, :j], out=wj2[:, :j])
            np.matmul(v[:, :, :j], wj2[:, :j], out=g)
            bcol -= g
            if counter is not None:
                counter.add(
                    category,
                    F.batched_flops(
                        b,
                        2 * F.trmv_flops(j)
                        + 2 * F.gemv_flops(n - p - j - 1, j)
                        + F.trmv_flops(j),
                    ),
                )
            # restore the subdiagonal entry overwritten by the unit of
            # reflector j-1
            a[:, p + j, p + j - 1] = ei

        # Generate reflector j for every item
        pivot_row = p + j + 1
        beta, tau = larfg_batched(
            a[:, pivot_row, c], a[:, pivot_row + 1 : n, c],
            counter=counter, category=category,
        )
        np.copyto(ei, beta)
        a[:, pivot_row, c] = 1.0

        vj = a[:, pivot_row:n, c]  # (B, m) full reflector vectors
        v[:, j:, j] = vj

        # Y[:, p+1:n, j] = tau * (A[p+1:n, p+j+1:n] vj - Y[:, :j] (V2^T vj))
        ycol = y[:, p + 1 : n, j][:, :, None]
        np.matmul(a[:, p + 1 : n, pivot_row:n], vj[:, :, None], out=ycol)
        if j > 0:
            np.matmul(v[:, j:, :j].transpose(0, 2, 1), vj[:, :, None], out=wj[:, :j])
            np.matmul(y[:, p + 1 : n, :j], wj[:, :j], out=g)
            ycol -= g
            # T[:j, j] = T[:j,:j] @ (-tau * tcol)
            np.multiply(wj[:, :j], -tau[:, None, None], out=wj2[:, :j])
            np.matmul(t[:, :j, :j], wj2[:, :j], out=t[:, :j, j][:, :, None])
        ycol *= tau[:, None, None]
        t[:, j, j] = tau
        taus[:, j] = tau
        if counter is not None:
            counter.add(
                category,
                F.batched_flops(
                    b,
                    F.gemv_flops(n - p - 1, n - pivot_row)
                    + (
                        F.gemv_flops(n - pivot_row, j)
                        + F.gemv_flops(n - p - 1, j)
                        + F.trmv_flops(j)
                        if j > 0
                        else 0
                    )
                    + F.scal_flops(n - p - 1),
                ),
            )

    # restore the subdiagonal entry below the last panel column
    a[:, p + ib, p + ib - 1] = ei

    # top rows of Y: Y_top = (A_top V) T, split exactly as the scalar code
    kk = p + 1
    yt = stack_buf(ws, "blahr2.ytop", b, kk, ib, dtype=dt)
    yt2 = stack_buf(ws, "blahr2.ytop2", b, kk, ib, dtype=dt)
    np.matmul(a[:, 0:kk, p + 1 : p + 1 + ib], v[:, :ib, :], out=yt)
    if n > p + 1 + ib:
        np.matmul(a[:, 0:kk, p + 1 + ib : n], v[:, ib:, :], out=yt2)
        yt += yt2
    np.matmul(yt, t, out=yt2)
    y[:, 0:kk, :] = yt2
    if counter is not None:
        counter.add(
            category,
            F.batched_flops(
                b,
                F.trmm_flops(kk, ib, False)
                + F.gemm_flops(kk, ib, max(0, n - p - 1 - ib))
                + F.trmm_flops(kk, ib, False),
            ),
        )

    return PanelFactorsBatch(p=p, ib=ib, v=v, t=t, y=y, taus=taus, ei=ei,
                             v_full=v_full)
