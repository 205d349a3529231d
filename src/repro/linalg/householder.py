"""Householder reflector generation and application (DLARFG / DLARF).

A reflector is represented LAPACK-style: ``H = I - tau * u uᵀ`` with
``u = [1; v]`` — the leading 1 is implicit and only ``v`` is stored (in the
factorization it lives below the subdiagonal of the panel, which is what
makes the in-place blocked algorithm and the checksum bookkeeping work).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter


class Reflector(NamedTuple):
    """A generated Householder reflector.

    Attributes
    ----------
    beta:
        The value the pivot entry is mapped to (``H @ [alpha; x] = [beta; 0]``).
    tau:
        Reflector scale; ``tau == 0`` encodes the identity (nothing to do).
    v:
        The stored part of the Householder vector (the implicit leading 1
        is *not* included).
    """

    beta: float
    tau: float
    v: np.ndarray


def dlarfg(alpha, x: np.ndarray, out: np.ndarray) -> tuple[float, float]:
    """The arithmetic of LAPACK ``DLARFG``: ``(beta, tau)``, with
    ``v = x / (alpha - beta)`` written to *out* (which may be *x*).

    *alpha* is a scalar of *x*'s dtype (an element read from the lane
    array), so tau and the scaling denominator round in that dtype,
    while beta comes from a float64 ``math.hypot`` and is returned
    unrounded. *x* must be contiguous: its norm is ``sqrt(x · x)``,
    which is bitwise what ``np.linalg.norm`` computes for a 1-D vector.
    A zero norm (an empty, zero or underflowing *x*) gives the identity:
    ``(alpha, 0)``, with *x* copied to *out* unscaled. The hot-path core
    of :func:`larfg` and of the panel, which checks nothing and counts
    nothing.
    """
    xnorm = float(np.sqrt(x.dot(x)))
    if xnorm == 0.0:
        if out is not x:
            np.copyto(out, x)
        return float(alpha), 0.0
    beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
    np.divide(x, alpha - beta, out=out)
    return beta, (beta - alpha) / beta


def larfg(
    alpha: float,
    x: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larfg",
) -> Reflector:
    """Generate a reflector annihilating *x* below the pivot *alpha*.

    Mirrors LAPACK ``DLARFG``: returns ``(beta, tau, v)`` with
    ``(I - tau [1;v][1;v]ᵀ) [alpha; x] = [beta; 0]``. *x* is modified in
    place to hold ``v`` (callers store it back under the subdiagonal).
    """
    if x.ndim != 1:
        raise ShapeError(f"larfg expects a vector, got shape {x.shape}")
    if counter is not None:
        counter.add(category, F.larfg_flops(x.size + 1))
    # BLAS dot over a strided view sums in another order than over a
    # contiguous copy, so the norm reads a copy and the scaling lands in x
    xc = x if x.flags.c_contiguous else x.copy()
    beta, tau = dlarfg(alpha, xc, x)
    return Reflector(float(beta), float(tau), x)


@functools.cache
def _strictly_lower(k: int) -> np.ndarray:
    """The k x k strictly-lower mask, built once per width and shared."""
    mask = np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def copy_below_diagonal(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy the entries of the (..., m, k) block *src* strictly below its
    diagonal into *dst* (m ≥ k): where the packed storage keeps the
    reflector tails under their implicit units. Rows k.. are copied
    whole, the top k x k square through the cached mask of width k."""
    k = src.shape[-1]
    np.copyto(dst[..., :k, :], src[..., :k, :], where=_strictly_lower(k))
    np.copyto(dst[..., k:, :], src[..., k:, :])


def full_vector(refl: Reflector) -> np.ndarray:
    """Return the explicit Householder vector ``u = [1; v]``."""
    v = np.asarray(refl.v)
    return np.concatenate((np.ones(1, dtype=v.dtype), v))


def larf_left(
    tau: float,
    u: np.ndarray,
    c: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larf",
) -> np.ndarray:
    """Apply ``H = I - tau u uᵀ`` from the left: ``C <- H @ C`` in place.

    *u* is the explicit vector (leading 1 included).
    """
    if u.shape != (c.shape[0],):
        raise ShapeError(f"larf_left shape mismatch: u {u.shape}, C {c.shape}")
    if tau == 0.0:
        return c
    w = u @ c  # uᵀ C
    c -= tau * np.outer(u, w)
    if counter is not None:
        counter.add(category, 4 * c.shape[0] * c.shape[1])
    return c


def larf_right(
    tau: float,
    u: np.ndarray,
    c: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "larf",
) -> np.ndarray:
    """Apply ``H = I - tau u uᵀ`` from the right: ``C <- C @ H`` in place."""
    if u.shape != (c.shape[1],):
        raise ShapeError(f"larf_right shape mismatch: u {u.shape}, C {c.shape}")
    if tau == 0.0:
        return c
    w = c @ u  # C u
    c -= tau * np.outer(w, u)
    if counter is not None:
        counter.add(category, 4 * c.shape[0] * c.shape[1])
    return c


def reflector_matrix(tau: float, u: np.ndarray) -> np.ndarray:
    """Return the explicit ``H = I - tau u uᵀ`` (for tests and analysis only)."""
    n = u.size
    return np.eye(n) - tau * np.outer(u, u)
