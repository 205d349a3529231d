"""The frozen yardstick: one unit (``yu``) of single-caller work.

A blocked Hessenberg reduction (n=256, fp64, nb=32) written with NumPy
alone: the pre-pooling DLAHR2 panel, allocating right/left updates and
an unblocked DGEHD2 tail. It imports nothing from ``repro``, so no
change under ``src/`` can move it, and it has the same character as the
drivers it normalises — a per-column Python loop around BLAS-2/3 calls —
so host drift (a noisy neighbour, a slower core, thermal limits) scales
it and them alike. The suite times it right next to every sample and
reports each sample as a ratio to it.

Do not optimise this file: a faster yardstick silently inflates every
``*_yu`` metric measured against it.
"""

from __future__ import annotations

import math

import numpy as np

N = 256
NB = 32


def _larfg(alpha: float, x: np.ndarray) -> tuple[float, float]:
    """DLARFG: overwrite *x* with v and return (beta, tau)."""
    xnorm = float(np.linalg.norm(x))
    if xnorm == 0.0:
        return float(alpha), 0.0
    beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
    tau = (beta - alpha) / beta
    x /= alpha - beta
    return beta, tau


def _panel(a: np.ndarray, p: int, ib: int, n: int, taus: np.ndarray):
    """DLAHR2 on columns [p, p+ib): returns (V, T, Y)."""
    t = np.zeros((ib, ib), order="F")
    y = np.zeros((n, ib), order="F")
    ei = 0.0
    for j in range(ib):
        c = p + j
        if j > 0:
            vrow = a[p + j, p : p + j]
            a[p + 1 : n, c] -= y[p + 1 : n, :j] @ vrow
            v1 = a[p + 1 : p + j + 1, p : p + j]
            v2 = a[p + j + 1 : n, p : p + j]
            b1 = a[p + 1 : p + j + 1, c]
            b2 = a[p + j + 1 : n, c]
            w = np.tril(v1, -1).T @ b1 + b1.copy()
            w += v2.T @ b2
            w = t[:j, :j].T @ w
            b2 -= v2 @ w
            b1 -= np.tril(v1, -1) @ w + w
            a[p + j, p + j - 1] = ei
        pivot = p + j + 1
        ei, tau = _larfg(a[pivot, c], a[pivot + 1 : n, c])
        a[pivot, c] = 1.0
        vj = a[pivot:n, c]
        y[p + 1 : n, j] = a[p + 1 : n, pivot:n] @ vj
        if j > 0:
            tcol = a[pivot:n, p : p + j].T @ vj
            y[p + 1 : n, j] -= y[p + 1 : n, :j] @ tcol
            t[:j, j] = t[:j, :j] @ (-tau * tcol)
        y[p + 1 : n, j] *= tau
        t[j, j] = tau
        taus[p + j] = tau
    a[p + ib, p + ib - 1] = ei

    v = np.zeros((n - p - 1, ib), order="F")
    for j in range(ib):
        v[j:, j] = a[p + 1 + j : n, p + j]
        v[j, j] = 1.0
    k = p + 1
    y_top = a[0:k, p + 1 : p + 1 + ib] @ np.tril(v[:ib, :])
    if n > p + 1 + ib:
        y_top += a[0:k, p + 1 + ib : n] @ v[ib:, :]
    y[0:k, :] = y_top @ np.triu(t)
    return v, t, y


def _gehd2(a: np.ndarray, lo: int, n: int, taus: np.ndarray) -> None:
    """DGEHD2 on columns [lo, n-1): one reflector at a time."""
    for i in range(lo, n - 1):
        beta, tau = _larfg(a[i + 1, i], a[i + 2 : n, i])
        a[i + 1, i] = 1.0
        u = a[i + 1 : n, i]
        if tau != 0.0:
            right = a[0:n, i + 1 : n]
            right -= tau * np.outer(right @ u, u)
            left = a[i + 1 : n, i + 1 : n]
            left -= tau * np.outer(u, u @ left)
        a[i + 1, i] = beta
        taus[i] = tau


def reduce(a: np.ndarray, nb: int = NB) -> tuple[np.ndarray, np.ndarray]:
    """Blocked Hessenberg reduction of *a* in place; returns (packed, taus).

    H is ``np.triu(packed, -1)``; the reflectors sit below it (LAPACK
    packed storage).
    """
    n = a.shape[0]
    taus = np.zeros(max(n - 1, 0))
    p = 0
    while n - 1 - p > nb:
        ib = min(nb, n - 1 - p)
        v, t, y = _panel(a, p, ib, n, taus)
        a[:, p + ib : n] -= y @ v[ib - 1 :, :].T
        if ib > 1:
            a[0 : p + 1, p + 1 : p + ib] -= y[0 : p + 1, : ib - 1] @ np.tril(
                v[: ib - 1, : ib - 1]
            ).T
        c = a[p + 1 : n, p + ib : n]
        c -= v @ (t.T @ (v.T @ c))
        p += ib
    _gehd2(a, p, n, taus)
    return a, taus


def make_input(seed: int = 0) -> np.ndarray:
    """The yardstick's fixed operand: uniform [-1, 1), Fortran order."""
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.uniform(-1.0, 1.0, size=(N, N)))


def hessenberg(a0: np.ndarray) -> np.ndarray:
    """H of *a0* via the yardstick (the input is left untouched)."""
    packed, _ = reduce(a0.copy(order="F"))
    return np.triu(packed, -1)
