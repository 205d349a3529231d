"""Unblocked symmetric tridiagonal reduction (DSYTD2-style, full storage).

The second two-sided factorization of the family the paper's conclusion
targets ("we plan to provide soft error resilience for the rest of the
hybrid two-sided factorizations"). Reduction of a symmetric A to
tridiagonal T by Householder similarity: ``T = Qᵀ A Q``.

This implementation keeps *full* (both-triangle) storage — slightly
redundant arithmetic, but it makes the checksum mathematics of the
fault-tolerant variant (:mod:`repro.core.ft_tridiag`) transparent: every
update is applied to explicit row and column ranges of the same array.
Householder vectors are stored below the first subdiagonal, as in
LAPACK; the mirrored upper entries are zeroed explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg.flops import FlopCounter
from repro.linalg.householder import larfg

#: The asymmetry ``max|A − Aᵀ|`` the symmetric reductions accept, relative
#: to ``max(1, max|A|)``.
SYMMETRIC_TOL = 1e-12


def check_symmetric(a: np.ndarray, name: str) -> None:
    """Raise :class:`ShapeError` unless square *a* is symmetric to
    :data:`SYMMETRIC_TOL`."""
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if n else 0.0
    if n and float(np.max(np.abs(a - a.T))) > SYMMETRIC_TOL * max(scale, 1.0):
        raise ShapeError(f"{name} input is not symmetric")


def sytd2(
    a: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "sytd2",
) -> np.ndarray:
    """Reduce the symmetric matrix *a* to tridiagonal form in place.

    On return the tridiagonal band of *a* holds T, the Householder
    vectors live below the first subdiagonal, and the upper triangle
    beyond the first superdiagonal is zero. Returns the tau vector.

    Raises :class:`ShapeError` if *a* is not (numerically) symmetric.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"sytd2 needs a square matrix, got {a.shape}")
    n = a.shape[0]
    check_symmetric(a, "sytd2")

    taus = np.zeros(max(n - 1, 0))
    for j in range(n - 2):
        refl = larfg(a[j + 1, j], a[j + 2 : n, j], counter=counter, category=category)
        tau = refl.tau
        taus[j] = tau
        beta = refl.beta
        a[j + 1, j] = 1.0
        v = a[j + 1 : n, j].copy()

        if tau != 0.0:
            # symmetric rank-2 update of the trailing block:
            #   u = tau A v;  w = u − (tau/2)(uᵀv) v;  A ← A − v wᵀ − w vᵀ
            trail = a[j + 1 : n, j + 1 : n]
            u = tau * (trail @ v)
            w = u - (0.5 * tau * float(u @ v)) * v
            trail -= np.outer(v, w) + np.outer(w, v)
            if counter is not None:
                m = n - j - 1
                counter.add(category, 2 * m * m + 2 * m + 4 * m * m)

        # restore the annihilated column/row to their mathematical values
        a[j + 1, j] = beta
        a[j, j + 1] = beta
        a[j + 2 : n, j] = refl.v  # packed Householder vector (LAPACK style)
        a[j, j + 2 : n] = 0.0

    return taus


def tridiagonal_of(a_packed: np.ndarray) -> np.ndarray:
    """Extract the explicit tridiagonal T from packed ``sytd2`` output."""
    n = a_packed.shape[0]
    t = np.zeros((n, n), order="F")
    idx = np.arange(n)
    t[idx, idx] = np.diag(a_packed)
    if n > 1:
        sub = np.diag(a_packed, -1)
        t[idx[1:], idx[:-1]] = sub
        t[idx[:-1], idx[1:]] = sub  # symmetric: mirror the subdiagonal
    return t


def orgtr(a_packed: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Form the orthogonal Q of the tridiagonal reduction explicitly."""
    n = a_packed.shape[0]
    q = np.eye(n, order="F")
    for j in range(n - 3, -1, -1):
        tau = taus[j]
        if tau == 0.0:
            continue
        u = np.empty(n - j - 1)
        u[0] = 1.0
        u[1:] = a_packed[j + 2 : n, j]
        block = q[j + 1 : n, j + 1 : n]
        wv = u @ block
        block -= tau * np.outer(u, wv)
    return q
