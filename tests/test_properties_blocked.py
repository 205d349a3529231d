"""Property-based equivalence of the blocked and unblocked Hessenberg
reductions: for random (n, nb, seed) the blocked driver must produce a
factorization of the same quality and the same canonical subdiagonal."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.linalg import (
    factorization_residual,
    gehrd,
    orghr,
    extract_hessenberg,
)
from repro.utils.rng import random_matrix

SLOW = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

sizes = st.integers(8, 72)
blocks = st.sampled_from([2, 3, 8, 16, 32])
seeds = st.integers(0, 2**12)


class TestBlockedEquivalence:
    @SLOW
    @given(n=sizes, nb=blocks, seed=seeds)
    def test_gehrd(self, n, nb, seed):
        a0 = random_matrix(n, seed=seed)
        a = a0.copy(order="F")
        fac = gehrd(a, nb=nb, nx=nb)
        q = orghr(a, fac.taus)
        h = extract_hessenberg(a)
        assert factorization_residual(a0, q, h) < 1e-13
        # canonical invariant: |subdiagonal| matches the eigen-preserving
        # unique Hessenberg form
        ref = a0.copy(order="F")
        gehrd(ref, nb=max(n, 64))  # effectively unblocked path
        np.testing.assert_allclose(
            np.abs(np.diag(h, -1)),
            np.abs(np.diag(extract_hessenberg(ref), -1)),
            atol=1e-10 * max(1.0, float(np.max(np.abs(a0)))) * n,
        )
