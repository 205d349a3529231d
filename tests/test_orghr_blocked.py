"""The blocked Q formation against the rank-1 oracle.

``orghr`` and ``apply_q`` apply blocks of 32 reflectors as compact-WY
GEMMs (``larft`` + ``larfb``); :mod:`repro.perf.reference` keeps the
rank-1 loops they replaced. The two orders round differently, so Q may
move by roundoff only: ``max|Q − Q_ref| ≤ n·eps`` of the lane, and the
blocked Q must itself pass the paper's residual checks at a few eps.
Zero taus — whole blocks of them, or a few inside one block — must be
skipped exactly as the rank-1 loop skips them.
"""

import numpy as np
import pytest

from repro.linalg import apply_q, extract_hessenberg, gehrd, orghr
from repro.linalg.flops import FlopCounter
from repro.linalg.orghr import NB
from repro.linalg.verify import factorization_residual, orthogonality_residual
from repro.perf.reference import apply_q_reference, orghr_reference
from repro.utils.precision import lane_eps
from repro.utils.rng import random_matrix

LANES = (np.float64, np.float32)
SIZES = (0, 1, 2, 3, 31, 32, 33, 34, 63, 64, 65, 97, 256)


def _factor(n: int, dtype, seed: int = 0):
    a0 = random_matrix(n, seed=seed + n, dtype=dtype) if n else np.zeros((0, 0), dtype)
    fac = gehrd(a0.copy(order="F"), nb=NB)
    return a0, fac.a, fac.taus


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("n", SIZES)
def test_blocked_q_matches_rank1_oracle(n, dtype, order):
    a0, packed, taus = _factor(n, dtype)
    eps = lane_eps(dtype)
    q = orghr(np.asarray(packed, order=order), taus)
    q_ref = orghr_reference(packed, taus)
    assert q.dtype == q_ref.dtype and q.shape == (n, n)
    assert q.flags.f_contiguous
    if n == 0:
        return
    assert np.max(np.abs(q - q_ref)) <= n * eps
    assert factorization_residual(a0, q, extract_hessenberg(packed)) <= 4 * eps
    assert orthogonality_residual(q) <= 4 * eps


@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("n", [2, 33, 97])
def test_hessenberg_input_gives_the_identity_bitwise(n, dtype):
    a0 = np.asfortranarray(np.triu(random_matrix(n, seed=n, dtype=dtype), -1))
    fac = gehrd(a0, nb=NB)
    assert not fac.taus.any()
    assert orghr(fac.a, fac.taus).tobytes() == np.eye(n, dtype=dtype).tobytes()


@pytest.mark.parametrize("dtype", LANES)
def test_zero_taus_inside_a_block_are_skipped(dtype):
    """A zero tau makes its reflector the identity whatever its stored
    vector holds: the first block keeps a few live reflectors between
    zeroed ones, the second keeps one, the third none."""
    n = 3 * NB + 5
    _, packed, taus = _factor(n, dtype, seed=7)
    taus = taus.copy()
    taus[[0, 3, 4, 17, NB - 1]] = 0.0
    taus[NB : 2 * NB] = np.where(np.arange(NB) == 9, taus[NB : 2 * NB], 0.0)
    taus[2 * NB : 3 * NB] = 0.0
    q = orghr(packed, taus)
    assert np.max(np.abs(q - orghr_reference(packed, taus))) <= n * lane_eps(dtype)
    assert orthogonality_residual(q) <= 4 * lane_eps(dtype)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("n", [33, 65, 97])
def test_apply_q_matches_rank1_oracle(n, dtype, trans):
    _, packed, taus = _factor(n, dtype, seed=3)
    c = random_matrix(n, seed=11, dtype=dtype)[:, :7].copy(order="F")
    got = apply_q(packed, taus, c.copy(order="F"), trans=trans)
    ref = apply_q_reference(packed, taus, c.copy(order="F"), trans=trans)
    assert np.max(np.abs(got - ref)) <= n * lane_eps(dtype) * np.max(np.abs(c))
    # and against the explicit Q the same blocks form
    q = orghr(packed, taus)
    explicit = (q.T if trans else q) @ c
    assert np.max(np.abs(got - explicit)) <= n * lane_eps(dtype) * np.max(np.abs(c))


def test_flops_are_charged_to_the_callers_category():
    n = 2 * NB + 3
    _, packed, taus = _factor(n, np.float64)
    counter = FlopCounter()
    orghr(packed, taus, counter=counter)
    apply_q(packed, taus, np.eye(n, order="F"), counter=counter, category="back")
    assert set(counter.by_category) == {"orghr", "back"}
    assert min(counter.by_category.values()) > 0
