"""``larft`` by the UT transform against the column-loop oracle.

``T⁻¹ = diag(1/τ) + striu(VᵀV)``: one Gram GEMM and one k x k inverse
per block replace DLARFT's k - 1 GEMVs, whose loop
:func:`repro.perf.reference.larft_reference` keeps. The two round
differently, so T may move by roundoff only; its diagonal is τ exactly,
a zero τ zeroes its row and column, a stack gives every item the bytes
of its 2-D call, and a non-finite or huge τ gives garbage, never an
exception.
"""

import numpy as np
import pytest

from repro.batch.stack import fstack
from repro.linalg import gehrd
from repro.linalg.flops import FlopCounter
from repro.linalg.orghr import NB, packed_v
from repro.linalg.wy import block_reflector, larft
from repro.perf.reference import larft_reference
from repro.utils.precision import lane_eps
from repro.utils.rng import random_matrix

LANES = (np.float64, np.float32)
WIDTHS = (1, 2, 31, 32)


def _block(n: int, k0: int, k: int, dtype, seed: int = 0):
    """V and taus of reflectors k0 .. k0+k-1 of a real reduction."""
    fac = gehrd(random_matrix(n, seed=seed, dtype=dtype), nb=NB)
    return packed_v(fac.a, k0, k0 + k), fac.taus[k0 : k0 + k].copy()


def _close(t, t_ref, dtype):
    k = t.shape[-1]
    scale = max(1.0, float(np.max(np.abs(t_ref))))
    return float(np.max(np.abs(t - t_ref))) <= 4 * k * lane_eps(dtype) * scale


@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("k", WIDTHS)
def test_matches_the_column_loop(k, dtype):
    v, taus = _block(80, 5, k, dtype)
    t = larft(v, taus)
    t_ref = larft_reference(v, taus)
    assert t.dtype == t_ref.dtype and t.shape == (k, k)
    assert _close(t, t_ref, dtype)
    assert not np.tril(t, -1).any()
    assert np.diag(t).tobytes() == taus.tobytes()


@pytest.mark.parametrize("dtype", LANES)
def test_ragged_last_block(dtype):
    # the last block of an n=70 orghr holds (n - 1) % NB = 5 reflectors
    n = 70
    k0 = (n - 2) // NB * NB
    v, taus = _block(n, k0, n - 1 - k0, dtype, seed=3)
    assert v.shape == (n - k0 - 1, 5)
    assert _close(larft(v, taus), larft_reference(v, taus), dtype)


@pytest.mark.parametrize("dtype", LANES)
def test_zero_tau_inside_a_block(dtype):
    v, taus = _block(80, 0, 32, dtype, seed=1)
    dead = [0, 3, 4, 17, 31]
    taus[dead] = 0.0
    t = larft(v, taus)
    assert not t[dead].any() and not t[:, dead].any()
    assert _close(t, larft_reference(v, taus), dtype)
    # the live reflectors keep the T of their own product
    eps = lane_eps(dtype)
    u = block_reflector(v.astype(np.float64), t.astype(np.float64))
    live = [i for i in range(32) if i not in dead]
    u_live = block_reflector(
        v[:, live].astype(np.float64),
        larft_reference(np.asfortranarray(v[:, live]), taus[live]).astype(np.float64),
    )
    assert np.max(np.abs(u - u_live)) <= 64 * eps


@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("k", WIDTHS)
def test_stack_matches_each_item_bytewise(k, dtype):
    b, m = 4, 70
    v, taus = fstack(b, m, k, dtype), np.zeros((b, k), dtype=dtype)
    for i in range(b):
        v[i], taus[i] = _block(m + 1, 0, k, dtype, seed=10 + i)
    taus[1, :: max(k // 3, 1)] = 0.0  # zero taus inside a block...
    taus[2] = 0.0                     # ...and an item with none live
    t = larft(v, taus)
    for i in range(b):
        assert t[i].tobytes() == larft(v[i], taus[i]).tobytes()
        assert _close(t[i], larft_reference(v[i], taus[i]), dtype)
    assert not t[2].any()


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
def test_non_finite_or_huge_tau_does_not_raise(bad, k):
    v, taus = _block(80, 0, k, np.float64, seed=2)
    taus[k // 2] = bad
    with np.errstate(all="ignore"):
        t = larft(v, taus)
        stacked = larft(np.stack([v, v]), np.stack([taus, taus]))
    assert t.shape == (k, k) and stacked.shape == (2, k, k)
    assert np.diag(t)[k // 2] == bad or np.isnan(bad)
    if not np.isfinite(bad):
        assert not np.isfinite(t).all()


def test_flops_match_the_column_loop():
    v, taus = _block(80, 0, 32, np.float64)
    new, ref = FlopCounter(), FlopCounter()
    larft(v, taus, counter=new)
    larft_reference(v, taus, counter=ref)
    assert new.by_category == ref.by_category
