"""Golden equivalence: the workspace-pooled kernels against the frozen
pre-pooling references in :mod:`repro.perf.reference`.

The pooled kernels are allowed to regroup BLAS calls (merged GEMVs,
stacked GEMM operands), so agreement is to tight roundoff, not bitwise.
The (k x k) corner of the extended storage is scratch by contract and
excluded from every comparison.
"""

import numpy as np
import pytest

from repro.abft.checksums import (
    left_update_encoded,
    reverse_left_update_encoded,
    reverse_right_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.abft.encoding import EncodedMatrix
from repro.linalg.lahr2 import lahr2
from repro.perf.reference import (
    lahr2_reference,
    left_update_encoded_reference,
    reverse_left_update_encoded_reference,
    reverse_right_update_encoded_reference,
    right_update_encoded_reference,
)
from repro.perf.workspace import Workspace
from repro.utils.rng import random_matrix

RTOL = 5e-14
ATOL = 1e-13


def _panel_pair(n, p, ib, seed=0):
    """Factorize the same panel with the reference and the pooled kernel."""
    a0 = np.asfortranarray(random_matrix(n, seed=seed))
    a_ref = a0.copy(order="F")
    a_new = a0.copy(order="F")
    ws = Workspace()
    pf_ref = lahr2_reference(a_ref, p, ib, n)
    pf_new = lahr2(a_new, p, ib, n, workspace=ws)
    return a_ref, a_new, pf_ref, pf_new, ws


def _scaled_close(x, y):
    np.testing.assert_allclose(x, y, rtol=RTOL, atol=ATOL * max(1.0, np.max(np.abs(y)) if np.size(y) else 1.0))


@pytest.mark.parametrize("ib", [1, 4, 8, 32])
def test_lahr2_matches_reference(ib):
    n, p = 96, 16
    a_ref, a_new, pf_ref, pf_new, _ = _panel_pair(n, p, ib, seed=3)
    _scaled_close(pf_new.v, pf_ref.v)
    _scaled_close(pf_new.t, pf_ref.t)
    _scaled_close(pf_new.y, pf_ref.y)
    np.testing.assert_allclose(pf_new.taus, pf_ref.taus, rtol=RTOL)
    assert pf_new.ei == pytest.approx(pf_ref.ei, rel=RTOL)
    _scaled_close(a_new, a_ref)


def test_lahr2_pooled_invariants():
    n, p, ib = 64, 8, 8
    _, _, _, pf, _ = _panel_pair(n, p, ib, seed=5)
    # unit diagonal and explicit zeros above it — exact, by construction
    for j in range(ib):
        assert pf.v[j, j] == 1.0
        assert not pf.v[:j, j].any()
    # zero-padded full-height V: rows outside p+1..n-1 exactly zero
    assert pf.v_full is not None
    assert not pf.v_full[: p + 1].any()
    np.testing.assert_array_equal(pf.v_full[p + 1 : n], pf.v)


def test_workspace_reuse_across_panels():
    """Sequential panels reuse the same arena without cross-talk."""
    n, nb = 96, 16
    a_ref = np.asfortranarray(random_matrix(n, seed=11))
    a_new = a_ref.copy(order="F")
    ws = Workspace()
    ws.presize(n, nb)
    nbytes_presized = ws.nbytes
    for p in (0, nb):
        pf_ref = lahr2_reference(a_ref, p, nb, n)
        pf_new = lahr2(a_new, p, nb, n, workspace=ws)
        _scaled_close(pf_new.y, pf_ref.y)
        _scaled_close(a_new, a_ref)
        # keep the two matrices in lockstep so panel 2 sees identical input
        a_new[...] = a_ref
    lahr2(a_new, 2 * nb, nb, n, workspace=ws)
    assert ws.nbytes == nbytes_presized  # presized once, then only reused


def _encoded_pair(n, p, ib, channels, seed=0):
    """Factorize the panel in-place in the extended storage on both
    sides — the FT driver's calling pattern (v_full spans all n+k rows,
    so the left update can stack Vce under V)."""
    a0 = random_matrix(n, seed=seed)
    em_ref = EncodedMatrix(a0.copy(), channels=channels)
    em_new = EncodedMatrix(a0.copy(), channels=channels)
    pf_ref = lahr2_reference(em_ref.ext, p, ib, n)
    ws = Workspace()
    pf_new = lahr2(em_new.ext, p, ib, n, workspace=ws)
    return em_ref, em_new, pf_ref, pf_new, ws


def _compare_encoded(em_ref, em_new):
    """Data + both checksum blocks; the k x k corner is scratch."""
    n = em_ref.n
    _scaled_close(em_new.data, em_ref.data)
    _scaled_close(em_new.ext[:n, n:], em_ref.ext[:n, n:])
    _scaled_close(em_new.ext[n:, :n], em_ref.ext[n:, :n])


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("ib", [1, 4, 8, 32])
def test_encoded_updates_match_reference(ib, channels):
    n, p = 96, 16
    em_ref, em_new, pf_ref, pf_new, ws = _encoded_pair(n, p, ib, channels, seed=7)

    vce_ref = v_col_checksums(pf_ref, em_ref)
    ychk_ref = y_col_checksums(em_ref, pf_ref)
    right_update_encoded_reference(em_ref, pf_ref, vce_ref, ychk_ref)
    left_update_encoded_reference(em_ref, pf_ref, vce_ref)

    vce_new = v_col_checksums(pf_new, em_new)
    ychk_new = y_col_checksums(em_new, pf_new)
    right_update_encoded(em_new, pf_new, vce_new, ychk_new, workspace=ws)
    left_update_encoded(em_new, pf_new, vce_new, workspace=ws)

    _compare_encoded(em_ref, em_new)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("ib", [4, 16])
def test_reverse_updates_match_reference(ib, channels):
    """Forward-then-reverse with the fused kernels tracks the reference."""
    n, p = 80, 8
    em_ref, em_new, pf_ref, pf_new, ws = _encoded_pair(n, p, ib, channels, seed=13)

    vce_ref = v_col_checksums(pf_ref, em_ref)
    ychk_ref = y_col_checksums(em_ref, pf_ref)
    right_update_encoded_reference(em_ref, pf_ref, vce_ref, ychk_ref)
    left_update_encoded_reference(em_ref, pf_ref, vce_ref)
    reverse_left_update_encoded_reference(em_ref, pf_ref, vce_ref)
    reverse_right_update_encoded_reference(em_ref, pf_ref, vce_ref, ychk_ref)

    vce_new = v_col_checksums(pf_new, em_new)
    ychk_new = y_col_checksums(em_new, pf_new)
    right_update_encoded(em_new, pf_new, vce_new, ychk_new, workspace=ws)
    left_update_encoded(em_new, pf_new, vce_new, workspace=ws)
    reverse_left_update_encoded(em_new, pf_new, vce_new, workspace=ws)
    reverse_right_update_encoded(em_new, pf_new, vce_new, ychk_new, workspace=ws)

    _compare_encoded(em_ref, em_new)


def test_fused_flop_accounting_matches_reference():
    """Pooled kernels must price identically on the simulated machine."""
    from repro.linalg.flops import FlopCounter

    n, p, ib, channels = 96, 16, 16, 2
    em_ref, em_new, pf_ref, pf_new, ws = _encoded_pair(n, p, ib, channels, seed=2)

    c_ref, c_new = FlopCounter(), FlopCounter()
    vce_ref = v_col_checksums(pf_ref, em_ref, counter=c_ref)
    ychk_ref = y_col_checksums(em_ref, pf_ref, counter=c_ref)
    right_update_encoded_reference(em_ref, pf_ref, vce_ref, ychk_ref, counter=c_ref)
    left_update_encoded_reference(em_ref, pf_ref, vce_ref, counter=c_ref)

    vce_new = v_col_checksums(pf_new, em_new, counter=c_new)
    ychk_new = y_col_checksums(em_new, pf_new, counter=c_new)
    right_update_encoded(em_new, pf_new, vce_new, ychk_new, counter=c_new, workspace=ws)
    left_update_encoded(em_new, pf_new, vce_new, counter=c_new, workspace=ws)

    assert c_new.total == c_ref.total


# ---------------------------------------------------------------------------
# v2 fused left update: byte-for-byte pinning against the frozen reference
# ---------------------------------------------------------------------------

def _fused_left_setup(n, p, ib, channels, dtype=np.float64, seed=21):
    """One pooled panel factorization; two byte-identical encoded copies
    sharing the same PanelFactors — the setup that makes a bitwise
    reference comparison meaningful."""
    a0 = random_matrix(n, seed=seed, dtype=dtype)
    em_new = EncodedMatrix(a0.copy(), channels=channels)
    ws = Workspace()
    pf = lahr2(em_new.ext, p, ib, n, workspace=ws)
    em_ref = EncodedMatrix(a0.copy(), channels=channels)
    em_ref.ext[...] = em_new.ext  # identical post-panel bytes
    vce = v_col_checksums(pf, em_new)
    return em_ref, em_new, pf, vce, ws


def _assert_encoded_bitwise(em_ref, em_new):
    """Data rows and row-checksum columns bit-for-bit — the blocks the
    driver's outputs are computed from.  The column-checksum rows are an
    independent redundancy channel: BLAS dispatches a standalone k-row
    product through a different kernel than the same rows riding inside
    the fused apply GEMM, so they agree to a few ulps, not bytes (the
    fused right update has always had this property; the thresholded
    detector and the per-segment refresh absorb it)."""
    n = em_ref.n
    assert np.array_equal(em_new.data, em_ref.data)
    assert np.array_equal(em_new.ext[:n, n:], em_ref.ext[:n, n:])
    eps = np.finfo(em_ref.ext.dtype).eps
    scale = max(1.0, float(np.max(np.abs(em_ref.ext[n:, :n]))))
    np.testing.assert_allclose(
        em_new.ext[n:, :n], em_ref.ext[n:, :n], rtol=0, atol=256 * eps * scale
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "n,ib,channels", [(96, 16, 1), (96, 32, 2), (64, 8, 3), (97, 13, 2)]
)
def test_fused_left_update_bitwise_vs_reference(n, ib, channels, dtype):
    """The fully-fused FT-GEMM left update ([V; Vce] operand stacking +
    active-row-window projection) must reproduce the frozen reference's
    data rows and row-checksum columns BYTE-for-byte — roundoff-free
    equivalence on everything that feeds the driver output, not just
    tight tolerance."""
    em_ref, em_new, pf, vce, ws = _fused_left_setup(n, ib, ib, channels, dtype=dtype)
    left_update_encoded_reference(em_ref, pf, vce)
    left_update_encoded(em_new, pf, vce, workspace=ws)
    _assert_encoded_bitwise(em_ref, em_new)


def test_fused_left_update_restores_v_full_contract():
    """The fused apply writes Vce into v_full's checksum rows for the
    duration of one GEMM; the zero-row contract (reverse kernels project
    against v_full) must be restored on every exit."""
    n, p, ib, channels = 96, 16, 16, 2
    em_ref, em_new, pf, vce, ws = _fused_left_setup(n, p, ib, channels)
    left_update_encoded(em_new, pf, vce, workspace=ws)
    assert not pf.v_full[n:].any()
    assert not pf.v_full[: p + 1].any()
    np.testing.assert_array_equal(pf.v_full[p + 1 : n], pf.v)


@pytest.mark.parametrize("channels", [1, 2])
def test_left_update_without_workspace_bitwise(channels):
    """Without a workspace the kernel runs its one path on a private
    arena: every block bitwise equal to the call with the driver's
    arena, and the reference's data rows and row-checksum columns."""
    n, p, ib = 96, 16, 16
    em_ref, em_new, pf, vce, ws = _fused_left_setup(n, p, ib, channels, seed=33)
    em_ws = EncodedMatrix(np.zeros((n, n)), channels=channels)
    em_ws.ext[...] = em_new.ext
    left_update_encoded_reference(em_ref, pf, vce)
    left_update_encoded(em_new, pf, vce)
    left_update_encoded(em_ws, pf, vce, workspace=ws)
    _assert_encoded_bitwise(em_ref, em_new)
    assert np.array_equal(em_new.ext[:n], em_ws.ext[:n])
    assert np.array_equal(em_new.ext[n:, :n], em_ws.ext[n:, :n])


def test_fused_left_update_invocation_count(monkeypatch):
    """The fused left update is exactly three BLAS invocations — the
    two projection matmuls and ONE apply, a ``fold`` into the storage —
    with NO separate checksum-row product (no call writes a k-row
    output)."""
    import repro.abft.checksums as C

    n, p, ib, channels = 96, 16, 16, 2
    _, em_new, pf, vce, ws = _fused_left_setup(n, p, ib, channels, seed=9)

    calls, folds = [], []
    real_matmul, real_fold = np.matmul, C.fold

    def counting_matmul(a, b, out=None, **kw):
        r = real_matmul(a, b, out=out, **kw)
        calls.append(r.shape)
        return r

    def counting_fold(c, a, b, alpha, workspace=None):
        folds.append(c.shape)
        real_fold(c, a, b, alpha, workspace)

    class _NP:
        def __getattr__(self, name):
            return getattr(np, name)

    shim = _NP()
    shim.matmul = counting_matmul
    monkeypatch.setattr(C, "np", shim)
    monkeypatch.setattr(C, "fold", counting_fold)
    C.left_update_encoded(em_new, pf, vce, workspace=ws)
    assert len(calls) == 2 and len(folds) == 1
    # the k checksum rows ride inside the apply — nothing produces a
    # standalone (k, ...) block, nor its transpose
    assert all(channels not in shape for shape in calls + folds)
