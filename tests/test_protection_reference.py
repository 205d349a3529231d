"""The clean-path protection helpers against their frozen references.

The input 1-norm, the finished-segment refresh, the masked matrix of
the fresh sums, the Q-protection block, the panel checkpoint and the
detector reuse buffers or derive their constants once per run;
:mod:`repro.perf.reference` keeps the forms they replaced, which copied
or re-derived on every call. Each pair must agree byte for byte: the
masked operand and its layout, the sums, the checksums, the checkpoint
contents, the suspect columns, the thresholds and the decisions.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from repro.abft import (
    Detector,
    DisklessCheckpointStore,
    EncodedMatrix,
    QProtector,
    ThresholdPolicy,
)
from repro.linalg import gehrd
from repro.linalg.flops import FlopCounter
from repro.linalg.verify import one_norm
from repro.batch.stack import EncodedMatrixBatch
from repro.perf.reference import (
    QProtectorReference,
    checkpoint_save_reference,
    detector_check_reference,
    masked_reference,
    one_norm_reference,
    refresh_finished_segment_reference,
)
from repro.utils.rng import random_matrix

LANES = (np.float64, np.float32)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _graded(n: int, m: int, seed: int) -> np.ndarray:
    """Entries spread over six decades, so summation order shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3, size=(n, m))


# -- one_norm -----------------------------------------------------------------


def _layouts(base: np.ndarray) -> dict[str, np.ndarray]:
    wide = np.repeat(np.repeat(base, 2, axis=0), 3, axis=1)
    return {
        "F": np.asfortranarray(base),
        "C": np.ascontiguousarray(base),
        "F_strided": np.asfortranarray(wide)[::2, 1::3],
        "C_strided": np.ascontiguousarray(wide)[::2, 1::3],
        "F_reversed": np.asfortranarray(base)[::-1, ::-1],
        "F32": np.asfortranarray(base, dtype=np.float32),
        "C32": np.ascontiguousarray(base, dtype=np.float32),
    }


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (9, 130), (130, 9),
                                   (127, 127), (256, 256), (513, 65)])
def test_one_norm_matches_reference_on_every_layout(shape):
    base = _graded(*shape, seed=shape[0] * 1000 + shape[1])
    for name, x in _layouts(base).items():
        # the drivers handed the reference a float64 array of x's layout
        want = one_norm_reference(np.asarray(x, dtype=np.float64))
        assert _bits(one_norm(x)) == _bits(want), name


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_one_norm_of_an_empty_matrix(shape):
    assert one_norm(np.zeros(shape)) == one_norm_reference(np.zeros(shape)) == 0.0


def test_one_norm_propagates_non_finite_entries():
    a = random_matrix(32, seed=1)
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy(order="F")
        b[5, 7] = bad
        for x in (b, b.astype(np.float32)):
            got, want = one_norm(x), one_norm_reference(np.asarray(x, dtype=np.float64))
            assert not math.isfinite(got)
            assert _bits(got) == _bits(want)


def test_one_norm_allocates_no_n2_temporary():
    n = 256
    for a in (random_matrix(n, seed=2), random_matrix(n, seed=2, dtype=np.float32)):
        tracemalloc.start()
        try:
            one_norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 2


# -- the finished-segment refresh ---------------------------------------------


@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ib", [1, 32])
def test_refresh_matches_triu_form_at_every_panel(dtype, k, ib):
    n = 97
    a = random_matrix(n, seed=k, dtype=dtype)
    em = EncodedMatrix(a, channels=k)
    # arbitrary data below the H segments, which the mask must drop
    em.ext[:n, :n] += _graded(n, n, seed=ib).astype(dtype)
    ref = EncodedMatrix(a, channels=k)
    ref.ext[...] = em.ext
    # every start p, up to the last panels, where the rows clamp to n
    for p in range(n):
        em.refresh_finished_segment(p, ib)
        refresh_finished_segment_reference(ref, p, ib)
        assert em.ext.tobytes(order="F") == ref.ext.tobytes(order="F"), p


def test_refresh_counts_the_same_flops():
    em = EncodedMatrix(random_matrix(40, seed=3), channels=2)
    ref = EncodedMatrix(random_matrix(40, seed=3), channels=2)
    c1, c2 = FlopCounter(), FlopCounter()
    for p in range(0, 39, 8):
        em.refresh_finished_segment(p, 8, counter=c1)
        refresh_finished_segment_reference(ref, p, 8, counter=c2)
    assert c1.snapshot() == c2.snapshot()


# -- the masked matrix of the fresh sums ----------------------------------------


@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("k", [1, 2])
def test_masked_matches_the_allocating_copy(dtype, k):
    n = 97
    em = EncodedMatrix(random_matrix(n, seed=k, dtype=dtype), channels=k)
    # arbitrary data in the Q region, which the mask must drop
    em.ext[:n, :n] += _graded(n, n, seed=4).astype(dtype)
    for finished in (0, 1, 2, 33, 64, n - 2, n - 1, n, n + 5, 40, 0):
        want = masked_reference(em, finished)
        got = em._masked(finished)
        assert got.tobytes() == want.tobytes(), finished
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.flags.c_contiguous
        rows, cols = em.fresh_sums(finished)
        if k == 1:
            ones = np.ones(n, dtype=em.ext.dtype)
            assert rows.tobytes() == (want @ ones).tobytes()
            assert cols.tobytes() == (ones @ want).tobytes()
        else:
            assert rows.tobytes() == (want @ em.weights.T).tobytes()
            assert cols.tobytes() == (em.weights @ want).tobytes()


def test_masked_reuses_its_scratch():
    n = 128
    em = EncodedMatrix(random_matrix(n, seed=8))
    first = em._masked(40)
    tracemalloc.start()
    try:
        again = em._masked(72)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again is first
    assert peak < n * n * 8 // 2
    assert again.tobytes() == masked_reference(em, 72).tobytes()


def test_masked_on_a_view_built_without_init():
    """A batch item view starts from the class default and gets its own
    scratch, never another item's."""
    n = 40
    emb = EncodedMatrixBatch(np.stack([random_matrix(n, seed=s) for s in (1, 2)]))
    views = [emb.item(0), emb.item(1)]
    got = [v._masked(16) for v in views]
    assert not np.shares_memory(got[0], got[1])
    for v in views:
        assert v._masked(16).tobytes() == masked_reference(v, 16).tobytes()


# -- Q protection -------------------------------------------------------------


def _reflectors(n: int, nb: int, dtype, seed: int) -> np.ndarray:
    a = random_matrix(n, seed=seed, dtype=dtype).copy(order="F")
    gehrd(a, nb=nb, nx=nb)
    return a


def _same(qp: QProtector, ref: QProtector) -> None:
    assert qp.finished_cols == ref.finished_cols
    assert qp.qr_chk.tobytes() == ref.qr_chk.tobytes()
    assert qp.qc_chk.tobytes() == ref.qc_chk.tobytes()


@pytest.mark.parametrize("dtype", LANES)
def test_q_block_matches_allocating_block(dtype):
    n = 70
    a = _reflectors(n, 8, dtype, seed=4)
    qp, ref = QProtector(n), QProtectorReference(n)
    for lo in range(n):
        for width in (1, 5, 8, 64):
            hi = min(lo + width, n)
            got, want = qp._block(a, lo, hi), ref._block(a, lo, hi)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes(order="A") == want.tobytes(order="A"), (lo, width)
            if got.size:
                assert got.flags.f_contiguous


@pytest.mark.parametrize("dtype", LANES)
def test_q_update_rollback_and_fresh_sums_match(dtype):
    n, nb = 150, 16
    a = _reflectors(n, nb, dtype, seed=5)
    qp, ref = QProtector(n), QProtectorReference(n)
    panels = [(p, min(nb, n - 1 - p)) for p in range(0, n - 1, nb)]
    # panels in order, with a rollback of the last two and their redo
    for p, ib in panels[:5]:
        qp.update_for_panel(a, p, ib)
        ref.update_for_panel(a, p, ib)
        _same(qp, ref)
    for p, ib in reversed(panels[3:5]):
        qp.rollback_panel(a, p, ib)
        ref.rollback_panel(a, p, ib)
        _same(qp, ref)
    for p, ib in panels[3:]:
        qp.update_for_panel(a, p, ib)
        ref.update_for_panel(a, p, ib)
        _same(qp, ref)
    for got, want in zip(qp.fresh_sums(a), ref.fresh_sums(a)):
        assert got.tobytes() == want.tobytes()
    got, want = qp.verify(a), ref.verify(a)
    assert got.errors == want.errors == []
    assert got.row_residuals.tobytes() == want.row_residuals.tobytes()


def test_q_block_buffer_is_reused():
    n = 64
    a = _reflectors(n, 8, np.float64, seed=6)
    qp = QProtector(n)
    first = qp._block(a, 0, 8)
    assert np.shares_memory(first, qp._block(a, 8, 16))


# -- the panel checkpoint -----------------------------------------------------


@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("k", [1, 2])
def test_checkpoint_save_restore_and_suspects_match(dtype, k):
    n, nb = 80, 16
    em = EncodedMatrix(random_matrix(n, seed=7, dtype=dtype), channels=k)
    store = DisklessCheckpointStore()
    for p in range(0, n - 1, nb):
        ib = min(nb, n - 1 - p)
        cp, want = store.save(em, p, ib), checkpoint_save_reference(em, p, ib)
        assert (cp.p, cp.ib, cp.nbytes) == (want.p, want.ib, want.nbytes)
        for field in ("panel", "col_chk_seg", "guard_sums", "weighted_sums"):
            got, ref = getattr(cp, field), getattr(want, field)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes(order="F") == ref.tobytes(order="F"), field
        assert cp.suspect_columns() == want.suspect_columns() == []
        # the same strike in both buffers flags the same columns
        for buf in (cp.panel, want.panel):
            buf[p % n, ib - 1] += 1.0
            buf[(p + 3) % n, 0] = np.nan
        assert cp.suspect_columns() == want.suspect_columns()
        # and restores the same bytes
        mirror = EncodedMatrix(random_matrix(n, seed=7, dtype=dtype), channels=k)
        mirror.ext[...] = em.ext
        store.restore(em)
        mirror.data[:, want.p : want.p + want.ib] = want.panel
        mirror.ext[n:, want.p : want.p + want.ib] = want.col_chk_seg
        assert em.ext.tobytes(order="F") == mirror.ext.tobytes(order="F")
    assert store.peak_bytes == np.dtype(dtype).itemsize * (n + k) * nb


def test_checkpoint_buffers_are_reused_across_saves():
    em = EncodedMatrix(random_matrix(48, seed=8))
    store = DisklessCheckpointStore()
    first = store.save(em, 0, 8)
    second = store.save(em, 8, 8)
    for field in ("panel", "col_chk_seg", "guard_sums", "weighted_sums"):
        assert np.shares_memory(getattr(first, field), getattr(second, field))


# -- the detector -------------------------------------------------------------

KINDS = ("norm", "running", "absolute", "variance", "auto")


def _states(n: int, k: int, dtype, seed: int):
    """Encoded matrices the detector must pass, flag, and flag as non-finite."""
    a = random_matrix(n, seed=seed, dtype=dtype)
    clean = EncodedMatrix(a, channels=k)
    small = EncodedMatrix(a, channels=k)
    small.ext[3, n] += 1e-9 * one_norm(a)
    large = EncodedMatrix(a, channels=k)
    large.ext[3, n] += 1.0
    poisoned = EncodedMatrix(a, channels=k)
    poisoned.ext[n, 5] = np.nan
    return one_norm(a), [clean, small, large, poisoned]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtype", LANES)
@pytest.mark.parametrize("k", [1, 2])
def test_detector_decisions_and_thresholds_match(kind, dtype, k):
    policy = ThresholdPolicy(kind=kind)
    norm_a, states = _states(64, k, dtype, seed=9)
    det = Detector(policy, norm_a)
    c1, c2 = FlopCounter(), FlopCounter()
    decisions = []
    for em in states * 2:  # the second pass runs on cached constants
        want, tol = detector_check_reference(policy, norm_a, em, counter=c2)
        assert det.check(em, counter=c1) is want
        decisions.append(want)
        if tol is not None:
            sre = float(np.sum(em.row_checksums))
            sce = float(np.sum(em.col_checksums))
            assert _bits(det.tolerance(em, sre, sce)) == _bits(tol)
    assert c1.snapshot() == c2.snapshot()
    assert det.checks == len(decisions)
    assert det.detections == sum(decisions)
    assert decisions[3] is True  # a NaN checksum is always a detection


def test_detector_reused_across_matrices_rederives_its_constants():
    """Each step changes one thing the threshold reads: n, the lane, k,
    the policy or norm_a."""
    det = Detector(ThresholdPolicy(kind="norm"), 10.0)
    steps = [
        (32, np.float64, 1, None, None),
        (96, np.float64, 1, None, None),
        (96, np.float32, 1, None, None),
        (96, np.float32, 2, None, None),
        (96, np.float32, 2, ThresholdPolicy(kind="absolute", eps_factor=10.0), None),
        (96, np.float32, 2, ThresholdPolicy(kind="norm", eps_factor=10.0), None),
        (96, np.float32, 2, None, 1e6),
        (32, np.float64, 1, ThresholdPolicy(), 10.0),
    ]
    for n, dtype, k, policy, norm_a in steps:
        if policy is not None:
            det.policy = policy
        if norm_a is not None:
            det.norm_a = norm_a
        for em in _states(n, k, dtype, seed=n)[1]:
            want, tol = detector_check_reference(det.policy, det.norm_a, em)
            assert det.check(em) is want
            if tol is not None:
                sre = float(np.sum(em.row_checksums))
                sce = float(np.sum(em.col_checksums))
                assert _bits(det.tolerance(em, sre, sce)) == _bits(tol), (n, dtype, k)
