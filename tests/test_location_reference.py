"""The array-level error decoders against their frozen scalar references.

``decode_residuals`` and ``decode_residuals_weighted`` work on whole
arrays; :mod:`repro.perf.reference` keeps the scalar decoders they
replaced. On every seeded residual pattern below — single and multiple
errors, L-shapes, rectangles, checksum-only errors, ±Inf/NaN, ties and
smeared patterns, up to 512 lines for the unit decoder and 128 for the
weighted one — both must return the same errors (magnitudes bit for
bit) or raise the same message, and leave the same residuals behind.
The driver-level tests run whole recoveries both ways.
"""

import struct

import numpy as np
import pytest

import repro.abft.location as location
import repro.abft.qprotect as qprotect
from repro.abft import (
    EncodedMatrix,
    decode_residuals,
    decode_residuals_weighted,
    locate_errors_rowonly,
    make_weight_block,
)
from repro.core import FTConfig, ft_gehrd
from repro.errors import UncorrectableError
from repro.faults import FaultInjector, FaultSpec
from repro.perf.reference import (
    decode_residuals_reference,
    decode_residuals_weighted_reference,
)
from repro.resilience.ladder import ResilienceSupervisor
from repro.utils.rng import random_matrix

UNIT_KINDS = (
    "single", "multi", "lshape", "rectangle", "same_line", "checksum",
    "mixed", "nonfinite", "ties", "distinct", "near", "smeared",
)
WEIGHTED_KINDS = (
    "single", "multi", "lshape", "rectangle", "same_line", "checksum",
    "mixed", "nonfinite", "ties", "smeared",
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _outcome(decode, *args):
    """What a decoder returns (or raises), with every float as its bits
    and every index with its type, plus the residuals it leaves."""
    args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    try:
        errs = decode(*args)
        result = [
            (e.kind, type(e.row), e.row, type(e.col), e.col, _bits(e.magnitude),
             type(e.channel), e.channel)
            for e in errs
        ]
    except UncorrectableError as exc:
        result = ("raised", str(exc))
    left = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
    return result, left


def _magnitude(rng) -> float:
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))


def _lines(rng, n: int, count: int) -> np.ndarray:
    return rng.choice(n, size=min(count, n), replace=False)


def _data_errors(rng, kind: str, n: int, big: int):
    """(row, col, magnitude) triples of one pattern kind."""

    def m():
        return _magnitude(rng)

    if kind == "single":
        return [(int(rng.integers(n)), int(rng.integers(n)), m())]
    if kind == "lshape":
        r = _lines(rng, n, 2)
        c = _lines(rng, n, 2)
        return [(r[0], c[0], m()), (r[0], c[1], m()), (r[1], c[1], m())]
    if kind == "rectangle":
        r = _lines(rng, n, 2)
        c = _lines(rng, n, 2)
        a, b = m(), m()
        return [(r[0], c[0], a), (r[0], c[1], b), (r[1], c[0], b), (r[1], c[1], a)]
    if kind == "same_line":
        count = int(rng.integers(2, 9))
        line, others = int(rng.integers(n)), _lines(rng, n, count)
        if rng.random() < 0.5:
            return [(line, c, m()) for c in others]
        return [(r, line, m()) for r in others]
    if kind == "distinct":
        count = int(rng.integers(2, big + 1))
        rows, cols = _lines(rng, n, count), _lines(rng, n, count)
        return [(r, c, m()) for r, c in zip(rows, cols)]
    if kind == "ties":
        # few magnitudes on a small grid of lines: shared lines, repeated
        # matches, chains of peels and near-ties at the relative tolerance
        span = int(rng.integers(2, min(big, n) + 1))
        rows, cols = _lines(rng, n, span), _lines(rng, n, span)
        pool = [1.0, 2.0, 3.0, 1.0 + 1e-9, 1.0 + 2e-9, -1.0]
        count = int(rng.integers(2, 3 * span + 1))
        return [(rng.choice(rows), rng.choice(cols), float(rng.choice(pool)))
                for _ in range(count)]
    # multi / mixed / nonfinite: a few errors anywhere, lines may collide
    return [(int(rng.integers(n)), int(rng.integers(n)), m())
            for _ in range(int(rng.integers(2, 9)))]


def _unit_case(seed: int, kind: str):
    rng = np.random.default_rng([seed, UNIT_KINDS.index(kind)])
    n = int(rng.choice([8, 24, 96, 512], p=[0.25, 0.35, 0.3, 0.1]))
    tol = float(10.0 ** rng.uniform(-12, -6))
    dr = rng.normal(scale=tol / 8, size=n)  # sub-threshold roundoff
    dc = rng.normal(scale=tol / 8, size=n)
    if rng.random() < 0.2:
        dr[:] = 0.0
        dc[:] = 0.0
    if kind == "checksum":
        side = dr if rng.random() < 0.5 else dc
        for i in _lines(rng, n, int(rng.integers(1, n + 1))):
            side[i] -= _magnitude(rng)
        return dr, dc, tol
    if kind == "smeared":
        # the state tier 0 sees after the updates spread an error:
        # dense residuals on most lines, a few lone errors planted on top
        rows = _lines(rng, n, int(rng.integers(n // 3, n + 1)))
        cols = _lines(rng, n, int(rng.integers(n // 3, n + 1)))
        e = np.outer(rng.normal(size=rows.size), rng.normal(size=cols.size))
        e += rng.normal(scale=0.1, size=e.shape)
        dr[rows] += e.sum(axis=1)
        dc[cols] += e.sum(axis=0)
        for _ in range(int(rng.integers(0, 4))):
            i, j, m = int(rng.integers(n)), int(rng.integers(n)), _magnitude(rng)
            dr[i] += m
            dc[j] += m
        return dr, dc, tol
    if kind == "near":
        # a large error whose column also holds a small one, within the
        # relative tolerance of the large: the column still matches the
        # large error's row, and after that peel it is re-matched against
        # the small errors' rows (a few sizes, so some collide)
        tol = float(10.0 ** rng.uniform(-12, -8))
        count = int(rng.integers(2, n // 2 + 1))
        rows, cols = _lines(rng, n, 2 * count), _lines(rng, n, count)
        for t, (i, j) in enumerate(zip(rows[:count], cols)):
            m = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(3.5, 4))
            dr[i] += m
            dc[j] += m
            if rng.random() < 0.6:
                s = tol * float(rng.choice([2.0, 3.0, 5.0]))
                dr[rows[count + t]] += s
                dc[j] += s
        return dr, dc, tol
    for i, j, m in _data_errors(rng, kind, n, big=n):
        dr[i] += m
        dc[j] += m
    if kind == "mixed":
        for _ in range(int(rng.integers(1, 4))):
            side = dr if rng.random() < 0.5 else dc
            side[int(rng.integers(n))] -= _magnitude(rng)
    if kind == "nonfinite":
        for _ in range(int(rng.integers(1, 4))):
            side = dr if rng.random() < 0.5 else dc
            side[int(rng.integers(n))] = rng.choice([np.inf, -np.inf, np.nan])
    return dr, dc, tol


def _weighted_case(seed: int, kind: str):
    rng = np.random.default_rng([seed, 100 + WEIGHTED_KINDS.index(kind)])
    n = int(rng.choice([8, 24, 64, 128], p=[0.25, 0.35, 0.25, 0.15]))
    if kind == "ties":
        n = min(n, 64)  # the scalar reference runs out its guard here
    k = int(rng.choice([2, 3], p=[0.8, 0.2]))
    w = make_weight_block(n, k, rng.choice([np.float64, np.float32]))
    w64 = w.astype(np.float64)
    tol = float(10.0 ** rng.uniform(-12, -6))
    drb = rng.normal(scale=tol / 8, size=(n, k))
    dcb = rng.normal(scale=tol / 8, size=(k, n))
    if kind == "checksum":
        for _ in range(int(rng.integers(1, 2 * n))):
            q = int(rng.integers(k))
            if rng.random() < 0.5:
                drb[int(rng.integers(n)), q] -= _magnitude(rng)
            else:
                dcb[q, int(rng.integers(n))] -= _magnitude(rng)
        return drb, dcb, w, tol
    if kind == "smeared":
        rows = _lines(rng, n, int(rng.integers(n // 3, n + 1)))
        cols = _lines(rng, n, int(rng.integers(n // 3, n + 1)))
        e = np.outer(rng.normal(size=rows.size), rng.normal(size=cols.size))
        e += rng.normal(scale=0.1, size=e.shape)
        drb[rows] += e @ w64[:, cols].T
        dcb[:, cols] += w64[:, rows] @ e
        return drb, dcb, w, tol
    for i, j, m in _data_errors(rng, kind, n, big=min(n, 12)):
        drb[i] += m * w64[:, j]
        dcb[:, j] += m * w64[:, i]
    if kind == "mixed":
        for _ in range(int(rng.integers(1, 4))):
            q = int(rng.integers(k))
            if rng.random() < 0.5:
                drb[int(rng.integers(n)), q] -= _magnitude(rng)
            else:
                dcb[q, int(rng.integers(n))] -= _magnitude(rng)
    if kind == "nonfinite":
        # whole lines, or the unit channel alone: a hot unit channel next
        # to a non-finite ratio is the crash case, tested on its own
        for _ in range(int(rng.integers(1, 4))):
            bad = rng.choice([np.inf, -np.inf, np.nan])
            line = drb[int(rng.integers(n))] if rng.random() < 0.5 else dcb[:, int(rng.integers(n))]
            if rng.random() < 0.5:
                line[:] = bad
            else:
                line[0] = bad
    return drb, dcb, w, tol


@pytest.mark.parametrize("kind", UNIT_KINDS)
def test_unit_decoder_matches_reference(kind):
    for seed in range(24):
        dr, dc, tol = _unit_case(seed, kind)
        want = _outcome(decode_residuals_reference, dr, dc, tol)
        got = _outcome(decode_residuals, dr, dc, tol)
        assert got == want, f"{kind} seed {seed}"


def test_unit_decoder_matches_reference_on_full_smears():
    """The largest patterns: 512 x 480 smeared lines, and 512 lone errors
    peeled one after another."""
    for seed in range(2):
        rng = np.random.default_rng([seed, 99])
        n, tol = 512, 1e-9
        dr = rng.normal(scale=tol / 8, size=n)
        dc = rng.normal(scale=tol / 8, size=n)
        e = np.outer(rng.normal(size=n), rng.normal(size=480))
        dr += e.sum(axis=1)
        dc[:480] += e.sum(axis=0)
        assert _outcome(decode_residuals, dr, dc, tol) == _outcome(
            decode_residuals_reference, dr, dc, tol
        )
        dr = np.zeros(n)
        dc = np.zeros(n)
        dr[rng.permutation(n)] += rng.uniform(1, 2, size=n)
        dc[:] = dr[rng.permutation(n)]
        got = _outcome(decode_residuals, dr, dc, tol)
        assert got == _outcome(decode_residuals_reference, dr, dc, tol)
        assert len(got[0]) == n


@pytest.mark.parametrize("kind", WEIGHTED_KINDS)
def test_weighted_decoder_matches_reference(kind):
    for seed in range(12):
        drb, dcb, w, tol = _weighted_case(seed, kind)
        want = _outcome(decode_residuals_weighted_reference, drb, dcb, w, tol)
        got = _outcome(decode_residuals_weighted, drb, dcb, w, tol)
        assert got == want, f"{kind} seed {seed}"


class TestBoundaries:
    """Hand-made patterns at the edges the generator rarely reaches."""

    def test_peeled_row_never_matches_again(self):
        """Row 1 (2.2e-10) is peeled with column 0. Peeling (2, 1) then
        leaves column 1 at 3e-10, within tol of row 1's old residual as
        well as of live row 3's (3.8e-10). Only the live row counts, so
        (3, 1) peels next."""
        tol = 1e-10
        dr, dc = np.zeros(8), np.zeros(8)
        for i, j, m in [(0, 0, 1000.0), (1, 0, 2.2e-10), (2, 1, 2000.0),
                        (2, 3, -3e-10), (3, 3, 3.8e-10), (5, 5, 7.0)]:
            dr[i] += m
            dc[j] += m
        got = _outcome(decode_residuals, dr, dc, tol)
        assert got == _outcome(decode_residuals_reference, dr, dc, tol)
        assert [(row, col) for _, _, row, _, col, *_ in got[0]] == [
            (0, 0), (1, 0), (2, 1), (3, 1), (5, 5)
        ]

    def test_weighted_match_at_exactly_the_tolerance(self):
        """A channel exactly ``max(tol, 1e-8·|m|)`` off the prediction still
        matches; the column side of the same error does not decode."""
        tol = 2.0**-20
        w = make_weight_block(2, 2)  # channel 1 is [0.5, 1.0]
        drb = np.array([[1.0, 1.0 + tol], [0.0, 0.0]])
        dcb = np.array([[0.0, 1.0], [0.0, 0.75]])
        got = _outcome(decode_residuals_weighted, drb, dcb, w, tol)
        assert got == _outcome(decode_residuals_weighted_reference, drb, dcb, w, tol)
        assert [(kind, row, col, ch) for kind, _, row, _, col, _, _, ch in got[0]] == [
            ("data", 0, 1, 0), ("col_checksum", -1, 1, 1)
        ]


class TestNonFiniteRatio:
    """A hot, finite unit-channel residual next to a non-finite channel-1
    residual has no ratio. Such a line is not ratio-decodable: the
    decoders raise ``UncorrectableError`` (which the ladder escalates on),
    not ``OverflowError``/``ValueError``."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_weighted_decoder(self, bad):
        n = 16
        w = make_weight_block(n, 2)
        drb = np.zeros((n, 2))
        dcb = np.zeros((2, n))
        drb[3] = [1.0, bad]
        with pytest.raises(UncorrectableError, match="stalled"):
            decode_residuals_weighted(drb, dcb, w, 1e-10)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weighted_decoder_still_peels_the_rest(self, bad):
        """The undecodable line does not hide a decodable one."""
        n = 16
        w = make_weight_block(n, 2)
        drb = np.zeros((n, 2))
        dcb = np.zeros((2, n))
        drb[3] = [1.0, bad]
        drb[7] += 2.0 * w[:, 11]
        dcb[:, 11] += 2.0 * w[:, 7]
        with pytest.raises(UncorrectableError, match="stalled: rows \\[3\\]"):
            decode_residuals_weighted(drb, dcb, w, 1e-10)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_row_only_locator(self, bad):
        em = EncodedMatrix(random_matrix(16, seed=3), channels=2)
        em.ext[3, em.n] += 1.0
        em.ext[3, em.n + 1] = bad
        with pytest.raises(UncorrectableError, match="row 3: ratio test gave no column"):
            locate_errors_rowonly(em, 0, 1.0)


class TestMaskedSums:
    """One boolean mask and one copy give the per-column loop's masked
    matrix, and the shared fresh sums its products, bit for bit."""

    @staticmethod
    def _loop_masked(em, finished):
        m = em.data.copy()
        for j in range(min(finished, em.n)):
            m[j + 2 :, j] = 0.0
        return m

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_fresh_sums_bitwise(self, dtype, channels):
        n = 96
        em = EncodedMatrix(random_matrix(n, seed=5, dtype=dtype), channels=channels)
        for finished in (0, 1, 2, 33, n - 2, n - 1, n, n + 5):
            loop = self._loop_masked(em, finished)
            masked = em._masked(finished)
            assert masked.tobytes() == loop.tobytes()
            assert masked.flags.c_contiguous == loop.flags.c_contiguous
            rows, cols = em.fresh_sums(finished)
            if channels == 1:
                ones = np.ones(n, dtype=em.ext.dtype)
                assert rows.tobytes() == (loop @ ones).tobytes()
                assert cols.tobytes() == (ones @ loop).tobytes()
                assert rows.tobytes() == em.fresh_row_sums(finished).tobytes()
                assert cols.tobytes() == em.fresh_col_sums(finished).tobytes()
            else:
                assert rows.tobytes() == (loop @ em.weights.T).tobytes()
                assert cols.tobytes() == (em.weights @ loop).tobytes()
                assert rows.tobytes() == em.fresh_row_block(finished).tobytes()
                assert cols.tobytes() == em.fresh_col_block(finished).tobytes()


# -- whole recoveries, array decoders vs the references -----------------------

#: Faults that the iteration's own updates smear before the detector sees
#: them, so tier 0 decodes a smeared pattern; the panel_v plan goes on
#: through the deep rollback to the restart. The delayed plan strikes the
#: checkpoint, unseen until the recovery restores it: two channels decode
#: it with its trigger at tier 1, one channel goes on to the restart.
SMEAR_PLANS = {
    "post_panel": [dict(iteration=1, row=90, col=100, magnitude=2.0, phase="post_panel")],
    "post_right": [dict(iteration=2, row=100, col=110, magnitude=-3.0, phase="post_right")],
    "panel_v": [dict(iteration=1, row=20, col=5, space="panel_v", phase="post_panel")],
    "delayed": [dict(iteration=1, row=20, col=5, space="checkpoint", phase="post_right"),
                dict(iteration=1, row=90, col=100, phase="post_right")],
}


def _run(a, channels, plan, monkeypatch):
    attempts = []
    record = ResilienceSupervisor.record

    def logged(self, tier, iteration, success, detail=""):
        attempts.append((tier, iteration, success, detail))
        return record(self, tier, iteration, success, detail)

    with monkeypatch.context() as mp:
        mp.setattr(ResilienceSupervisor, "record", logged)
        injector = FaultInjector(faults=[FaultSpec(**f) for f in SMEAR_PLANS[plan]])
        cfg = FTConfig(nb=32, channels=channels)
        res = ft_gehrd(a, cfg, injector=injector)
    q = res.q_report
    return {
        "a": res.a.tobytes(),
        "taus": res.taus.tobytes(),
        "recoveries": repr(res.recoveries),
        "attempts": attempts,
        "q": (repr(q.errors), q.row_residuals.tobytes(), q.col_residuals.tobytes()),
        "counts": (res.detections, res.restarts, res.tau_repairs, res.checks),
        "flops": dict(res.counter.by_category),
    }


@pytest.mark.parametrize("plan", sorted(SMEAR_PLANS))
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_recovery_identical_with_reference_decoders(plan, channels, dtype, monkeypatch):
    a = random_matrix(128, seed=21, dtype=dtype)
    live = _run(a, channels, plan, monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(location, "decode_residuals", decode_residuals_reference)
        mp.setattr(location, "decode_residuals_weighted",
                   decode_residuals_weighted_reference)
        mp.setattr(qprotect, "decode_residuals", decode_residuals_reference)
        ref = _run(a, channels, plan, monkeypatch)
    assert live == ref
    assert live["attempts"], "the plan must reach the recovery ladder"
