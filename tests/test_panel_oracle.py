"""Byte oracle for the panel: ``lahr2`` and its stacked mirror against the
pooled per-column kernels frozen in :mod:`repro.perf.reference`.

The live panel divides each reflector straight into V, stores β once and
copies V's tails into the storage once per panel; the frozen one scaled
in the storage, copied into V and wrote a unit that the next column
overwrote. Every BLAS call gets the same operand values in the same
order, so every output must agree bit for bit: V, T, Y, the taus,
``ei`` and the whole storage array, on plain and checksum-extended
storage, at fp64 and fp32, including reflectors of zero norm. At driver level the frozen panel is
patched in where each driver looks it up, and whole runs, faulted ones
included, must not notice.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

import repro.core.ft_hessenberg as ft_mod
import repro.core.hybrid_hessenberg as hybrid_mod
from repro.abft.encoding import EncodedMatrix
from repro.batch import as_item_f_stack
from repro.batch.panel import lahr2_batched, larfg_batched
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd
from repro.faults import FaultInjector, FaultSpec
from repro.linalg.flops import FlopCounter
from repro.linalg.gehrd import gehrd
from repro.linalg.householder import larfg
from repro.linalg.lahr2 import lahr2
from repro.perf.reference import (
    lahr2_pooled_reference,
    larfg_batched_reference,
    larfg_reference,
)
from repro.perf.workspace import Workspace
from repro.utils.rng import random_matrix

# the package re-exports gehrd under the module's own name
gehrd_mod = importlib.import_module("repro.linalg.gehrd")

N = 75  # n - 1 = 74: a ragged last panel at every width below
DTYPES = [np.float64, np.float32]
#: squares that underflow to zero in each lane: tau = 0 with x != 0
TINY = {np.float64: 1e-200, np.float32: 1e-30}


def _panels(ib: int) -> list[tuple[int, int]]:
    """(p, width) of the first, a middle and the ragged last panel."""
    last = (N - 2) // ib * ib
    return [(0, ib), (last // 2 // ib * ib, ib), (last, min(ib, N - 1 - last))]


PANELS = [(p, w) for ib in (1, 7, 32) for p, w in _panels(ib)]


def _storage(dtype, channels: int, first_col: str, p: int, seed: int = 3) -> np.ndarray:
    """A plain (channels=0) or checksum-extended F-ordered storage array
    whose panel's first subcolumn is ordinary, zero or underflowing."""
    a = random_matrix(N, seed=seed, dtype=dtype)
    if first_col == "zero":
        a[p + 2 :, p] = 0.0
    elif first_col == "underflow":
        a[p + 2 :, p] = TINY[dtype] * np.linspace(1.0, 2.0, N - p - 2)
    if channels:
        return EncodedMatrix(a, channels=channels).ext
    return a


def _dirty_workspace(a: np.ndarray, ib: int) -> Workspace:
    """An arena whose every pool holds NaN: a buffer read before the panel
    writes it would poison the outputs."""
    ws = Workspace()
    ws.presize(a.shape[0], ib, dtype=a.dtype)
    for pool in ws._pools.values():
        pool.fill(np.nan)
    return ws


def _panel_bytes(a: np.ndarray, pf) -> dict:
    return {
        "storage": a.tobytes(),
        "v": pf.v.tobytes(),
        "v_full": pf.v_full.tobytes(),
        "t": pf.t.tobytes(),
        "y": pf.y.tobytes(),
        "taus": pf.taus.tobytes(),
        "ei": (type(pf.ei), math.copysign(1.0, pf.ei), float(pf.ei).hex()),
    }


@pytest.mark.parametrize("first_col", ["ordinary", "zero", "underflow"])
@pytest.mark.parametrize("channels", [0, 1, 2])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p,ib", PANELS)
def test_lahr2_matches_oracle_bytewise(p, ib, dtype, channels, first_col):
    a_ref = _storage(dtype, channels, first_col, p)
    a_new = a_ref.copy(order="F")
    pf_ref = lahr2_pooled_reference(a_ref, p, ib, N, workspace=_dirty_workspace(a_ref, ib))
    pf_new = lahr2(a_new, p, ib, N, workspace=_dirty_workspace(a_new, ib))
    assert _panel_bytes(a_new, pf_new) == _panel_bytes(a_ref, pf_ref)
    if first_col != "ordinary":
        assert pf_new.taus[0] == 0.0
    if first_col == "underflow" and p + 2 < N:
        assert pf_new.v[1:, 0].any()  # the unscaled x is the reflector


def _larfg_cases(dtype):
    rng = np.random.default_rng(17)
    tiny = TINY[dtype]
    yield 1.5, np.zeros(0)
    yield 0.0, np.zeros(5)
    yield -2.0, np.array([0.0, -0.0, 0.0])
    yield 3.0, tiny * np.array([1.0, -2.0, 0.5])
    yield 0.0, rng.standard_normal(6)
    yield 1e-300 if dtype == np.float64 else 1e-38, rng.standard_normal(4)
    for _ in range(40):
        yield rng.standard_normal() * 10.0 ** rng.integers(-8, 9), rng.standard_normal(
            int(rng.integers(1, 40))
        ) * 10.0 ** rng.integers(-8, 9)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("strided", [False, True])
def test_larfg_matches_oracle_bytewise(dtype, strided):
    for alpha, x in _larfg_cases(dtype):
        alpha = np.asarray(alpha, dtype=dtype)[()]
        x = np.asarray(x, dtype=dtype)
        # strided: a non-contiguous view of the same values
        x_ref, x_new = (np.repeat(x, 2)[::2] if strided else x.copy() for _ in range(2))
        ref = larfg_reference(alpha, x_ref)
        new = larfg(alpha, x_new)
        assert (float(new.beta).hex(), float(new.tau).hex()) == (
            float(ref.beta).hex(),
            float(ref.tau).hex(),
        )
        assert x_new.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("m", [0, 1, 9])
def test_larfg_batched_matches_oracle_bytewise(dtype, m):
    rng = np.random.default_rng(23 + m)
    x = rng.standard_normal((6, m)).astype(dtype)
    alpha = rng.standard_normal(6).astype(dtype)
    if m:
        x[1] = 0.0  # identity reflector
        x[2] *= TINY[dtype]  # underflowing squares: identity, x kept
        alpha[3] = 0.0
    for rows in (slice(None), slice(0, 1), slice(3, 6)):  # mixed and all-active
        xa, xb = x[rows].copy(), x[rows].copy()
        beta_ref, tau_ref = larfg_batched_reference(alpha[rows].copy(), xa)
        beta_new, tau_new = larfg_batched(alpha[rows].copy(), xb)
        assert beta_new.tobytes() == beta_ref.tobytes()
        assert tau_new.tobytes() == tau_ref.tobytes()
        assert xb.tobytes() == xa.tobytes()


@pytest.mark.parametrize("channels", [0, 2])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p,ib", [(0, 7), (35, 7), (70, 4), (64, 10)])
def test_lahr2_batched_matches_oracle_per_item(p, ib, dtype, channels):
    kinds = ["ordinary", "zero", "underflow"]
    items = [_storage(dtype, channels, kind, p, seed=40 + i) for i, kind in enumerate(kinds)]
    stack = as_item_f_stack(items)
    counter = FlopCounter()
    pfb = lahr2_batched(stack, p, ib, N, counter=counter, workspace=Workspace())
    scalar = FlopCounter()
    for b, item in enumerate(items):
        a_ref = item.copy(order="F")
        pf_ref = lahr2_pooled_reference(a_ref, p, ib, N, counter=scalar)
        pf = pfb.item(b)
        got = _panel_bytes(stack[b], pf)
        want = _panel_bytes(a_ref, pf_ref)
        # the stacked ei is kept in the lane dtype
        got.pop("ei"), want.pop("ei")
        assert got == want
        assert pfb.ei[b] == np.asarray(pf_ref.ei).astype(dtype)
    assert dict(counter.by_category) == dict(scalar.by_category)


# -- the drivers with the frozen panel patched in --------------------------------


PLANS = {
    "clean": [],
    # a column-checksum strike, fixed in place
    "in_place": [dict(iteration=2, row=-1, col=50, magnitude=1.0, space="col_checksum")],
    # a strike the right update smears: reverse the iteration and redo it
    "reverse_redo": [dict(iteration=2, row=70, col=80, magnitude=-3.0, phase="post_right")],
    # a rectangle no channel count decodes, and a strike on the live V
    "restart": [
        dict(iteration=2, row=r, col=c, magnitude=1.0) for r in (60, 65) for c in (70, 75)
    ],
    "restart_panel_v": [dict(iteration=1, row=20, col=5, space="panel_v", phase="post_panel")],
}


def _ft_run(a, plan, channels):
    injector = FaultInjector(faults=[FaultSpec(**f) for f in PLANS[plan]])
    res = ft_gehrd(a, FTConfig(nb=16, channels=channels), injector=injector)
    return {
        "a": res.a.tobytes(),
        "taus": res.taus.tobytes(),
        "recoveries": repr(res.recoveries),
        "tiers": [e.tier for e in res.recoveries],
        "counts": (res.detections, res.restarts, res.tau_repairs, res.checks),
        "flops": dict(res.counter.by_category),
        "timeline": res.timeline.ops,
        "seconds": res.seconds,
    }


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", DTYPES)
def test_ft_gehrd_identical_with_oracle_panel(plan, channels, dtype, monkeypatch):
    a = random_matrix(96, seed=4, dtype=dtype)
    live = _ft_run(a, plan, channels)
    with monkeypatch.context() as mp:
        mp.setattr(ft_mod, "lahr2", lahr2_pooled_reference)
        ref = _ft_run(a, plan, channels)
    assert live == ref
    want = {"clean": [], "in_place": ["in_place"], "reverse_redo": ["reverse_redo"]}
    assert live["tiers"] == want.get(plan, ["restart"])


@pytest.mark.parametrize("dtype", DTYPES)
def test_gehrd_and_hybrid_identical_with_oracle_panel(dtype, monkeypatch):
    a = random_matrix(96, seed=6, dtype=dtype)

    def run():
        counter = FlopCounter()
        fac = gehrd(a.copy(order="F"), nb=16, counter=counter)
        hy = hybrid_gehrd(a, HybridConfig(nb=16))
        return (
            fac.a.tobytes(), fac.taus.tobytes(), dict(counter.by_category),
            hy.a.tobytes(), hy.taus.tobytes(), dict(hy.counter.by_category),
            hy.timeline.ops, hy.seconds,
        )

    live = run()
    with monkeypatch.context() as mp:
        mp.setattr(gehrd_mod, "lahr2", lahr2_pooled_reference)
        mp.setattr(hybrid_mod, "lahr2", lahr2_pooled_reference)
        ref = run()
    assert live == ref
