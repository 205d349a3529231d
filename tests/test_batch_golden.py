"""Golden tests: the stacked engine vs the scalar drivers, byte for byte.

The batched fast path's whole contract is *bit-identical* agreement
with the scalar kernels on clean inputs (``np.array_equal``, not
``allclose``) plus the ejection contract for anything faulty. These
tests pin both, over an (n, nb, B) grid, and pin the serve-side
batched execution and coalescing lane on top.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FTConfig, ft_gehrd
from repro.core.hybrid_hessenberg import iteration_plan_cached
from repro.batch import (
    BatchResult,
    as_item_f_stack,
    ft_gehrd_batched,
    gehrd_batched,
)
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import flops as F
from repro.linalg.gehrd import gehrd
from repro.perf.workspace import Workspace
from repro.serve import HessService, JobSpec
from repro.serve.jobs import (
    batch_compatible,
    batch_group_key,
    execute_job,
    execute_jobs_batched,
)

GRID = [
    (32, 32, 4), (48, 16, 3), (64, 32, 5), (33, 8, 3), (8, 4, 6),
    # multi-panel shapes: several blocked iterations with a shrinking window
    (160, 32, 2), (256, 32, 2),
]


def _mats(n: int, b: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed + 13 * n + b)
    return [np.asfortranarray(rng.standard_normal((n, n))) for _ in range(b)]


# ---------------------------------------------------------------------------
# gehrd_batched
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,nb,b", GRID)
def test_gehrd_batched_matches_scalar_bytewise(n, nb, b):
    mats = _mats(n, b)
    facts = gehrd_batched(as_item_f_stack(mats), nb=nb)
    assert len(facts) == b
    for i, m in enumerate(mats):
        ref = gehrd(m.copy(order="F"), nb=nb)
        assert np.array_equal(facts[i].a, ref.a)
        assert np.array_equal(facts[i].taus, ref.taus)


def test_gehrd_batched_workspace_reuse_stays_identical():
    n, nb, b = 32, 32, 3
    ws = Workspace()
    for trial in range(3):
        mats = _mats(n, b, seed=trial)
        facts = gehrd_batched(as_item_f_stack(mats), nb=nb, workspace=ws)
        for i, m in enumerate(mats):
            ref = gehrd(m.copy(order="F"), nb=nb)
            assert np.array_equal(facts[i].a, ref.a)
            assert np.array_equal(facts[i].taus, ref.taus)


# ---------------------------------------------------------------------------
# ft_gehrd_batched: clean fast path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,nb,b", GRID)
def test_ft_batched_matches_scalar_bytewise(n, nb, b):
    mats = _mats(n, b)
    cfg = FTConfig(nb=nb)
    br = ft_gehrd_batched(as_item_f_stack(mats), cfg)
    assert isinstance(br, BatchResult)
    assert br.ejected == [] and br.errors == {}
    assert br.iterations == len(iteration_plan_cached(n, nb))
    for i, m in enumerate(mats):
        ref = ft_gehrd(m.copy(order="F"), cfg)
        res = br.results[i]
        assert np.array_equal(res.a, ref.a)
        assert np.array_equal(res.taus, ref.taus)
        # the shared order-only pricing run prices every clean item exactly
        assert res.seconds == ref.seconds
        assert res.checks == ref.checks


def test_ft_batched_two_channels_matches_scalar():
    n, nb, b = 48, 16, 3
    mats = _mats(n, b, seed=5)
    cfg = FTConfig(nb=nb, channels=2)
    br = ft_gehrd_batched(as_item_f_stack(mats), cfg)
    assert br.ejected == []
    for i, m in enumerate(mats):
        ref = ft_gehrd(m.copy(order="F"), cfg)
        assert np.array_equal(br.results[i].a, ref.a)
        assert np.array_equal(br.results[i].taus, ref.taus)


# ---------------------------------------------------------------------------
# ejection contract
# ---------------------------------------------------------------------------


def _fault_injector(n: int) -> FaultInjector:
    return FaultInjector().add(
        FaultSpec(iteration=1, row=n // 2, col=n - 2, magnitude=2.0)
    )


def test_faulty_item_ejects_and_siblings_complete_untouched():
    n, nb, b, faulty = 48, 16, 4, 2
    mats = _mats(n, b, seed=9)
    cfg = FTConfig(nb=nb)
    br = ft_gehrd_batched(
        as_item_f_stack(mats),
        cfg,
        injectors=[_fault_injector(n) if i == faulty else None for i in range(b)],
    )
    # the faulty item ejected at the detecting iteration, nothing else
    assert br.ejected == [faulty]
    assert 0 <= br.ejected_at[faulty] < br.iterations
    assert br.errors == {}
    for i, m in enumerate(mats):
        inj = _fault_injector(n) if i == faulty else None
        ref = ft_gehrd(m.copy(order="F"), cfg, injector=inj)
        res = br.results[i]
        assert np.array_equal(res.a, ref.a)
        assert np.array_equal(res.taus, ref.taus)
        if i == faulty:
            # the ejected item really ran the scalar resilience ladder
            assert res.detections >= 1 and len(res.recoveries) >= 1
        else:
            assert res.detections == 0 and res.recoveries == []


def test_caller_injectors_are_never_mutated():
    n, b = 32, 3
    inj = _fault_injector(n)
    ft_gehrd_batched(
        as_item_f_stack(_mats(n, b)),
        FTConfig(nb=32),
        injectors=[None, inj, None],
    )
    # the plan replays on clones; the caller's injector still has every
    # fault unfired
    assert inj.unfired() == list(inj.faults)


def test_unbatchable_fault_plan_preejects():
    n, b = 32, 2
    inj = FaultInjector().add(
        FaultSpec(iteration=1, row=3, col=3, space="tau", phase="post_panel")
    )
    br = ft_gehrd_batched(
        as_item_f_stack(_mats(n, b)),
        FTConfig(nb=32),
        injectors=[inj, None],
    )
    assert br.ejected == [0]
    assert br.ejected_at[0] == -1  # never entered the stack
    assert br.results[0] is not None and br.results[1] is not None


# ---------------------------------------------------------------------------
# batched Q formation / residual tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,nb,b", [(32, 32, 4), (48, 16, 3), (8, 4, 6)])
def test_qform_batched_matches_scalar_bytewise(n, nb, b):
    from repro.batch import (
        extract_hessenberg_batched,
        factorization_residuals_batched,
        orghr_batched,
    )
    from repro.linalg import extract_hessenberg, factorization_residual, orghr

    mats = _mats(n, b)
    stack = as_item_f_stack(mats)
    facts = gehrd_batched(stack, nb=nb)
    a_pack = as_item_f_stack([f.a for f in facts])
    taus = np.stack([f.taus for f in facts])
    qs = orghr_batched(a_pack, taus)
    hs = extract_hessenberg_batched(a_pack)
    res = factorization_residuals_batched(stack, qs, hs)
    for i in range(b):
        q_ref = orghr(facts[i].a, facts[i].taus)
        h_ref = extract_hessenberg(facts[i].a)
        assert np.array_equal(qs[i], q_ref)
        assert np.array_equal(hs[i], h_ref)
        assert res[i] == factorization_residual(mats[i], q_ref, h_ref)


# ---------------------------------------------------------------------------
# flop accounting (satellite: linalg.flops batched helpers)
# ---------------------------------------------------------------------------


def test_batched_flops_scale_per_item():
    assert F.batched_flops(4, 10) == 40
    assert F.gemm_batched_flops(3, 4, 5, 6) == 3 * F.gemm_flops(4, 5, 6)
    assert F.gemv_batched_flops(2, 7, 8) == 2 * F.gemv_flops(7, 8)
    with pytest.raises(ValueError):
        F.batched_flops(-1, 10)


def test_batched_driver_counts_b_times_scalar_flops():
    n, nb, b = 32, 32, 3
    mats = _mats(n, b, seed=2)
    cfg = FTConfig(nb=nb)
    br = ft_gehrd_batched(as_item_f_stack(mats), cfg)
    scalar = ft_gehrd(mats[0].copy(order="F"), cfg)
    # exact B x per-item accounting, category by category; the one
    # legitimate difference is Q-protection upkeep, which the batched
    # fast path skips entirely (audits are off by eligibility, so the
    # scalar driver's qprotect flops buy nothing a batched run needs)
    assert "abft_qprotect" not in br.counter.by_category
    for cat, scalar_flops in scalar.counter.by_category.items():
        if cat == "abft_qprotect":
            continue
        assert br.counter.by_category[cat] == b * scalar_flops


# ---------------------------------------------------------------------------
# serve: execute_jobs_batched payload parity
# ---------------------------------------------------------------------------


def test_batch_compatible_surface():
    assert batch_compatible(JobSpec(driver="ft_gehrd", n=32))
    assert batch_compatible(JobSpec(driver="gehrd", n=32))
    assert not batch_compatible(JobSpec(driver="ft_sytrd", n=32))
    assert not batch_compatible(JobSpec(driver="ft_gehrd", n=32, functional=False))
    assert not batch_compatible(JobSpec(driver="ft_gehrd", n=32, audit_every=2))
    assert not batch_compatible(
        JobSpec(driver="ft_gehrd", n=32, return_factors=True)
    )
    assert not batch_compatible(JobSpec(driver="gehrd", n=32, crash=True))
    # fault plans stay compatible: the engine ejects them item-by-item
    assert batch_compatible(
        JobSpec(driver="ft_gehrd", n=32,
                faults=({"iteration": 1, "row": 3, "col": 3},))
    )


def test_execute_jobs_batched_payloads_match_execute_job():
    n = 32
    specs = [JobSpec(driver="ft_gehrd", n=n, seed=s) for s in range(4)]
    specs += [
        JobSpec(
            driver="ft_gehrd",
            n=n,
            seed=9,
            faults=({"iteration": 1, "row": n // 2, "col": n - 2, "magnitude": 2.0},),
        )
    ]
    assert len({batch_group_key(s) for s in specs}) == 1
    out = execute_jobs_batched(specs)
    assert out["batch_size"] == len(specs)
    assert out["ejections"] == 1  # the fault job finished on the scalar ladder
    for spec, oc in zip(specs, out["outcomes"]):
        assert oc["ok"]
        ref = execute_job(spec)
        got = dict(oc["payload"])
        # wall-clock differs by construction; every result key is exact
        got.pop("elapsed_s"), ref.pop("elapsed_s")
        assert got == ref


def test_execute_jobs_batched_gehrd_group():
    specs = [JobSpec(driver="gehrd", n=24, nb=8, seed=s) for s in range(3)]
    out = execute_jobs_batched(specs)
    for spec, oc in zip(specs, out["outcomes"]):
        ref = execute_job(spec)
        got = dict(oc["payload"])
        got.pop("elapsed_s"), ref.pop("elapsed_s")
        assert got == ref


def test_execute_jobs_batched_rejects_mixed_groups():
    from repro.serve import JobSpecError

    with pytest.raises(JobSpecError):
        execute_jobs_batched(
            [JobSpec(driver="gehrd", n=32), JobSpec(driver="ft_gehrd", n=32)]
        )


# ---------------------------------------------------------------------------
# serve: the batch-coalescing lane end to end
# ---------------------------------------------------------------------------


def test_service_batch_lane_forms_batches_and_matches_scalar():
    n = 32
    specs = [JobSpec(driver="ft_gehrd", n=n, seed=s) for s in range(6)]
    specs += [JobSpec(driver="gehrd", n=n, seed=s) for s in range(6)]
    with HessService(
        workers=1,
        max_queue=64,
        small_n_threshold=n,
        batch_max=6,
        batch_linger_ms=20.0,
    ) as svc:
        subs = [svc.submit(s) for s in specs]
        assert all(s.accepted for s in subs)
        svc.drain(timeout=120)
        stats = svc.stats()
        results = [svc.result(s.job_id, timeout=5) for s in subs]

    lane = stats["batch_lane"]
    assert lane["enabled"] and lane["batches"] >= 2
    assert lane["batched_jobs"] == len(specs)
    assert lane["mean_occupancy"] > 1.0
    for spec, res in zip(specs, results):
        assert res.status == "done"
        ref = execute_job(spec)
        got = dict(res.payload)
        got.pop("elapsed_s"), ref.pop("elapsed_s")
        assert got == ref


def test_service_batch_lane_singleton_reroutes_to_scalar_path():
    n = 32
    with HessService(
        workers=1,
        small_n_threshold=n,
        batch_max=8,
        batch_linger_ms=1.0,
    ) as svc:
        sub = svc.submit(JobSpec(driver="ft_gehrd", n=n, seed=0))
        assert sub.accepted
        res = svc.result(sub.job_id, timeout=60)
        stats = svc.stats()
    assert res.status == "done"
    assert stats["batch_lane"]["singletons"] == 1
    assert stats["batch_lane"]["batches"] == 0


def test_service_batch_lane_disabled_by_default():
    n = 32
    with HessService(workers=1, small_n_threshold=n) as svc:
        sub = svc.submit(JobSpec(driver="ft_gehrd", n=n, seed=0))
        res = svc.result(sub.job_id, timeout=60)
        stats = svc.stats()
    assert res.status == "done"
    assert not stats["batch_lane"]["enabled"]
    assert stats["batch_lane"]["batches"] == 0


def test_service_batch_lane_fault_job_ejects_in_lane():
    n = 32
    fault_spec = JobSpec(
        driver="ft_gehrd",
        n=n,
        seed=7,
        # iteration 0: n=32/nb=32 runs a single blocked iteration, so
        # this fires mid-run and trips detection (ejection by detection,
        # not by end-of-run escort)
        faults=({"iteration": 0, "row": n // 2, "col": n - 2, "magnitude": 2.0},),
    )
    specs = [JobSpec(driver="ft_gehrd", n=n, seed=s) for s in range(3)]
    specs.append(fault_spec)
    with HessService(
        workers=1,
        small_n_threshold=n,
        batch_max=4,
        batch_linger_ms=50.0,
    ) as svc:
        subs = [svc.submit(s) for s in specs]
        svc.drain(timeout=120)
        stats = svc.stats()
        fault_res = svc.result(subs[-1].job_id, timeout=5)
    assert stats["batch_lane"]["batches"] == 1
    assert stats["batch_lane"]["ejections"] == 1
    assert fault_res.status == "done"
    assert fault_res.payload["recoveries"] >= 1
    assert stats["tier_tally"]  # the ejected item's recovery was tallied
    # the lane's answer is the scalar driver's answer, fault and all
    ref = execute_job(fault_spec)
    got = dict(fault_res.payload)
    got.pop("elapsed_s"), ref.pop("elapsed_s")
    assert got == ref


# ---------------------------------------------------------------------------
# larfg_batched hypot parity + fused batched left update invocations
# ---------------------------------------------------------------------------


class TestLarfgHypotParity:
    """The vectorized ``larfg_batched`` tail is gated by a byte-parity
    probe of ``np.hypot`` against correctly-rounded ``math.hypot``; the
    kernel must stay bitwise equal to the scalar ``larfg`` no matter
    which branch the probe picks — including adversarial magnitudes."""

    # denormals, eps-scale mixes, huge/tiny pairings, overflow-adjacent
    MAGS = [
        0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-155,
        1e-30, 1e-16, 0.5, 1.0, 1.5, 3.0, 1e3, 1e16, 1e30, 1e155,
        1e300, 8.988465674311579e307,
    ]

    def _sweep(self, dtype):
        from repro.linalg.householder import larfg
        from repro.batch.panel import larfg_batched

        rng = np.random.default_rng(99)
        cols = []
        for m in self.MAGS:
            for mx in (self.MAGS[0], 1e-300, 1.0, 1e300):
                v = rng.standard_normal(6)
                v[0] = m
                v[1] = mx
                cols.append(v)
        # dense ordinary-mantissa columns — the regime where a SIMD
        # hypot actually diverges from the correctly-rounded one
        for _ in range(256):
            cols.append(rng.standard_normal(6) * np.exp(rng.uniform(-20, 20)))
        arr = np.array(cols, dtype=dtype)  # (B, 6) item rows
        alphas = arr[:, 0].copy()
        xs = arr[:, 1:].copy()
        beta_b, tau_b = larfg_batched(alphas.copy(), xs.copy())
        for i in range(arr.shape[0]):
            x = arr[i, 1:].copy()
            ref = larfg(alphas[i], x)
            assert beta_b[i] == ref.beta or (
                np.isnan(beta_b[i]) and np.isnan(ref.beta)
            ), f"beta mismatch at col {i}: {beta_b[i]!r} vs {ref.beta!r}"
            assert tau_b[i] == ref.tau or (
                np.isnan(tau_b[i]) and np.isnan(ref.tau)
            ), f"tau mismatch at col {i}: {tau_b[i]!r} vs {ref.tau!r}"

    def test_fp64_sweep(self):
        self._sweep(np.float64)

    def test_fp32_sweep(self):
        self._sweep(np.float32)

    def test_probe_is_cached_and_consistent(self):
        from repro.batch import panel

        first = panel.hypot_vectorizes_exactly()
        assert panel.hypot_vectorizes_exactly() is first  # cached bool
        # the probe's verdict must match a direct dense-pair comparison
        import math

        rng = np.random.default_rng(0xBEEF)
        a = rng.standard_normal(4096) * np.exp(rng.uniform(-20, 20, 4096))
        c = np.abs(rng.standard_normal(4096)) * np.exp(rng.uniform(-20, 20, 4096))
        got = np.hypot(a, c)
        want = np.array([math.hypot(x, y) for x, y in zip(a.tolist(), c.tolist())])
        if first:
            assert np.array_equal(got, want)
        # if the probe said False we cannot assert mismatch here (the
        # probe grid is wider), but the kernels must still be bitwise —
        # covered by the sweeps above either way.


def test_batched_fused_left_update_invocation_count(monkeypatch):
    """Batched mirror of the scalar invocation-count pin: the stacked
    fused left update issues exactly two stacked projection matmuls plus
    ONE stacked apply product (no per-item loop) — and nothing that
    produces a standalone k-row checksum product."""
    import repro.batch.updates as U
    import repro.perf.workspace as W
    from repro.batch.panel import lahr2_batched
    from repro.batch.stack import EncodedMatrixBatch

    n, nb, b, k = 48, 16, 3, 2
    mats = _mats(n, b, seed=5)
    emb = EncodedMatrixBatch(as_item_f_stack(mats), channels=k)
    ws = Workspace()
    p, ib = nb, nb
    pf = lahr2_batched(emb.ext, p, ib, n, workspace=ws)
    vce = U.v_col_checksums_batched(pf, emb)

    calls = []
    real_matmul = np.matmul

    def counting_matmul(x, y, out=None, **kw):
        r = real_matmul(x, y, out=out, **kw)
        calls.append(r.shape)
        return r

    class _NP:
        def __getattr__(self, name):
            return getattr(np, name)

    shim = _NP()
    shim.matmul = counting_matmul
    monkeypatch.setattr(U, "np", shim)
    monkeypatch.setattr(W, "np", shim)
    U.left_update_encoded_batched(emb, pf, vce, workspace=ws)
    assert len(calls) == 3
    # no standalone checksum-row product: nothing with k rows (or, for
    # the transposed product buffer, k columns) in the trailing dims
    assert all(k not in s[-2:] for s in calls)


# ---------------------------------------------------------------------------
# serve: backend-lane batched groups
# ---------------------------------------------------------------------------


def test_execute_jobs_batched_backend_group_matches_scalar_route():
    n = 32
    specs = [
        JobSpec(driver="ft_gehrd", n=n, seed=s, backend="numpy_functional")
        for s in range(3)
    ]
    assert len({batch_group_key(s) for s in specs}) == 1
    out = execute_jobs_batched(specs)
    assert out["batch_size"] == len(specs)
    assert out["ejections"] == 0
    for spec, oc in zip(specs, out["outcomes"]):
        assert oc["ok"]
        ref = execute_job(spec)  # the single-job backend route
        got = dict(oc["payload"])
        got.pop("elapsed_s"), ref.pop("elapsed_s")
        assert got == ref
        assert got["backend"] == "numpy_functional"
        assert got["residual"] < 1e-13


def test_execute_jobs_batched_backend_group_fault_ejects_to_scalar():
    n = 32
    specs = [
        JobSpec(driver="ft_gehrd", n=n, seed=s, backend="numpy_functional")
        for s in range(2)
    ]
    specs.append(
        JobSpec(
            driver="ft_gehrd", n=n, seed=9, backend="numpy_functional",
            # iteration 0: n=32/nb=32 is a single blocked iteration, so
            # this fires mid-run and the scalar ladder must recover it
            faults=({"iteration": 0, "row": n // 2, "col": n - 2,
                     "magnitude": 2.0},),
        )
    )
    out = execute_jobs_batched(specs)
    assert out["ejections"] == 1  # the fault finished on the scalar ladder
    for oc in out["outcomes"]:
        assert oc["ok"]
        assert oc["payload"]["residual"] < 1e-13
    # the ejected item's scalar re-run reports its own recovery traffic
    assert out["outcomes"][-1]["payload"]["recoveries"] >= 1
