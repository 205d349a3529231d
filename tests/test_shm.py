"""Tests for the zero-copy shared-memory data plane (repro.utils.shm).

Covers the transport primitives (handle roundtrip, attach caching,
transport selection), the owner-side SegmentRegistry (refcounts,
adoption, teardown, sweeps), and the two consumers: the campaign
executor and the batch service — including the hygiene guarantees
(no leaked /dev/shm segments after crashes, rebuilds, drains and
cancels; no resource_tracker noise at interpreter exit). The autouse
``_shm_leak_guard`` fixture in conftest.py backs every test here with
a before/after /dev/shm diff.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.utils.shm as shm_mod
from repro.core.config import FTConfig
from repro.faults.campaign import build_fault_grid
from repro.faults.executor import run_ft_trials
from repro.serve import HessService, JobSpec
from repro.serve.cache import ResultCache, _Entry
from repro.utils.rng import random_matrix
from repro.utils.shm import (
    DEFAULT_MIN_BYTES,
    SegmentRegistry,
    SharedMatrix,
    TransportError,
    hash_update_array,
    shm_available,
    sweep_stale_segments,
    use_shm_for,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no shared-memory support on this host"
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# transport selection
# ---------------------------------------------------------------------------


class TestUseShmFor:
    def test_pickle_always_declines(self):
        assert use_shm_for(10**9, "pickle") is False

    def test_auto_threshold(self):
        if not shm_available():
            pytest.skip("no shm")
        assert use_shm_for(DEFAULT_MIN_BYTES, "auto") is True
        assert use_shm_for(DEFAULT_MIN_BYTES - 1, "auto") is False
        assert use_shm_for(10, "auto", min_bytes=0) is True
        assert use_shm_for(10**9, "auto", min_bytes=2 * 10**9) is False

    @needs_shm
    def test_forced_shm_accepts_any_size(self):
        assert use_shm_for(1, "shm") is True

    def test_forced_shm_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "_AVAILABLE", False)
        with pytest.raises(TransportError):
            use_shm_for(10**6, "shm")
        # auto quietly falls back instead
        assert use_shm_for(10**6, "auto") is False

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            use_shm_for(100, "carrier-pigeon")


# ---------------------------------------------------------------------------
# SharedMatrix handles
# ---------------------------------------------------------------------------


@needs_shm
class TestSharedMatrix:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_roundtrip_preserves_values_and_order(self, order):
        a = np.asarray(random_matrix(17, seed=1), order=order)
        with SegmentRegistry(sweep=False) as reg:
            handle = SharedMatrix.create(a, registry=reg)
            assert handle.order == order
            view = handle.attach()
            np.testing.assert_array_equal(view, a)
            assert view.flags.f_contiguous == a.flags.f_contiguous
            del view

    def test_views_are_read_only_by_default(self):
        a = random_matrix(8, seed=2)
        with SegmentRegistry(sweep=False) as reg:
            handle = SharedMatrix.create(a, registry=reg)
            view = handle.attach()
            with pytest.raises(ValueError):
                view[0, 0] = 99.0
            writable = handle.attach(writable=True)
            writable[0, 0] = 99.0
            assert handle.attach()[0, 0] == 99.0
            del view, writable

    def test_handle_is_tiny_and_json_roundtrips(self):
        a = random_matrix(64, seed=3)
        with SegmentRegistry(sweep=False) as reg:
            handle = SharedMatrix.create(a, registry=reg)
            assert len(pickle.dumps(handle)) < 256 < a.nbytes
            back = SharedMatrix.from_json(json.loads(json.dumps(handle.to_json())))
            assert back == handle
            assert back.nbytes == a.nbytes

    def test_registryless_create_and_unlink(self):
        a = random_matrix(6, seed=4)
        handle = SharedMatrix.create(a)
        try:
            np.testing.assert_array_equal(np.array(handle.attach()), a)
        finally:
            shm_mod.detach_all()
            assert handle.unlink() is True
        assert handle.unlink() is False  # idempotent: already gone

    def test_attach_gone_segment_raises(self):
        handle = SharedMatrix(name="repro-shm-1-deadbeef", shape=(4, 4), dtype="float64")
        with pytest.raises(TransportError):
            handle.attach()


# ---------------------------------------------------------------------------
# SegmentRegistry
# ---------------------------------------------------------------------------


@needs_shm
class TestSegmentRegistry:
    def test_refcount_unlinks_at_zero(self):
        a = random_matrix(8, seed=5)
        reg = SegmentRegistry(sweep=False)
        handle = SharedMatrix.create(a, registry=reg)  # refs=1
        reg.acquire(handle.name)  # refs=2
        reg.release(handle.name)  # refs=1, still live
        assert handle.name in reg
        reg.release(handle.name)  # refs=0 -> unlink
        assert handle.name not in reg
        assert reg.unlinked == 1
        assert not os.path.exists(f"/dev/shm/{handle.name}")

    def test_unlink_all_and_idempotency(self):
        reg = SegmentRegistry(sweep=False)
        handles = [
            SharedMatrix.create(random_matrix(8, seed=s), registry=reg)
            for s in range(3)
        ]
        assert len(reg) == 3
        assert reg.unlink_all() == 3
        assert len(reg) == 0
        assert reg.unlink_all() == 0
        for h in handles:
            assert not os.path.exists(f"/dev/shm/{h.name}")
        reg.unlink(handles[0].name)  # unlinking the gone is a no-op

    def test_adopt_foreign_and_materialize(self):
        a = random_matrix(12, seed=6)
        handle = SharedMatrix.create(a)  # unowned, as a worker would
        reg = SegmentRegistry(sweep=False)
        assert reg.adopt_foreign(handle, refs=0) is True
        assert reg.adopt_foreign(handle, refs=0) is True  # idempotent
        assert reg.adopted == 1
        reg.acquire(handle.name)
        out = reg.materialize(handle)  # copies, drops the last ref
        np.testing.assert_array_equal(out, a)
        assert handle.name not in reg
        assert not os.path.exists(f"/dev/shm/{handle.name}")
        out[0, 0] = 7.0  # the copy is private

    def test_adopt_foreign_gone_segment(self):
        reg = SegmentRegistry(sweep=False)
        handle = SharedMatrix(name="repro-shm-1-feedf00d", shape=(4, 4), dtype="float64")
        assert reg.adopt_foreign(handle) is False

    def test_stats_shape(self):
        reg = SegmentRegistry(sweep=False)
        SharedMatrix.create(random_matrix(8, seed=7), registry=reg)
        stats = reg.stats()
        assert stats["live_segments"] == 1
        assert stats["created"] == 1
        assert stats["bytes_shared"] == 8 * 8 * 8
        json.dumps(stats)
        reg.unlink_all()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/shm only")
    def test_sweep_reclaims_dead_owner_segments(self):
        # forge a segment whose embedded creator pid is certainly dead
        dead = 2**22 + 12345
        name = f"repro-shm-{dead}-cafef00d"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        try:
            assert name in sweep_stale_segments()
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/shm only")
    def test_sweep_spares_live_owner_and_excluded(self):
        reg = SegmentRegistry(sweep=False)
        handle = SharedMatrix.create(random_matrix(8, seed=8), registry=reg)
        assert sweep_stale_segments() == []  # our pid is alive
        assert reg.sweep() == 0
        assert os.path.exists(f"/dev/shm/{handle.name}")
        reg.unlink_all()


@needs_shm
def test_interpreter_exit_is_clean():
    """A process that creates segments and just exits must leave no
    segments behind and print no resource_tracker noise on stderr."""
    script = """
import numpy as np
from repro.utils.shm import SegmentRegistry, SharedMatrix

reg = SegmentRegistry(sweep=False)
h1 = SharedMatrix.create(np.random.default_rng(0).random((64, 64)), registry=reg)
h2 = SharedMatrix.create(np.random.default_rng(1).random((32, 32)))  # unowned
reg.adopt_foreign(h2)
view = h1.attach()
print(h1.name, h2.name)
# no cleanup on purpose: the registry finalizer must do it at exit
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    for name in proc.stdout.split():
        assert not os.path.exists(f"/dev/shm/{name}"), f"{name} leaked"


# ---------------------------------------------------------------------------
# zero-copy hashing
# ---------------------------------------------------------------------------


class TestHashUpdateArray:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12.0).reshape(3, 4),               # C-contiguous
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),  # F-contiguous
            np.arange(24.0).reshape(4, 6)[::2, ::2],     # non-contiguous
        ],
    )
    def test_digest_matches_tobytes_idiom(self, arr):
        h1, h2 = hashlib.sha256(), hashlib.sha256()
        hash_update_array(h1, arr)
        h2.update(np.ascontiguousarray(arr).tobytes())
        assert h1.hexdigest() == h2.hexdigest()

    def test_fingerprint_digest_is_stable(self):
        # the serve cache keys on this digest; it must not change when
        # the hashing path does
        a = random_matrix(16, seed=9)
        spec = JobSpec(driver="gehrd", n=16, matrix=a)
        m = np.asarray(a, dtype=np.float64)
        h = hashlib.sha256()
        h.update(repr((m.shape, str(m.dtype))).encode())
        h.update(np.ascontiguousarray(m).tobytes())
        assert spec.matrix_fingerprint() == f"sha256:{h.hexdigest()[:16]}"


# ---------------------------------------------------------------------------
# JobSpec handle-awareness
# ---------------------------------------------------------------------------


@needs_shm
class TestJobSpecHandles:
    def test_spec_with_handle_validates_and_serializes(self):
        a = random_matrix(24, seed=10)
        with SegmentRegistry(sweep=False) as reg:
            handle = SharedMatrix.create(a, registry=reg)
            spec = JobSpec(driver="gehrd", n=24, matrix=handle)
            spec.validate()
            assert spec.order == 24
            # handles are transport artifacts, not portable descriptions
            assert spec.to_json()["matrix"] is None
            shm_mod.detach_all()

    def test_return_factors_validation(self):
        JobSpec(driver="gehrd", n=8, return_factors=True).validate()
        with pytest.raises(Exception):
            JobSpec(driver="campaign", n=8, return_factors=True).validate()
        with pytest.raises(Exception):
            JobSpec(driver="ft_gehrd", n=8, functional=False,
                    return_factors=True).validate()
        # return_factors is part of the content key
        k1 = JobSpec(driver="gehrd", n=8).key
        k2 = JobSpec(driver="gehrd", n=8, return_factors=True).key
        assert k1 != k2


# ---------------------------------------------------------------------------
# campaign executor over the data plane
# ---------------------------------------------------------------------------


@pytest.mark.slow
@needs_shm
class TestCampaignTransport:
    def test_shm_pickle_serial_parity(self):
        n, nb = 64, 16
        a = random_matrix(n, seed=0)
        cfg = FTConfig(nb=nb)
        tasks = build_fault_grid(n, nb, moments=2, seed=0)
        serial = run_ft_trials(a, tasks, cfg, residual_tol=1e-13, workers=1)
        shm = run_ft_trials(a, tasks, cfg, residual_tol=1e-13, workers=2,
                            transport="shm")
        pkl = run_ft_trials(a, tasks, cfg, residual_tol=1e-13, workers=2,
                            transport="pickle")
        for x, y, z in zip(serial, shm, pkl):
            assert x.outcome == y.outcome == z.outcome
            assert x.residual == pytest.approx(y.residual)
            assert x.residual == pytest.approx(z.residual)

    @needs_shm
    def test_shm_primes_workers_with_a_handle_not_the_matrix(self, monkeypatch):
        """Serialized bytes per trial: the pool's initargs are pickled to
        every worker once, so the pickle path ships the whole matrix and
        the shm path a ~100-byte handle (the matrix crosses as one
        segment memcpy, not a serialization)."""
        import repro.faults.executor as executor

        class Primed(Exception):
            pass

        sent = {}

        class CapturePool:
            def __init__(self, workers, *, initializer, initargs, registry=None):
                sent[transport] = len(pickle.dumps(initargs))
                if registry is not None:
                    registry.unlink_all()
                raise Primed

        monkeypatch.setattr(executor, "ResilientProcessPool", CapturePool)
        n, nb = 256, 32
        a = random_matrix(n, seed=2)
        tasks = build_fault_grid(n, nb, moments=3, seed=0)
        for transport in ("pickle", "shm"):
            with pytest.raises(Primed):
                run_ft_trials(a, tasks, FTConfig(nb=nb), residual_tol=1e-13,
                              workers=2, transport=transport)
        assert sent["pickle"] > a.nbytes
        assert sent["pickle"] > 100 * sent["shm"]

    def test_crash_rebuild_leaves_no_segments(self, tmp_path):
        n, nb = 64, 16
        a = random_matrix(n, seed=0)
        tasks = build_fault_grid(n, nb, moments=2, seed=0)
        out = run_ft_trials(
            a, tasks, FTConfig(nb=nb), residual_tol=1e-13, workers=2,
            transport="shm", crash_index=1,
            crash_once_path=str(tmp_path / "crashed"),
        )
        assert len(out) == len(tasks)
        # the chunk lost to the crash was retried on the rebuilt pool
        assert all(t.outcome != "aborted" for t in out)
        # leak check is the autouse fixture's job; also assert eagerly:
        assert not [f for f in os.listdir("/dev/shm")
                    if f.startswith("repro-shm")]


# ---------------------------------------------------------------------------
# the batch service over the data plane
# ---------------------------------------------------------------------------


@pytest.mark.slow
@needs_shm
class TestServeDataPlane:
    def test_inline_matrices_cross_via_shm(self):
        n = 48
        mats = [random_matrix(n, seed=s) for s in range(2)]
        with HessService(workers=2, transport="shm", shm_min_bytes=0,
                         small_n_threshold=0, cache_bytes=0) as svc:
            specs = [JobSpec(driver="gehrd", n=n, matrix=mats[i % 2])
                     for i in range(4)]
            subs = svc.submit_batch(specs)
            assert all(s.accepted for s in subs)
            svc.drain(timeout=300)
            results = [svc.peek(s.job_id) for s in subs]
            assert all(r.status == "done" for r in results)
            # duplicates coalesced onto the in-flight work item => at
            # most one segment per distinct matrix was ever created
            stats = svc.stats()
            assert stats["data_plane"]["transport"] == "shm"
            assert stats["counts"].get("shm_matrices", 0) >= 1
            assert stats["data_plane"]["live_segments"] == 0  # all drained

    def test_results_match_pickle_transport(self):
        n = 48
        a = random_matrix(n, seed=1)
        payloads = {}
        for transport in ("pickle", "shm"):
            with HessService(workers=1, transport=transport, shm_min_bytes=0,
                             small_n_threshold=0, cache_bytes=0) as svc:
                sub = svc.submit(JobSpec(driver="ft_gehrd", n=n, matrix=a))
                res = svc.result(sub.job_id, timeout=300)
                assert res.status == "done", res.error
                payloads[transport] = res.payload
        assert payloads["pickle"]["residual"] == pytest.approx(
            payloads["shm"]["residual"]
        )

    def test_return_factors_shm_lazy_materialization(self):
        n = 48
        a = random_matrix(n, seed=2)
        with HessService(workers=1, transport="shm", shm_min_bytes=0,
                         small_n_threshold=0) as svc:
            sub = svc.submit(JobSpec(driver="gehrd", n=n, matrix=a,
                                     return_factors=True))
            res = svc.result(sub.job_id, timeout=300)
            assert res.status == "done", res.error
            assert res.has_factors
            # payload carries references, and to_json stays JSON-safe
            json.dumps(res.to_json())
            h, q = res.factor("h"), res.factor("q")
            assert np.linalg.norm(q @ h @ q.T - a) <= 1e-12 * np.linalg.norm(a)
            assert res.factor("h") is h  # cached
            with pytest.raises(KeyError):
                res.factor("nope")
        # materialized copies survive the service shutdown
        assert np.isfinite(h).all()

    def test_return_factors_inline_path(self):
        # in-thread lane: no process line to cross, factors ship inline
        n = 16
        with HessService(workers=1, small_n_threshold=64) as svc:
            sub = svc.submit(JobSpec(driver="gehrd", n=n, seed=3,
                                     return_factors=True))
            res = svc.result(sub.job_id, timeout=300)
            assert res.status == "done", res.error
            refs = res.payload["factors"]
            assert "data" in refs["h"] and "data" in refs["q"]
            h, q = res.factors["h"], res.factors["q"]
            a = random_matrix(n, seed=3)
            assert np.linalg.norm(q @ h @ q.T - a) <= 1e-12 * np.linalg.norm(a)

    def test_cancel_midflight_keeps_hygiene(self):
        n = 48
        mats = [random_matrix(n, seed=s) for s in range(4)]
        with HessService(workers=1, transport="shm", shm_min_bytes=0,
                         small_n_threshold=0, cache_bytes=0) as svc:
            subs = [svc.submit(JobSpec(driver="gehrd", n=n, matrix=m))
                    for m in mats]
            # cancel whatever is still queued behind the running job
            for sub in subs[1:]:
                svc.cancel(sub.job_id)
            svc.drain(timeout=300)
            assert svc.stats()["data_plane"]["live_segments"] == 0
        # the autouse leak guard asserts /dev/shm is clean afterwards

    def test_forced_shm_unavailable_raises(self, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.shm_available", lambda: False)
        with pytest.raises(TransportError):
            HessService(transport="shm")


# ---------------------------------------------------------------------------
# cache blob reuse (satellite: encode once)
# ---------------------------------------------------------------------------


class TestCacheBlob:
    def test_entry_encodes_once_and_nbytes_uses_blob(self):
        payload = {"x": list(range(50))}
        entry = _Entry(payload)
        assert entry.nbytes == len(entry.blob)
        assert json.loads(entry.blob) == payload

    def test_spill_reuses_the_blob(self, tmp_path, monkeypatch):
        import repro.serve.cache as cache_mod

        payload = {"big": "y" * 4096, "n": 1}
        calls = []
        real_dumps = cache_mod.json.dumps

        def counting(obj, *args, **kwargs):
            calls.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(cache_mod.json, "dumps", counting)
        cache = ResultCache(max_bytes=64, spill_dir=tmp_path)  # oversized -> spill
        cache.put("k1", payload)
        # the payload dict was serialized exactly once (the _Entry blob);
        # the spill wrapper only re-encodes the key string
        payload_dumps = [c for c in calls if isinstance(c, dict) and "big" in c]
        assert len(payload_dumps) == 1
        assert cache.stats.spill_writes == 1
        monkeypatch.undo()
        # and the spill file is valid JSON that round-trips the payload
        assert cache.get("k1") == payload
        assert cache.stats.spill_hits == 1


# ---------------------------------------------------------------------------
# executor/service still honest without shm (pickle fallback)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_pickle_fallback_campaign_parity():
    n, nb = 48, 16
    a = random_matrix(n, seed=0)
    tasks = build_fault_grid(n, nb, moments=2, seed=0)
    serial = run_ft_trials(a, tasks, FTConfig(nb=nb), residual_tol=1e-13, workers=1)
    pooled = run_ft_trials(a, tasks, FTConfig(nb=nb), residual_tol=1e-13, workers=2,
                           transport="pickle")
    assert [t.outcome for t in serial] == [t.outcome for t in pooled]
