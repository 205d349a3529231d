"""Tests for the batch-reduction service (``repro.serve``)."""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import (
    EscalationExhausted,
    FaultConfigError,
    NonFiniteInputError,
    ShapeError,
    UncorrectableError,
)
from repro.resilience.ladder import LadderConfig
from repro.serve import (
    AsyncScheduler,
    HessService,
    JobSpec,
    JobSpecError,
    JobTimeout,
    ResultCache,
    RetryPolicy,
    WorkerLost,
    classify_failure,
)
from repro.serve.jobs import execute_job
from repro.serve.retry import (
    ESCALATION,
    FAULT_CONFIG,
    INVALID,
    TIMEOUT,
    TRANSIENT,
    UNEXPECTED,
    WORKER_LOST,
)


# ---------------------------------------------------------------------------
# JobSpec: content-addressed keys + serialization
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_key_is_deterministic(self):
        a = JobSpec(driver="ft_gehrd", n=96, seed=3, nb=32)
        b = JobSpec(driver="ft_gehrd", n=96, seed=3, nb=32)
        assert a.key == b.key

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"n": 128},
            {"nb": 16},
            {"driver": "gehrd"},
            {"channels": 2},
            {"audit_every": 4},
            {"faults": ({"iteration": 1, "row": 3, "col": 5, "magnitude": 2.0},)},
        ],
    )
    def test_key_tracks_content(self, change):
        base = JobSpec(driver="ft_gehrd", n=96, seed=3)
        assert base.key != JobSpec(**{**base.to_json(), **change,
                                      "faults": change.get("faults", ())}).key

    def test_scheduling_metadata_excluded_from_key(self):
        a = JobSpec(n=96, priority="high", submitter="alice", timeout=5.0)
        b = JobSpec(n=96, priority="low", submitter="bob")
        assert a.key == b.key

    def test_chaos_hooks_excluded_from_key(self):
        assert JobSpec(n=96).key == JobSpec(n=96, crash=True).key

    def test_inline_matrix_fingerprint_is_byte_exact(self):
        m = np.arange(16.0).reshape(4, 4)
        a = JobSpec(driver="gehrd", matrix=m)
        b = JobSpec(driver="gehrd", matrix=m.copy())
        c = JobSpec(driver="gehrd", matrix=m + 1e-16 * np.eye(4))
        assert a.key == b.key
        assert a.key != c.key  # near-duplicates are different jobs

    def test_key_hashes_an_inline_matrix_once(self, monkeypatch):
        """``key`` fingerprints an inline matrix once and reuses it in the
        content hash; the key itself is unchanged (frozen below)."""
        import repro.serve.jobs as jobs_mod

        calls = []
        real = jobs_mod.hash_update_array

        def counting(h, arr):
            calls.append(arr.shape)
            real(h, arr)

        monkeypatch.setattr(jobs_mod, "hash_update_array", counting)
        m = np.asfortranarray(np.arange(64.0).reshape(8, 8) / 7.0)
        key = JobSpec(driver="ft_gehrd", n=8, matrix=m).key
        assert calls == [(8, 8)]
        assert key == "ft_gehrd:sha256:535ed615045ef121:7472c13144f99524"
        fp32 = JobSpec(driver="gehrd", n=8, matrix=m.astype(np.float32))
        assert fp32.key == "gehrd:sha256:bac20dac884a17b3:9d4d223a2524bf40"

    def test_sytrd_pins_matrix_kind(self):
        spec = JobSpec(driver="ft_sytrd", n=64, kind="uniform")
        assert "symmetric" in spec.matrix_fingerprint()

    def test_json_roundtrip(self):
        spec = JobSpec(
            driver="ft_gehrd", n=96, seed=7, channels=2, priority="high",
            submitter="alice", faults=({"iteration": 1, "row": 2, "col": 3},),
        )
        again = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
        assert again.key == spec.key

    def test_json_roundtrip_inline_matrix(self):
        m = np.arange(9.0).reshape(3, 3)
        spec = JobSpec(driver="gehrd", matrix=m)
        again = JobSpec.from_json(spec.to_json())
        assert again.key == spec.key

    def test_from_json_rejects_unknown_fields(self):
        # older job files may still name "backend": refused, not ignored
        for data in ({"driver": "gehrd", "wat": 1}, {"driver": "gehrd", "backend": "jax"}):
            with pytest.raises(JobSpecError, match="unknown JobSpec fields"):
                JobSpec.from_json(data)

    @pytest.mark.parametrize(
        "bad",
        [
            {"driver": "qr_but_wrong"},
            {"n": 1},
            {"nb": 0},
            {"channels": 3},
            {"priority": "urgent"},
            {"kind": "nonsense"},
            {"timeout": -1.0},
            {"moments": 0},
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(JobSpecError):
            JobSpec(**bad).validate()


class TestExecuteJob:
    def test_gehrd_payload(self):
        payload = execute_job(JobSpec(driver="gehrd", n=48, seed=0))
        assert payload["driver"] == "gehrd"
        assert payload["residual"] < 1e-12

    def test_ft_sytrd_default_audit(self):
        # JobSpec's audit_every=0 means "off" for the gehrd family but
        # the tridiagonal driver's audit is mandatory: 0 must map to the
        # driver default instead of being rejected
        payload = execute_job(JobSpec(driver="ft_sytrd", n=48, seed=0))
        assert payload["driver"] == "ft_sytrd"
        assert payload["checks"] >= 1

    def test_ft_gehrd_with_fault_reports_tiers(self):
        spec = JobSpec(
            driver="ft_gehrd", n=48, seed=1,
            faults=({"iteration": 1, "row": 30, "col": 40, "magnitude": 2.0},),
        )
        payload = execute_job(spec)
        assert payload["residual"] < 1e-12
        assert payload["detections"] >= 1
        assert sum(payload["tier_tally"].values()) >= 1

    @pytest.mark.parametrize("channels", [1, 2])
    def test_adversarial_campaign_runs_its_channels(self, channels, monkeypatch):
        # the job key names the channels, so the campaign must run that many
        import repro.faults

        seen = []
        real = repro.faults.run_campaign

        def spy(a, **kw):
            seen.append(kw["config"].channels)
            return real(a, **kw)

        monkeypatch.setattr(repro.faults, "run_campaign", spy)
        spec = JobSpec(driver="campaign", n=32, nb=8, moments=1, adversarial=True,
                       channels=channels)
        payload = execute_job(spec)
        assert seen == [channels]
        assert spec.content_dict()["channels"] == channels
        assert payload["outcomes"].get("aborted", 0) == 0


# ---------------------------------------------------------------------------
# ResultCache: LRU order, byte budget, spill
# ---------------------------------------------------------------------------


def _sized_payload(tag: str, nbytes: int) -> dict:
    pad = max(1, nbytes - len(json.dumps({"tag": tag, "pad": ""}).encode()))
    return {"tag": tag, "pad": "x" * pad}


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(1 << 20)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(3 * 200)
        for tag in ("a", "b", "c"):
            cache.put(tag, _sized_payload(tag, 200))
        cache.get("a")  # promote: LRU order is now b, c, a
        cache.put("d", _sized_payload("d", 200))
        assert "b" not in cache  # least recently used went first
        assert "a" in cache and "c" in cache and "d" in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_is_respected(self):
        cache = ResultCache(1000)
        for i in range(20):
            cache.put(f"k{i}", _sized_payload(str(i), 300))
        assert cache.stats.bytes <= 1000
        assert len(cache) <= 3

    def test_oversized_payload_not_held_in_memory(self, tmp_path):
        cache = ResultCache(100, spill_dir=tmp_path)
        cache.put("big", _sized_payload("big", 5000))
        assert "big" not in cache
        assert cache.get("big")["tag"] == "big"  # served from spill
        assert cache.stats.spill_hits == 1

    def test_eviction_spills_and_spill_promotes(self, tmp_path):
        cache = ResultCache(2 * 200, spill_dir=tmp_path)
        for tag in ("a", "b", "c"):
            cache.put(tag, _sized_payload(tag, 200))
        assert "a" not in cache and cache.stats.spill_writes >= 1
        payload = cache.get("a")
        assert payload["tag"] == "a"
        assert cache.stats.spill_hits == 1
        assert "a" in cache  # promoted back into the LRU

    def test_spill_survives_cache_restart(self, tmp_path):
        first = ResultCache(1 << 20, spill_dir=tmp_path)
        first.put("big", _sized_payload("big", 1 << 21))  # straight to disk
        fresh = ResultCache(1 << 20, spill_dir=tmp_path)
        assert fresh.get("big")["tag"] == "big"

    def test_clear_keeps_spill(self, tmp_path):
        cache = ResultCache(1 << 20, spill_dir=tmp_path)
        cache.put("big", _sized_payload("big", 1 << 21))
        cache.clear()
        assert cache.get("big") is not None


# ---------------------------------------------------------------------------
# RetryPolicy: the PR 2 failure taxonomy -> scheduling decisions
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    @pytest.mark.parametrize(
        ("exc", "expected"),
        [
            (EscalationExhausted("ladder out"), ESCALATION),
            (JobTimeout("too slow"), TIMEOUT),
            (WorkerLost("pool broke"), WORKER_LOST),
            (FaultConfigError("bad spec"), FAULT_CONFIG),
            (JobSpecError("bad job"), INVALID),
            (ShapeError("not square"), INVALID),
            (UncorrectableError("rectangle"), TRANSIENT),
            (RuntimeError("who knows"), UNEXPECTED),
            (NonFiniteInputError("NaN in the input"), INVALID),
        ],
    )
    def test_classification(self, exc, expected):
        assert classify_failure(exc) == expected

    def test_escalation_retries_up_to_budget(self):
        policy = RetryPolicy(escalation_retries=2)
        first = policy.decide(ESCALATION, 0)
        second = policy.decide(ESCALATION, 1)
        third = policy.decide(ESCALATION, 2)
        assert first.retry and first.escalate_ladder
        assert second.retry and second.escalate_ladder
        assert not third.retry

    def test_timeout_retries_once_on_fresh_worker(self):
        policy = RetryPolicy()
        first = policy.decide(TIMEOUT, 0)
        assert first.retry and first.fresh_worker
        assert not policy.decide(TIMEOUT, 1).retry

    def test_worker_lost_retries_once_on_fresh_worker(self):
        decision = RetryPolicy().decide(WORKER_LOST, 0)
        assert decision.retry and decision.fresh_worker

    @pytest.mark.parametrize("fclass", [FAULT_CONFIG, INVALID, UNEXPECTED])
    def test_permanent_classes_never_retry(self, fclass):
        decision = RetryPolicy().decide(fclass, 0)
        assert not decision.retry
        assert "permanent" in decision.reason

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=1.0, jitter=0.5)
        waits = [policy.backoff(k, key="job") for k in (1, 2, 3, 10)]
        assert waits == [policy.backoff(k, key="job") for k in (1, 2, 3, 10)]
        assert waits[0] < waits[1] < waits[2]
        assert all(w <= 1.5 for w in waits)
        assert policy.backoff(1, key="a") != policy.backoff(1, key="b")

    def test_stricter_ladder(self):
        cfg = LadderConfig()
        strict = cfg.stricter()
        assert strict.max_in_place_total == 0
        assert strict.max_restarts == cfg.max_restarts + 1
        assert strict.stricter().max_restarts == cfg.max_restarts + 2


# ---------------------------------------------------------------------------
# Scheduler admission control / fairness (no runners: fully deterministic)
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_full_queue_rejected_with_structured_reason(self):
        async def run():
            sched = AsyncScheduler(workers=1, max_queue=2, cache=ResultCache(1 << 20))
            return [
                await sched.submit(JobSpec(driver="gehrd", n=24, seed=s))
                for s in range(3)
            ]

        subs = asyncio.run(run())
        assert [s.accepted for s in subs] == [True, True, False]
        rejected = subs[2]
        assert rejected.job_id is None
        assert rejected.reason.startswith("backpressure: queue full (2/2")
        assert rejected.queue_depth == 2

    def test_invalid_spec_rejected_with_reason(self):
        async def run():
            sched = AsyncScheduler(workers=1, max_queue=2)
            return await sched.submit(JobSpec(driver="nope", n=24))

        sub = asyncio.run(run())
        assert not sub.accepted
        assert sub.reason.startswith("invalid:")

    def test_duplicates_coalesce_past_a_full_queue(self):
        async def run():
            sched = AsyncScheduler(workers=1, max_queue=1, cache=ResultCache(1 << 20))
            first = await sched.submit(JobSpec(driver="gehrd", n=24, seed=0))
            dup = await sched.submit(JobSpec(driver="gehrd", n=24, seed=0))
            distinct = await sched.submit(JobSpec(driver="gehrd", n=24, seed=1))
            return first, dup, distinct

        first, dup, distinct = asyncio.run(run())
        assert first.accepted and dup.accepted
        assert not distinct.accepted  # the queue really was full
        assert dup.key == first.key

    @pytest.mark.parametrize(
        "small_n, pop_args", [(0, ()), (64, ("host",))], ids=["pool", "host"]
    )
    def test_priority_lanes_and_round_robin_fairness(self, small_n, pop_args):
        """Each executor's queue drains by lane, round-robin within one:
        n=24 jobs queue for the pool at ``small_n_threshold=0`` and for
        the host at 64."""
        async def run():
            sched = AsyncScheduler(workers=1, max_queue=16, small_n_threshold=small_n)
            order = [
                ("low", "a", 0), ("normal", "a", 1), ("normal", "a", 2),
                ("normal", "a", 3), ("normal", "b", 4), ("high", "b", 5),
                ("normal", "b", 6),
            ]
            for lane, submitter, seed in order:
                await sched.submit(
                    JobSpec(driver="gehrd", n=24, seed=seed,
                            priority=lane, submitter=submitter)
                )
            popped = []
            while True:
                work = sched._pop_work(*pop_args)
                if work is None:
                    return popped
                popped.append((work.lane, work.submitter, work.spec.seed))

        popped = asyncio.run(run())
        # high lane first; then the normal lane alternates submitters
        # a/b round-robin; the low lane drains last
        assert popped[0] == ("high", "b", 5)
        normal = [p for p in popped if p[0] == "normal"]
        assert [s for _, s, _ in normal[:4]] in (["a", "b"] * 2, ["b", "a"] * 2)
        assert popped[-1] == ("low", "a", 0)


# ---------------------------------------------------------------------------
# Service end-to-end (in-thread lane; stubbed drivers where determinism
# matters more than realism)
# ---------------------------------------------------------------------------


def _service(**kw) -> HessService:
    kw.setdefault("workers", 2)
    kw.setdefault("max_queue", 32)
    kw.setdefault("small_n_threshold", 512)  # keep everything in-thread
    return HessService(**kw)


class TestServiceEndToEnd:
    def test_duplicate_heavy_batch_hits_cache(self):
        uniques = [JobSpec(driver="gehrd", n=32, seed=s) for s in range(4)]
        batch = uniques * 4  # 16 jobs, 4 distinct
        with _service() as svc:
            subs = svc.submit_batch(batch)
            assert all(s.accepted for s in subs)
            svc.drain(timeout=120)
            results = [svc.peek(s.job_id) for s in subs]
            stats = svc.stats()
        assert all(r.status == "done" for r in results)
        assert all(r.payload["residual"] < 1e-12 for r in results)
        assert stats["hit_rate"] >= 0.3
        assert stats["counts"]["completed"] == 4  # one execution per key

    def test_result_blocks_until_done_and_events_stream(self):
        with _service() as svc:
            q = svc.subscribe()
            sub = svc.submit(JobSpec(driver="ft_gehrd", n=32, seed=0))
            res = svc.result(sub.job_id, timeout=60)
            assert res.status == "done"
            svc.drain(timeout=10)
        kinds = []
        while not q.empty():
            kinds.append(q.get()["event"])
        assert "submitted" in kinds and "started" in kinds and "done" in kinds

    def test_cancel_while_queued_race(self, monkeypatch):
        def slow_job(spec, *, workspace=None, ladder=None):
            time.sleep(0.15)
            return {"driver": spec.driver, "n": spec.n, "elapsed_s": 0.15}

        monkeypatch.setattr("repro.serve.scheduler.execute_job", slow_job)
        with _service(workers=1) as svc:
            subs = svc.submit_batch(
                [JobSpec(driver="gehrd", n=24, seed=s) for s in range(6)]
            )
            # the first job is running; cancel every other queued job
            cancelled_ids = [s.job_id for s in subs[2::2]]
            outcomes = [svc.cancel(job_id) for job_id in cancelled_ids]
            svc.drain(timeout=60)
            results = {s.job_id: svc.peek(s.job_id) for s in subs}
            stats = svc.stats()
            # cancelling a terminal job is a no-op
            cancel_after_done = svc.cancel(subs[0].job_id)
        assert all(outcomes)
        for job_id in cancelled_ids:
            assert results[job_id].status == "cancelled"
            assert results[job_id].payload is None
        done = [r for r in results.values() if r.status == "done"]
        assert len(done) == len(subs) - len(cancelled_ids)
        assert stats["counts"]["cancelled"] == len(cancelled_ids)
        assert cancel_after_done is False

    def test_escalation_exhausted_retries_with_stricter_ladder(self, monkeypatch):
        seen_ladders = []

        def flaky(spec, *, workspace=None, ladder=None):
            seen_ladders.append(ladder)
            if len(seen_ladders) == 1:
                raise EscalationExhausted("ladder out of budget")
            return {"driver": spec.driver, "n": spec.n, "elapsed_s": 0.0}

        monkeypatch.setattr("repro.serve.scheduler.execute_job", flaky)
        with _service(workers=1, retry=RetryPolicy(backoff_base=0.001)) as svc:
            sub = svc.submit(JobSpec(driver="ft_gehrd", n=32, seed=0))
            res = svc.result(sub.job_id, timeout=30)
        assert res.status == "done"
        assert res.retries == 1
        assert seen_ladders[0] is None
        assert seen_ladders[1].max_in_place_total == 0
        assert seen_ladders[1].max_restarts == LadderConfig().max_restarts + 1

    def test_fault_config_error_fails_permanently(self, monkeypatch):
        def broken(spec, *, workspace=None, ladder=None):
            raise FaultConfigError("no such channel")

        monkeypatch.setattr("repro.serve.scheduler.execute_job", broken)
        with _service(workers=1) as svc:
            sub = svc.submit(JobSpec(driver="ft_gehrd", n=32, seed=0))
            res = svc.result(sub.job_id, timeout=30)
        assert res.status == "failed"
        assert res.failure_class == "fault_config"
        assert res.retries == 0

    def test_non_finite_input_fails_once_without_retries(self):
        a = np.asfortranarray(np.random.default_rng(0).standard_normal((64, 64)))
        a[10, 20] = np.nan
        with _service(workers=1, retry=RetryPolicy(backoff_base=0.001)) as svc:
            sub = svc.submit(JobSpec(driver="ft_gehrd", matrix=a))
            res = svc.result(sub.job_id, timeout=60)
            counts = svc.stats()["counts"]
        assert res.status == "failed"
        assert res.failure_class == INVALID
        assert res.retries == 0
        assert counts.get("executed", 0) == 1
        assert counts.get("retries", 0) == 0
        assert counts.get("failed", 0) == 1

    def test_timeout_retries_once_then_fails(self, monkeypatch):
        attempts = []

        def wedged(spec, *, workspace=None, ladder=None):
            attempts.append(time.perf_counter())
            time.sleep(0.3)
            return {"elapsed_s": 0.3}

        monkeypatch.setattr("repro.serve.scheduler.execute_job", wedged)
        with _service(workers=1, default_timeout=0.05,
                      retry=RetryPolicy(backoff_base=0.001)) as svc:
            sub = svc.submit(JobSpec(driver="gehrd", n=24, seed=0))
            res = svc.result(sub.job_id, timeout=30)
        assert res.status == "failed"
        assert res.failure_class == "timeout"
        assert res.retries == 1
        assert len(attempts) == 2

    def test_submit_wait_rides_out_backpressure(self, monkeypatch):
        def slow_job(spec, *, workspace=None, ladder=None):
            time.sleep(0.05)
            return {"elapsed_s": 0.05}

        monkeypatch.setattr("repro.serve.scheduler.execute_job", slow_job)
        with _service(workers=1, max_queue=1) as svc:
            subs = [
                svc.submit_wait(JobSpec(driver="gehrd", n=24, seed=s))
                for s in range(4)
            ]
            svc.drain(timeout=60)
            stats = svc.stats()
        assert all(s.accepted for s in subs)
        assert stats["counts"].get("rejected_backpressure", 0) >= 1

    def test_stats_tier_tally_aggregates_recoveries(self):
        spec = JobSpec(
            driver="ft_gehrd", n=48, seed=1,
            faults=({"iteration": 1, "row": 30, "col": 40, "magnitude": 2.0},),
        )
        with _service() as svc:
            sub = svc.submit(spec)
            res = svc.result(sub.job_id, timeout=120)
            stats = svc.stats()
        assert res.status == "done"
        assert sum(stats["tier_tally"].values()) >= 1


class TestServiceCrashRecovery:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_crash_loses_no_jobs(self, tmp_path, workers):
        """At one worker, the job after the crash-once job waits in the
        same worker's queue when the worker dies."""
        sentinel = str(tmp_path / "crash.once")
        specs = [
            JobSpec(driver="ft_gehrd", n=32, seed=s, submitter="c") for s in range(3)
        ]
        specs.insert(
            1,
            JobSpec(driver="ft_gehrd", n=32, seed=9, submitter="c",
                    crash=True, crash_once_path=sentinel),
        )
        # small_n_threshold=0: everything rides the process pool
        with HessService(workers=workers, max_queue=16, small_n_threshold=0,
                         retry=RetryPolicy(backoff_base=0.001)) as svc:
            subs = svc.submit_batch(specs)
            assert all(s.accepted for s in subs)
            svc.drain(timeout=300)
            results = [svc.peek(s.job_id) for s in subs]
            stats = svc.stats()
        assert all(r.status == "done" for r in results), [r.error for r in results]
        assert stats["pool_rebuilds"] >= 1
        assert stats["counts"].get("retries", 0) >= 1

    def test_broken_submit_retries_as_lost_worker(self, monkeypatch):
        """A pool whose worker just died raises BrokenProcessPool from
        ``submit`` itself; the job must retry on a rebuilt pool like any
        lost-worker failure instead of failing as ``unexpected``."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.utils.procpool import ResilientProcessPool

        real_submit = ResilientProcessPool.submit
        broken = []

        def submit_broken_once(self, fn, /, *args, **kwargs):
            if not broken:
                broken.append(fn)
                raise BrokenProcessPool("A child process terminated abruptly")
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ResilientProcessPool, "submit", submit_broken_once)
        with HessService(workers=1, max_queue=4, small_n_threshold=0,
                         retry=RetryPolicy(backoff_base=0.001)) as svc:
            sub = svc.submit(JobSpec(driver="ft_gehrd", n=32, seed=0))
            res = svc.result(sub.job_id, timeout=120)
            stats = svc.stats()
        assert broken, "the patched submit never ran"
        assert res.status == "done", (res.error, res.failure_class)
        assert res.retries == 1
        assert stats["pool_rebuilds"] == 1

    def test_stop_does_not_resubmit_a_pending_pool_job(self, monkeypatch):
        """Stopping cancels a runner that awaits a still-pending pool
        future; that is no lost worker, so no retry and no resubmission,
        and ``close`` returns without waiting for the pool."""
        pool = _HeldPool(monkeypatch)
        svc = HessService(workers=1, max_queue=4, small_n_threshold=0)
        q = svc.subscribe()
        try:
            svc.submit(JobSpec(driver="gehrd", n=32, seed=0))
            pool.wait_for(1)
            svc.close(drain=False, timeout=5)
        finally:
            pool.release()
            svc.close(drain=False, timeout=30)
        stats = svc.stats()
        assert [e["event"] for e in _events(q)] == ["submitted", "started", "stopped"]
        assert len(pool.futures) == 1
        assert stats["counts"]["executed"] == 1
        assert stats["counts"].get("retries", 0) == 0

    def test_rebuild_sweeping_a_pending_pool_job_retries_it(self, monkeypatch):
        """A rebuild's ``cancel_futures`` sweeps a pool future still
        pending in the executor: the job retries once as a lost worker."""
        pool = _HeldPool(monkeypatch)
        svc = HessService(workers=1, max_queue=4, small_n_threshold=0,
                          retry=RetryPolicy(backoff_base=0.001))
        q = svc.subscribe()
        try:
            sub = svc.submit(JobSpec(driver="gehrd", n=32, seed=0))
            pool.wait_for(1)
            svc._scheduler._pool.rebuild()
            pool.futures[0].cancel()
            pool.wait_for(2)
            pool.futures[1].set_result(dict(_POOL_PAYLOAD))
            res = svc.result(sub.job_id, timeout=5)
            stats = svc.stats()
        finally:
            pool.release()
            svc.close()
        assert res.status == "done" and res.retries == 1
        retried = [e for e in _events(q) if e["event"] == "retrying"]
        assert [e["failure_class"] for e in retried] == [WORKER_LOST]
        assert stats["pool_rebuilds"] == 1
        assert stats["counts"]["executed"] == 2


_POOL_PAYLOAD = {"driver": "gehrd", "elapsed_s": 0.0}


class _HeldPool:
    """Stands in for the pool's ``submit``: every call hands out a
    future the test resolves, until :meth:`release` resolves them all
    (and every later one on arrival)."""

    def __init__(self, monkeypatch) -> None:
        from repro.utils.procpool import ResilientProcessPool

        self.futures: list[Future] = []
        self._released = False
        self._lock = threading.Lock()

        def submit(_pool, fn, /, *args, **kwargs):
            fut = Future()
            with self._lock:
                if self._released:
                    fut.set_result(dict(_POOL_PAYLOAD))
                else:
                    self.futures.append(fut)
            return fut

        monkeypatch.setattr(ResilientProcessPool, "submit", submit)

    def wait_for(self, count: int, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.futures) < count:
            assert time.monotonic() < deadline, f"{len(self.futures)}/{count} submitted"
            time.sleep(0.005)

    def release(self) -> None:
        with self._lock:
            self._released = True
            held = list(self.futures)
        for fut in held:
            if not fut.done():
                fut.set_result(dict(_POOL_PAYLOAD))


def _pool_stub(spec, *_args) -> dict:
    """Stands in for ``execute_job_pooled`` in a real pool worker: a job
    of ``spec.seed`` milliseconds (a crash job dies that far in), with
    its worker's pid and its start and end on the host's monotonic
    clock."""
    t0 = time.monotonic()
    time.sleep(spec.seed / 1000)
    if spec.crash:
        os._exit(23)
    return {"driver": spec.driver, "n": spec.n, "elapsed_s": time.monotonic() - t0,
            "pid": os.getpid(), "t0": t0, "t1": time.monotonic()}


#: the mark file of :func:`_wedge_once` (set by its test before the fork)
_WEDGE_MARK = ""


def _wedge_once(spec, *_args) -> dict:
    """The first call spins for 8 s (a wedged job) after writing its pid
    to the mark file; a later call returns at once, saying whether that
    first worker still exists."""
    if not os.path.exists(_WEDGE_MARK):
        with open(_WEDGE_MARK, "w") as fh:
            fh.write(str(os.getpid()))
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline:
            pass
    with open(_WEDGE_MARK) as fh:
        first = int(fh.read())
    try:
        os.kill(first, 0)
        first_alive = True
    except ProcessLookupError:
        first_alive = False
    return {"driver": spec.driver, "elapsed_s": 0.0, "pid": os.getpid(),
            "first_pid": first, "first_alive": first_alive}


def _pool_service(monkeypatch, job=_pool_stub, **kw) -> HessService:
    """A one-worker service whose pool runs *job* in real processes."""
    monkeypatch.setattr("repro.serve.scheduler.execute_job_pooled", job)
    kw.setdefault("workers", 1)
    kw.setdefault("max_queue", 16)
    return HessService(small_n_threshold=0, **kw)


def _events(q) -> list[dict]:
    out = []
    while not q.empty():
        out.append(q.get())
    return out


class TestExecutors:
    """The pool and the host each have their own runners: a job on one
    never waits for a job on the other, but for a rebuilt pool's fork."""

    def test_host_job_finishes_while_the_pool_is_busy(self, monkeypatch):
        pool = _HeldPool(monkeypatch)
        svc = HessService(workers=1, max_queue=8, small_n_threshold=64)
        try:
            big = svc.submit(JobSpec(driver="gehrd", n=96, seed=0))
            small = svc.submit(JobSpec(driver="gehrd", n=16, seed=0))
            res = svc.result(small.job_id, timeout=5)
            assert res.status == "done"
            assert res.payload["residual"] < 1e-12  # really ran, in-thread
            assert svc.status(big.job_id) == "running"
        finally:
            pool.release()  # else the pool job holds close() forever
            svc.close()

    def test_pool_job_finishes_while_the_host_is_busy(self, monkeypatch):
        release = threading.Event()

        def blocked(spec, *, workspace=None, ladder=None):
            release.wait(30)
            return {"driver": spec.driver, "n": spec.n, "elapsed_s": 0.0}

        monkeypatch.setattr("repro.serve.scheduler.execute_job", blocked)
        pool = _HeldPool(monkeypatch)
        pool.release()  # every pool future arrives resolved
        svc = HessService(workers=1, max_queue=8, small_n_threshold=64)
        try:
            small = svc.submit(JobSpec(driver="gehrd", n=16, seed=0))
            big = svc.submit(JobSpec(driver="gehrd", n=96, seed=0))
            res = svc.result(big.job_id, timeout=5)
            assert res.status == "done"
            assert svc.status(small.job_id) == "running"
        finally:
            release.set()
            svc.close()

    def test_a_rebuilt_pool_forks_between_host_jobs(self, monkeypatch):
        """The one wait between executors: a rebuilt pool forks its
        workers under the host lock, never while a host job runs (a fork
        then could hand the child a lock the job holds)."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.utils.procpool import ResilientProcessPool

        host_running = threading.Event()
        release = threading.Event()

        def blocked(spec, *, workspace=None, ladder=None):
            host_running.set()
            release.wait(30)
            host_running.clear()
            return {"driver": spec.driver, "n": spec.n, "elapsed_s": 0.0}

        forks_during_host_job = []
        real_warm = ResilientProcessPool.warm

        def warm(pool):
            forks_during_host_job.append(host_running.is_set())
            real_warm(pool)

        broken = []

        def submit_broken_once(pool, fn, /, *args, **kwargs):
            if not broken:
                broken.append(fn)
                raise BrokenProcessPool("A child process terminated abruptly")
            fut = Future()
            fut.set_result(dict(_POOL_PAYLOAD))
            return fut

        monkeypatch.setattr("repro.serve.scheduler.execute_job", blocked)
        monkeypatch.setattr(ResilientProcessPool, "warm", warm)
        monkeypatch.setattr(ResilientProcessPool, "submit", submit_broken_once)
        svc = HessService(workers=1, max_queue=8, small_n_threshold=64,
                          retry=RetryPolicy(backoff_base=0.001))
        try:
            small = svc.submit(JobSpec(driver="gehrd", n=16, seed=0))
            assert host_running.wait(5)
            big = svc.submit(JobSpec(driver="gehrd", n=96, seed=0))
            time.sleep(0.3)  # the pool job fails, rebuilds and retries
            assert svc.status(big.job_id) == "running"
            release.set()
            res = svc.result(big.job_id, timeout=10)
            assert svc.result(small.job_id, timeout=10).status == "done"
        finally:
            release.set()
            svc.close()
        assert res.status == "done" and res.retries == 1
        assert forks_during_host_job == [False, False]  # start, rebuild


class TestPoolDispatch:
    """Each pool worker holds one running job and one waiting job; a
    waiting job starts, and is charged, only when the job ahead of it
    is over."""

    def test_a_second_pool_job_is_in_the_executor_before_the_first_finishes(
        self, monkeypatch
    ):
        pool = _HeldPool(monkeypatch)
        svc = HessService(workers=1, max_queue=8, small_n_threshold=0)
        try:
            first = svc.submit(JobSpec(driver="gehrd", n=32, seed=0))
            svc.submit(JobSpec(driver="gehrd", n=32, seed=1))
            svc.submit(JobSpec(driver="gehrd", n=32, seed=2))
            pool.wait_for(2, timeout=2.0)
            assert not pool.futures[0].done()
            assert svc.status(first.job_id) == "running"
            time.sleep(0.05)
            assert len(pool.futures) == 2  # one running, one waiting: no more
            assert svc.stats()["queued"] == 1
        finally:
            pool.release()
            svc.close()

    def test_one_worker_runs_its_jobs_in_hand_out_order(self, monkeypatch):
        popped = []
        real_pop = AsyncScheduler._pop_work

        def pop(self, executor="pool"):
            work = real_pop(self, executor)
            if work is not None:
                popped.append(work.key)
            return work

        monkeypatch.setattr(AsyncScheduler, "_pop_work", pop)
        specs = [JobSpec(driver="gehrd", n=32, seed=ms, submitter=who)
                 for ms, who in ((60, "a"), (20, "b"), (40, "a"), (10, "b"), (30, "a"))]
        with _pool_service(monkeypatch) as svc:
            subs = svc.submit_batch(specs)
            svc.drain(timeout=60)
            results = {s.key: svc.peek(s.job_id) for s in subs}
        assert sorted(popped) == sorted(results)
        ran = sorted(results, key=lambda k: results[k].payload["t0"])
        assert ran == popped
        assert len({r.payload["pid"] for r in results.values()}) == 1
        ends = [results[k].payload["t1"] for k in ran]
        starts = [results[k].payload["t0"] for k in ran]
        assert all(s >= e for s, e in zip(starts[1:], ends))  # one at a time

    def test_a_waiting_jobs_timeout_runs_from_when_the_job_ahead_finishes(
        self, monkeypatch
    ):
        with _pool_service(monkeypatch, default_timeout=0.8) as svc:
            ahead = svc.submit(JobSpec(driver="gehrd", n=32, seed=600))
            behind = svc.submit(JobSpec(driver="gehrd", n=32, seed=300))
            a = svc.result(ahead.job_id, timeout=30)
            b = svc.result(behind.job_id, timeout=30)
            stats = svc.stats()
        assert (a.status, b.status) == ("done", "done"), (a.error, b.error)
        assert a.retries == b.retries == 0 and stats["pool_rebuilds"] == 0
        # started_at is stamped when the job ahead is over, so the queue
        # wait holds the time spent behind it and service time does not
        assert 0 <= b.started_at - a.finished_at < 0.1
        assert b.started_at - b.submitted_at >= 0.55
        assert b.finished_at - b.started_at < 0.6

    def test_a_job_waiting_behind_a_crash_reruns_uncharged(self, monkeypatch):
        with _pool_service(monkeypatch,
                           retry=RetryPolicy(worker_lost_retries=0,
                                             backoff_base=0.001)) as svc:
            q = svc.subscribe()
            crash = svc.submit(JobSpec(driver="gehrd", n=32, seed=200, crash=True))
            behind = svc.submit(JobSpec(driver="gehrd", n=32, seed=10))
            c = svc.result(crash.job_id, timeout=60)
            b = svc.result(behind.job_id, timeout=60)
            stats = svc.stats()
        assert (c.status, c.failure_class) == ("failed", WORKER_LOST)
        assert b.status == "done" and b.retries == 0, (b.error, b.failure_class)
        assert stats["pool_rebuilds"] == 1 and stats["counts"]["requeued"] == 1
        events = _events(q)
        assert [e["key"] for e in events if e["event"] == "requeued"] == [behind.key]

    def test_a_timeout_rebuild_reruns_the_waiting_job_uncharged(self, monkeypatch):
        t0 = time.monotonic()
        with _pool_service(monkeypatch, default_timeout=0.5,
                           retry=RetryPolicy(timeout_retries=0)) as svc:
            wedged = svc.submit(JobSpec(driver="gehrd", n=32, seed=8000))
            behind = svc.submit(JobSpec(driver="gehrd", n=32, seed=10))
            w = svc.result(wedged.job_id, timeout=30)
            b = svc.result(behind.job_id, timeout=30)
            stats = svc.stats()
        assert (w.status, w.failure_class) == ("failed", TIMEOUT)
        assert b.status == "done" and b.retries == 0, (b.error, b.failure_class)
        assert stats["pool_rebuilds"] == 1 and stats["counts"]["requeued"] == 1
        assert time.monotonic() - t0 < 6.0  # nothing waits out the 8 s job

    def test_a_timed_out_worker_is_stopped_and_the_retry_runs_alone(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(sys.modules[__name__], "_WEDGE_MARK", str(tmp_path / "mark"))
        with _pool_service(monkeypatch, job=_wedge_once, default_timeout=0.5,
                           retry=RetryPolicy(backoff_base=0.001)) as svc:
            sub = svc.submit(JobSpec(driver="gehrd", n=32, seed=0))
            res = svc.result(sub.job_id, timeout=30)
            stats = svc.stats()
        assert res.status == "done" and res.retries == 1, (res.error, res.failure_class)
        assert res.payload["pid"] != res.payload["first_pid"]
        assert res.payload["first_alive"] is False  # gone before the retry ran
        assert res.finished_at - res.started_at < 0.5 + 2.0
        with pytest.raises(ProcessLookupError):
            os.kill(res.payload["first_pid"], 0)
        assert stats["pool_rebuilds"] == 1

    def test_stop_resubmits_neither_job(self, monkeypatch):
        pool = _HeldPool(monkeypatch)
        svc = HessService(workers=1, max_queue=4, small_n_threshold=0)
        q = svc.subscribe()
        try:
            svc.submit(JobSpec(driver="gehrd", n=32, seed=0))
            svc.submit(JobSpec(driver="gehrd", n=32, seed=1))
            pool.wait_for(2)
            svc.close(drain=False, timeout=5)
        finally:
            pool.release()
            svc.close(drain=False, timeout=30)
        stats = svc.stats()
        kinds = [e["event"] for e in _events(q)]
        # the waiting job never started
        assert sorted(kinds[:-1]) == ["started", "submitted", "submitted"]
        assert kinds[-1] == "stopped"
        assert len(pool.futures) == 2
        assert stats["counts"]["executed"] == 2
        assert stats["counts"].get("retries", 0) == 0
        assert stats["counts"].get("requeued", 0) == 0

    def test_stop_stops_a_worker_that_holds_a_job(self, monkeypatch):
        """Neither held job's result would ever be read: the worker is
        killed, not left to run both."""
        svc = _pool_service(monkeypatch)
        try:
            svc.submit(JobSpec(driver="gehrd", n=32, seed=5000))
            svc.submit(JobSpec(driver="gehrd", n=32, seed=10))
            time.sleep(0.3)
            pids = list(svc._scheduler._pool.pool._processes)
            t0 = time.monotonic()
            svc.close(drain=False, timeout=10)
            assert time.monotonic() - t0 < 2.0
        finally:
            svc.close(drain=False, timeout=30)
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_waiting_job_can_no_longer_be_cancelled(self, monkeypatch):
        pool = _HeldPool(monkeypatch)
        svc = HessService(workers=1, max_queue=4, small_n_threshold=0)
        try:
            svc.submit(JobSpec(driver="gehrd", n=32, seed=0))
            behind = svc.submit(JobSpec(driver="gehrd", n=32, seed=1))
            queued = svc.submit(JobSpec(driver="gehrd", n=32, seed=2))
            pool.wait_for(2)
            assert svc.status(behind.job_id) == "running"
            assert svc.cancel(behind.job_id) is False
            assert svc.cancel(queued.job_id) is True
        finally:
            pool.release()
            svc.close()
        assert svc.peek(behind.job_id).status == "done"


# ---------------------------------------------------------------------------
# Eigensolver drivers: ft_eig / ft_schur through the service
# ---------------------------------------------------------------------------


class TestEigDrivers:
    def test_convergence_classified_and_retried_with_doubled_sweeps(self):
        from repro.errors import ConvergenceError
        from repro.serve.retry import CONVERGENCE

        assert classify_failure(ConvergenceError("stalled")) == CONVERGENCE
        # the EscalationExhausted subclass must NOT land in this bucket
        assert classify_failure(EscalationExhausted("out")) == ESCALATION
        policy = RetryPolicy()
        first = policy.decide(CONVERGENCE, 0)
        assert first.retry and first.raise_sweeps and not first.escalate_ladder
        second = policy.decide(CONVERGENCE, 1)
        assert not second.retry
        assert "convergence" in second.reason

    def test_scheduler_doubles_sweep_budget_on_convergence(self, monkeypatch):
        from repro.errors import ConvergenceError

        seen_sweeps = []

        def stalling(spec, *, workspace=None, ladder=None, max_sweeps=None):
            seen_sweeps.append(max_sweeps)
            if len(seen_sweeps) == 1:
                raise ConvergenceError("Francis iteration stalled")
            return {"driver": spec.driver, "n": spec.n, "elapsed_s": 0.0}

        monkeypatch.setattr("repro.serve.scheduler.execute_job", stalling)
        with _service(workers=1, retry=RetryPolicy(backoff_base=0.001)) as svc:
            sub = svc.submit(JobSpec(driver="ft_eig", n=24, seed=0))
            res = svc.result(sub.job_id, timeout=30)
        assert res.status == "done"
        assert res.retries == 1
        assert seen_sweeps == [None, 60]  # 2x the drivers' default of 30

    def test_eigvecs_only_for_eig_drivers(self):
        with pytest.raises(JobSpecError):
            JobSpec(driver="gehrd", n=16, eigvecs=True).validate()
        with pytest.raises(JobSpecError):
            JobSpec(driver="ft_eig", n=16, return_factors=True).validate()
        JobSpec(driver="ft_eig", n=16, eigvecs=True,
                return_factors=True).validate()
        JobSpec(driver="ft_schur", n=16, return_factors=True).validate()

    def test_eigvecs_in_key_only_for_eig_drivers(self):
        # old drivers' keys must be unchanged by the new field
        k1 = JobSpec(driver="gehrd", n=16, seed=0).key
        assert "eigvecs" not in k1
        a = JobSpec(driver="ft_eig", n=16, seed=0, eigvecs=False).key
        b = JobSpec(driver="ft_eig", n=16, seed=0, eigvecs=True,
                    return_factors=True).key
        assert a != b

    def test_ft_eig_payload_faulted(self):
        payload = execute_job(JobSpec(
            driver="ft_eig", n=24, seed=3, nb=8,
            faults=[{"iteration": 3, "row": 5, "col": 9, "magnitude": 1.0,
                     "space": "qr_matrix", "phase": "pre_sweep"}]))
        assert payload["detections"] >= 1
        assert payload["rollbacks"] >= 1
        assert payload["tier_tally"].get("reverse_redo", 0) >= 1
        ref = np.linalg.eigvals(
            __import__("repro.utils.rng", fromlist=["random_matrix"])
            .random_matrix(24, seed=3))
        got = np.array([complex(re, im) for re, im in payload["eigvals"]])
        dist = np.max(np.abs(np.sort_complex(got) - np.sort_complex(ref)))
        assert dist < 1e-10

    def test_ft_eig_batched_matches_scalar(self):
        with HessService(workers=1, small_n_threshold=32, batch_max=4,
                         batch_linger_ms=5.0) as svc:
            specs = [JobSpec(driver="ft_eig", n=16, seed=s, nb=8)
                     for s in range(4)]
            subs = svc.submit_batch(specs)
            assert all(s.accepted for s in subs)
            svc.drain(timeout=300)
            stats = svc.stats()
            for spec, sub in zip(specs, subs):
                res = svc.result(sub.job_id, timeout=60)
                assert res.status == "done", res.error
                got = dict(res.payload)
                ref = execute_job(spec)
                for k in ("elapsed_s", "seconds_simulated"):
                    got.pop(k, None), ref.pop(k, None)
                assert got == ref
        assert stats["batch_lane"]["batches"] >= 1

    def test_mixed_pipeline_faults_split_between_stages(self):
        payload = execute_job(JobSpec(
            driver="ft_eig", n=24, seed=5, nb=8,
            faults=[
                {"iteration": 1, "row": 10, "col": 15, "magnitude": 2.0},
                {"iteration": 2, "row": 4, "col": 8, "magnitude": 1.0,
                 "space": "qr_matrix", "phase": "pre_sweep"},
            ]))
        # one reduction-stage detection plus one QR-stage detection
        assert payload["detections"] >= 2
        assert payload["recoveries"] >= 2


# ---------------------------------------------------------------------------
# Queue-depth stat + startup shm sweep
# ---------------------------------------------------------------------------


class TestHealthGauges:
    def test_queue_depth_tracks_inflight_work(self):
        with HessService(workers=1, small_n_threshold=0) as svc:
            subs = svc.submit_batch(
                JobSpec(driver="ft_gehrd", n=96, seed=s) for s in range(3)
            )
            assert all(s.accepted for s in subs)
            # the stats key reads the scheduler's property on this thread,
            # while work is queued
            depth = svc.stats()["queue_depth"]
            assert depth >= 1
            assert depth == svc._scheduler.queue_depth
            svc.drain(timeout=120)
            assert svc.stats()["queue_depth"] == 0

    def test_startup_sweep_reclaims_dead_pid_segments(self, tmp_path):
        import os
        import subprocess

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        # a segment named for a real-but-dead creator pid: what a
        # SIGKILLed previous run leaves behind
        proc = subprocess.Popen(["true"])
        proc.wait()
        stale = f"/dev/shm/repro-shm-{proc.pid}-feedbeef"
        with open(stale, "wb") as fh:
            fh.write(b"\0" * 64)
        try:
            with HessService(workers=1, small_n_threshold=64) as svc:
                stats = svc.stats()
            assert not os.path.exists(stale)
            assert stats["data_plane"]["swept_at_start"] >= 0
        finally:
            if os.path.exists(stale):
                os.unlink(stale)
