"""The drivers record their phases; the simulator prices each record once.

``ft_gehrd`` (through :class:`FTSchedule`) and ``hybrid_gehrd`` hand
their result a frozen record of their phase events, which the result
prices when its timeline is first read, and the shared price cache
(:data:`repro.hybrid.runtime.PRICES`) prices each distinct clean record
once. These tests pin the contract that makes both safe: a run prices
nothing until it is read, a hit is exactly what a fresh pricing of the
same record returns, for every field the pricing reads, and a shared
timeline cannot be changed by a reader.
"""

import dataclasses

import pytest

from repro.batch import ft_gehrd_batched
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd
from repro.core.ft_hessenberg import FTSchedule, price_ft_record
from repro.core.hybrid_hessenberg import price_hybrid_record
from repro.faults import FaultInjector, FaultSpec
from repro.hybrid import HybridRuntime, laptop_sim
from repro.hybrid.engine import SimEngine
from repro.hybrid.runtime import MAX_CACHED_OPS, PRICES, PriceCache
from repro.hybrid.trace import Timeline
from repro.utils.rng import random_matrix

N, NB = 64, 16

#: a checkpoint strike plus its trigger, which the restore repairs so
#: tier 1 redoes the iteration, and a strike on the live V block, which
#: restarts (at two channels after the deep rollback refuses)
CHECKPOINT = (dict(iteration=1, row=20, col=5, space="checkpoint", phase="post_right"),
              dict(iteration=1, row=40, col=50, phase="post_right"))
PANEL_V = dict(iteration=1, row=30, col=5, space="panel_v", phase="post_panel")


def _rows(tl: Timeline) -> tuple:
    """A timeline as plain values: every op and the makespan."""
    ops = tuple(
        (op.index, op.name, op.resource, op.category, op.start, op.end, op.duration,
         op.deps)
        for op in tl.ops
    )
    return ops, tl.makespan


@pytest.fixture
def submits(monkeypatch):
    """Counts ``HybridRuntime.submit`` calls (the simulator's pricing)."""
    calls = []
    real = HybridRuntime.submit

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(HybridRuntime, "submit", counting)
    return calls


@pytest.fixture
def schedules(monkeypatch):
    """Every FTSchedule that finishes, so a test can re-price its record."""
    seen = []
    real = FTSchedule.finish

    def finish(self, *, q_corrected):
        seen.append(self)
        return real(self, q_corrected=q_corrected)

    monkeypatch.setattr(FTSchedule, "finish", finish)
    return seen


def _fresh_ft(sched: FTSchedule) -> tuple:
    return _rows(price_ft_record(*sched.key()))


class TestRepeatRuns:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_a_repeat_clean_ft_run_submits_nothing(self, submits, dtype):
        a = random_matrix(N, seed=3, dtype=dtype)
        first = ft_gehrd(a, FTConfig(nb=NB))
        submits.clear()
        again = ft_gehrd(a, FTConfig(nb=NB))
        assert submits == []
        assert again.timeline is first.timeline
        assert _rows(again.timeline) == _rows(first.timeline)
        assert again.seconds == first.seconds

    def test_a_repeat_clean_hybrid_run_submits_nothing(self, submits):
        a = random_matrix(N, seed=3)
        first = hybrid_gehrd(a, HybridConfig(nb=NB))
        submits.clear()
        again = hybrid_gehrd(a, HybridConfig(nb=NB))
        assert submits == []
        assert _rows(again.timeline) == _rows(first.timeline)

    def test_an_order_only_run_shares_the_clean_computing_record(self, submits):
        """A clean computing run and an order-only run of the same n and
        config report the same phases, so they share one pricing."""
        computed = ft_gehrd(random_matrix(N, seed=4), FTConfig(nb=NB))
        submits.clear()
        priced = ft_gehrd(N, FTConfig(nb=NB))
        assert submits == []
        assert priced.timeline is computed.timeline


class TestPricedWhenRead:
    """The simulator observes a run: it prices the record when the
    result's timeline is first read, and never during the run."""

    def test_a_faulted_run_prices_nothing_until_read(self, submits, schedules):
        cfg = FTConfig(nb=NB)
        inj = FaultInjector(faults=[FaultSpec(iteration=1, row=40, col=50)])
        res = ft_gehrd(random_matrix(N, seed=5), cfg, injector=inj)
        assert res.recoveries and res.record.faulted
        assert submits == []
        key = schedules[-1].key()
        # the record was frozen when the run finished; the caller's
        # config is theirs to change
        cfg.nb, cfg.channels, cfg.machine = 8, 2, laptop_sim()
        cfg.overlap_q_checksums = False
        assert res.seconds == res.timeline.makespan
        assert submits.count("encode") == 1
        assert _rows(res.timeline) == _rows(price_ft_record(*key))
        submits.clear()
        assert res.timeline is res.timeline and submits == []  # priced once

    def test_a_clean_record_is_priced_through_the_cache_when_read(self, submits):
        PRICES.clear()
        first = ft_gehrd(random_matrix(N, seed=3), FTConfig(nb=NB))
        again = ft_gehrd(random_matrix(N, seed=4), FTConfig(nb=NB))
        assert submits == [] and len(PRICES) == 0
        assert not first.record.faulted and first.record == again.record
        tl = first.timeline
        assert first.record.key in PRICES._timelines
        submits.clear()
        assert again.timeline is tl and submits == []

    def test_a_hybrid_runs_record_is_its_price_cache_key(self, submits):
        cfg = HybridConfig(nb=NB)
        res = hybrid_gehrd(random_matrix(N, seed=3), cfg)
        assert submits == []
        assert res.record.key == ("hybrid", N, 8, cfg.machine, NB)
        assert _rows(res.timeline) == _rows(price_hybrid_record(N, 8, cfg.machine, NB))
        assert PRICES._timelines[res.record.key] is res.timeline

    def test_clean_batched_items_share_the_order_only_record(self, submits):
        cfg = FTConfig(nb=NB)
        br = ft_gehrd_batched([random_matrix(N, seed=s) for s in (1, 2, 3)], cfg)
        assert br.fast_path == 3 and submits == []
        assert all(r.record is br.record for r in br.results)
        assert br.record == ft_gehrd(N, cfg).record
        assert br.results[0].timeline is br.results[2].timeline
        assert br.seconds == br.results[1].seconds


class TestHitsEqualFreshPricing:
    @pytest.mark.parametrize("plan,kwargs", [
        ((dict(iteration=1, row=40, col=50),), {}),  # reverse + redo
        ((dict(iteration=1, row=0, col=30, space="col_checksum"),), {}),  # in place
        (CHECKPOINT, {}),  # checkpoint repaired, then reverse + redo
        ((PANEL_V,), {"channels": 2}),  # deep rollback, then restart
        ((dict(iteration=2, row=3, col=10),), {"audit_every": 1}),  # audit fix
        ((PANEL_V,), {}),  # restart
    ])
    def test_a_faulted_runs_timeline_equals_an_uncached_pricing(
        self, schedules, plan, kwargs
    ):
        inj = FaultInjector(faults=[FaultSpec(**kw) for kw in plan])
        res = ft_gehrd(random_matrix(N, seed=5), FTConfig(nb=NB, **kwargs), injector=inj)
        assert res.detections >= 1 or res.recoveries
        assert _rows(res.timeline) == _fresh_ft(schedules[-1])

    def test_a_faulted_order_only_run_equals_an_uncached_pricing(self, schedules):
        inj = FaultInjector(faults=[FaultSpec(iteration=3, row=200, col=250)])
        res = ft_gehrd(300, FTConfig(nb=32), injector=inj)
        assert len(res.recoveries) == 1
        assert _rows(res.timeline) == _fresh_ft(schedules[-1])


    @pytest.mark.parametrize("change", [
        {"machine": laptop_sim()},
        {"nb": 8},
        {"channels": 2},
        {"audit_every": 2},
        {"overlap_q_checksums": False},
        {"lane": "float32"},
        {"n": N + 5},
    ])
    def test_each_field_the_schedule_reads_prices_afresh(self, schedules, change):
        """Warm the cache with the base run, then change one field: the
        run must read the timeline a fresh pricing of its own record
        gives, never the base run's."""
        change = dict(change)
        n = change.pop("n", N)
        dtype = change.pop("lane", "float64")
        base = ft_gehrd(random_matrix(N, seed=6), FTConfig(nb=NB))
        cfg = FTConfig(nb=NB)
        cfg = dataclasses.replace(cfg, **change)
        res = ft_gehrd(random_matrix(n, seed=6, dtype=dtype), cfg)
        assert _rows(res.timeline) == _fresh_ft(schedules[-1])
        assert _rows(res.timeline) != _rows(base.timeline)

    @pytest.mark.parametrize("change", [
        {"machine": laptop_sim()}, {"nb": 8}, {"lane": "float32"}, {"n": N + 5},
    ])
    def test_each_field_the_hybrid_schedule_reads_prices_afresh(self, change):
        change = dict(change)
        n = change.pop("n", N)
        dtype = change.pop("lane", "float64")
        base = hybrid_gehrd(random_matrix(N, seed=6), HybridConfig(nb=NB))
        cfg = dataclasses.replace(HybridConfig(nb=NB), **change)
        res = hybrid_gehrd(random_matrix(n, seed=6, dtype=dtype), cfg)
        fresh = price_hybrid_record(n, 4 if dtype == "float32" else 8, cfg.machine, cfg.nb)
        assert _rows(res.timeline) == _rows(fresh)
        assert _rows(res.timeline) != _rows(base.timeline)


class TestFaultedRecordsStayOut:
    @pytest.mark.parametrize("spec,kwargs", [
        (dict(iteration=1, row=40, col=50), {}),  # reverse + redo
        (dict(iteration=1, row=0, col=30, space="col_checksum"), {}),  # in place
        (PANEL_V, {}),  # restart
        (dict(iteration=2, row=3, col=10), {"audit_every": 1}),  # audit fix
        (dict(iteration=2, row=60, col=2), {}),  # Q correction (area 3)
    ])
    def test_a_faulted_record_is_priced_every_time_and_never_held(
        self, submits, schedules, spec, kwargs
    ):
        """A fault response makes a record all but unique: each run prices
        it afresh, and the cache keeps only the clean records."""
        a = random_matrix(N, seed=5)
        cfg = FTConfig(nb=NB, **kwargs)
        ft_gehrd(a, cfg)  # the clean record, held
        held = dict(PRICES._timelines)
        submits.clear()
        runs = [ft_gehrd(a, cfg, injector=FaultInjector(faults=[FaultSpec(**spec)]))
                for _ in range(2)]
        assert schedules[-1].faulted
        assert runs[0].timeline is not runs[1].timeline
        assert _rows(runs[0].timeline) == _rows(runs[1].timeline)
        assert submits.count("encode") == 2  # both faulted runs priced
        assert PRICES._timelines == held

    def test_a_clean_record_is_not_faulted(self, schedules):
        ft_gehrd(random_matrix(N, seed=5), FTConfig(nb=NB, audit_every=1))
        assert not schedules[-1].faulted

class TestBoundAndSharing:
    def test_the_cache_holds_at_most_its_bound(self):
        cache = PriceCache(max_ops=300)
        for n in (40, 64, 96, 128, 160):
            cache.timeline(("order", n), lambda n=n: ft_gehrd(n, FTConfig(nb=16)).timeline)
            assert cache.ops == sum(len(t.ops) for t in cache._timelines.values())
            assert cache.ops <= cache.max_ops
        # least recently used out first: the newest record is still held
        assert ("order", 160) in cache._timelines and ("order", 40) not in cache._timelines
        # a record larger than the whole bound is priced but never held
        big = cache.timeline(("order", 400), lambda: ft_gehrd(400, FTConfig(nb=16)).timeline)
        assert len(big.ops) > cache.max_ops
        assert ("order", 400) not in cache._timelines
        cache.clear()
        assert cache.ops == 0 and len(cache) == 0

    def test_the_shared_cache_stays_inside_its_bound(self):
        assert PRICES.max_ops == MAX_CACHED_OPS
        for n in range(200, 1200, 100):  # ~13k ops of distinct records
            ft_gehrd(n, FTConfig(nb=8))
        assert PRICES.ops <= MAX_CACHED_OPS

    def test_a_shared_timelines_ops_cannot_be_mutated(self):
        a = random_matrix(N, seed=7)
        tl = ft_gehrd(a, FTConfig(nb=NB)).timeline
        assert ft_gehrd(a, FTConfig(nb=NB)).timeline is tl
        before = _rows(tl)
        with pytest.raises(TypeError):
            tl.ops[0] = tl.ops[1]
        with pytest.raises(AttributeError):
            tl.ops.append(tl.ops[0])
        with pytest.raises(AttributeError):
            tl.ops[0].start = 1.0
        with pytest.raises(AttributeError):
            tl.ops[0].duration = 0.0
        assert _rows(tl) == before

    def test_a_timeline_holds_no_engine(self):
        """A cached timeline keeps only its ops, not the engine that
        scheduled them (whose op list and resource clocks are mutable)."""
        eng = SimEngine()
        eng.submit("x", "gpu", 1.0)
        tl = Timeline(eng)
        eng.submit("y", "gpu", 1.0)
        assert [op.name for op in tl.ops] == ["x"] and tl.makespan == 1.0
        assert not any(isinstance(v, SimEngine) for v in vars(tl).values())

