"""Async batch scheduler: admission control, fairness, lanes, retries.

The scheduler is the execution path the ROADMAP's "serve heavy traffic"
goal needs: many callers submit :class:`~repro.serve.jobs.JobSpec`\\ s,
and a fixed worker budget drains them without ever blocking a submitter
or losing a job.

Design points, in the order a job meets them:

**Admission control.** The submission queue is bounded. A submit
against a full queue is *rejected with a structured reason* (a
:class:`Submission` with ``accepted=False``), never blocked and never
raised — backpressure is data the client can act on, not an exception.
Cache hits and coalesced duplicates bypass admission entirely: they
consume no worker, so a full queue is no reason to refuse them.

**Content-addressed reuse.** Each accepted key becomes one *work item*;
duplicate submissions attach to the in-flight item (coalescing) and
completed payloads are served straight from the
:class:`~repro.serve.cache.ResultCache`. A duplicate-heavy sweep
therefore executes each distinct computation once.

**Two executors, each with its own runners.** One routing rule
(:meth:`AsyncScheduler._in_thread`) sends every work item to one of
two executors, and each executor has its own queue and its own runner
tasks, so neither waits on the other:

* the **pool**: CPU-heavy jobs ship to a
  :class:`~repro.utils.procpool.ResilientProcessPool` whose workers hold
  per-process :func:`~repro.perf.workspace.process_workspace` arenas
  (the PR 1 pooling, amortized across jobs). ``workers`` is the pool
  size, and two pool runners per worker keep each worker holding one
  running job and one waiting job: the worker takes the waiting job
  from the executor's call queue the moment it finishes, while the
  result's trip back and the next job's encode and submit overlap the
  run. A waiting job's timeout and ``started_at`` run from the moment
  the job ahead of it finishes (:class:`_WorkerSlots`). A worker crash
  (BrokenProcessPool) rebuilds the pool and re-queues the job through
  the retry policy: no job is ever lost to infrastructure. A job that
  was still waiting never ran, so it re-runs at no cost to its retry
  budget.
* the **host**: jobs at or below ``small_n_threshold`` (crash-chaos
  jobs excepted: the hook kills its host) run on an in-process thread
  instead, too small to amortize a pickle round-trip. One host runner
  takes them. In-thread jobs and batches (below) share one host lock:
  they are interpreter-bound and share one GIL, so two host threads
  would only take turns.

A host job therefore never waits out a pool job, and the pool never
idles while a host job runs. The one exception is a rebuilt pool: it
forks its new workers under the host lock, between host jobs, because
a fork while a host thread holds a lock wedges the child.

**Fairness + priority.** Within each executor's queue, work items are
queued per (lane, submitter). Lanes drain strictly in priority order;
within a lane, submitters are served round-robin, so one client
flooding the queue cannot starve another's occasional job. Priority
orders work on one executor only: a ``high`` pool job does not delay a
``low`` host job, since the two never compete for the same resource.

**Batch coalescing.** With ``batch_max > 1``, compatible small-n jobs
(same driver/order/nb/channels, at or below ``small_n_threshold``, on
the :func:`~repro.serve.jobs.batch_compatible` surface) stage in a
bucket for up to ``batch_linger_ms`` and run as *one* stacked
:mod:`repro.batch` execution — byte-identical per-item payloads at a
fraction of the per-job Python overhead. Items the stacked engine
ejects (detected faults) finish on the scalar resilience ladder inside
the batch; an item whose scalar re-run fails is re-queued alone to the
normal lanes, and a batch-level failure re-routes the whole group —
retry isolation in both directions. Lone stragglers are re-routed
immediately (a batch of one is pure overhead).

**Resilience-aware retries.** Failures are classified by
:mod:`repro.serve.retry`; ``EscalationExhausted`` re-runs with a
stricter ladder, timeouts and lost workers get one fresh-worker retry,
config errors fail permanently. A pool timeout stops the timed-out
pool's workers, so a wedged job stops running; the other jobs that
stop kills re-run at no cost to their budgets.

**Zero-copy data plane.** Large inline matrices are written to a POSIX
shared-memory segment once per work item and pool workers receive a
~100-byte :class:`~repro.utils.shm.SharedMatrix` handle instead of an
n×n pickle; retries reuse the same segment. ``return_factors`` results
come back the same way and are materialized lazily on first access
(:meth:`~repro.serve.jobs.JobResult.factor`). Every segment is owned by
the scheduler's :class:`~repro.utils.shm.SegmentRegistry`, which the
pool unlinks on rebuild/shutdown and sweeps for dead-creator orphans —
no leaked ``/dev/shm`` entries even across worker crashes. Transport
selection is automatic (``transport="auto"``): pickle below
``shm_min_bytes`` or where ``/dev/shm`` is unavailable, shared memory
otherwise; ``"shm"`` forces it (raising if unsupported), ``"pickle"``
disables it.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import queue as _queue
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.perf.workspace import Workspace
from repro.resilience.ladder import LadderConfig
from repro.utils.procpool import ResilientProcessPool
from repro.utils.shm import (
    DEFAULT_MIN_BYTES,
    TRANSPORTS,
    SegmentRegistry,
    SharedMatrix,
    TransportError,
    shm_available,
    use_shm_for,
)
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    LANES,
    QUEUED,
    RUNNING,
    JobResult,
    JobSpec,
    JobSpecError,
    batch_compatible,
    batch_group_key,
    execute_job,
    execute_job_pooled,
    execute_jobs_batched,
    pool_worker_init,
)
from repro.serve.retry import (
    JobTimeout,
    RetryPolicy,
    WorkerLost,
    classify_failure,
)


@dataclass(frozen=True)
class Submission:
    """The structured answer to one ``submit`` call.

    ``accepted=False`` carries the machine-readable refusal in
    ``reason`` (``"backpressure: ..."`` or ``"invalid: ..."``); the
    client decides whether to wait, shed, or fix the spec.
    """

    accepted: bool
    job_id: int | None = None
    key: str = ""
    reason: str = ""
    queue_depth: int = 0


@dataclass
class _Job:
    """One submitted job (possibly one of several attached to a work item)."""

    result: JobResult
    done: asyncio.Event = field(default_factory=asyncio.Event)


@dataclass
class _Work:
    """One distinct computation: a key plus every job attached to it."""

    key: str
    spec: JobSpec
    lane: str
    submitter: str
    jobs: list[_Job] = field(default_factory=list)
    cancelled: bool = False
    ladder: LadderConfig | None = None
    # raised Francis sweep budget for convergence retries (None = driver
    # default); doubled by each raise_sweeps retry decision
    max_sweeps: int | None = None
    class_failures: dict[str, int] = field(default_factory=dict)
    # inline matrix encoded into shared memory once per work item —
    # every retry of this item re-sends the ~100-byte handle, never the
    # n*n pickle (released by the runner when the item resolves)
    shm_matrix: SharedMatrix | None = None
    # started_at stamped (a pool job waits in the executor first)
    started: bool = False

    def live_jobs(self) -> list[_Job]:
        return [j for j in self.jobs if j.result.status != CANCELLED]


#: the two executors: the process pool and the host (in-thread jobs and
#: batches); each has its own queue and its own runners
POOL, HOST = "pool", "host"


class _Requeue(Exception):
    """A pool attempt that came to no outcome of its own: its pool went
    away while it waited behind another job, or another job's timeout
    stopped its worker. It re-runs at no cost to its retry budget."""


class _WorkerSlots:
    """Which of one pool instance's attempts run and which wait.

    The executor hands its queued calls to the workers in submission
    order as they free up, so a waiting attempt starts the moment an
    attempt ahead of it finishes. :meth:`enter` returns a future that
    resolves ``True`` at that moment, or ``False`` if the pool is
    rebuilt first (the attempt never ran).
    """

    def __init__(self, generation: int, workers: int) -> None:
        self.generation = generation
        self.free = workers
        self.waiting: collections.deque[asyncio.Future] = collections.deque()
        # a timeout's rebuild killed this pool's workers, so every other
        # attempt still on it was stopped, not lost
        self.stopped = False

    def enter(self) -> asyncio.Future:
        started = asyncio.get_running_loop().create_future()
        if self.free:
            self.free -= 1
            started.set_result(True)
        else:
            self.waiting.append(started)
        return started

    def leave(self, started: asyncio.Future) -> None:
        """An attempt is over: its worker takes the next waiting one."""
        if not started.done():
            self.waiting.remove(started)
        elif started.result():
            self.free += 1
            while self.free and self.waiting:
                self.free -= 1
                self.waiting.popleft().set_result(True)

    def abandon(self) -> None:
        """The pool was rebuilt: its waiting attempts never start."""
        while self.waiting:
            self.waiting.popleft().set_result(False)


class _LaneQueues:
    """One executor's queued work items, per (lane, submitter).

    Lanes drain strictly in priority order; within a lane, submitters
    are served round-robin. Cancelled items stay queued (already
    de-counted) and are discarded when popped.
    """

    def __init__(self) -> None:
        self.lanes: dict[str, dict[str, collections.deque]] = {ln: {} for ln in LANES}
        self._rr: dict[str, collections.deque] = {ln: collections.deque() for ln in LANES}

    def push(self, work: _Work) -> None:
        lane = self.lanes[work.lane]
        if work.submitter not in lane:
            lane[work.submitter] = collections.deque()
            self._rr[work.lane].append(work.submitter)
        lane[work.submitter].append(work)

    def holds(self, work: _Work) -> bool:
        return work in self.lanes[work.lane].get(work.submitter, ())

    def pop(self) -> _Work | None:
        """Highest non-empty lane; round-robin over submitters within it."""
        for lane in LANES:
            ring = self._rr[lane]
            buckets = self.lanes[lane]
            for _ in range(len(ring)):
                submitter = ring[0]
                ring.rotate(-1)
                dq = buckets.get(submitter)
                work = None
                while dq:
                    cand = dq.popleft()
                    if not cand.cancelled:
                        work = cand
                        break  # cancelled items were already de-counted
                if dq is not None and not dq:
                    buckets.pop(submitter, None)
                    ring.remove(submitter)
                if work is not None:
                    return work
        return None


class AsyncScheduler:
    """The asyncio half of the service (see module docstring).

    All state mutation happens on the owning event loop; the only
    cross-thread surface is the subscriber queues (thread-safe
    ``queue.Queue``) and the read-only stats snapshot.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        max_queue: int = 64,
        cache: ResultCache | None = None,
        retry: RetryPolicy | None = None,
        small_n_threshold: int = 0,
        default_timeout: float | None = None,
        transport: str = "auto",
        shm_min_bytes: int | None = None,
        batch_max: int = 0,
        batch_linger_ms: float = 5.0,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if batch_max < 0:
            raise ValueError(f"batch_max must be >= 0, got {batch_max}")
        if batch_linger_ms < 0:
            raise ValueError(f"batch_linger_ms must be >= 0, got {batch_linger_ms}")
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r} (want one of {TRANSPORTS})")
        if transport == "shm" and not shm_available():
            raise TransportError(
                "transport='shm' was forced but shared memory is unavailable "
                "on this platform"
            )
        self.workers = max(1, int(workers))
        self.max_queue = int(max_queue)
        self.cache = cache
        self.retry = retry or RetryPolicy()
        self.small_n_threshold = int(small_n_threshold)
        self.default_timeout = default_timeout
        self.transport = transport
        self.shm_min_bytes = (
            DEFAULT_MIN_BYTES if shm_min_bytes is None else int(shm_min_bytes)
        )
        # forced shm means *everything* crosses in shared memory — the CI
        # smoke job relies on this to exercise the segment lifecycle
        self._factor_min_bytes = 0 if transport == "shm" else self.shm_min_bytes
        self._shm_factors = transport != "pickle" and shm_available()

        self._queues = {POOL: _LaneQueues(), HOST: _LaneQueues()}
        self._queued = 0  # non-cancelled queued work items (admission gauge)
        self._running = 0

        self._jobs: dict[int, _Job] = {}
        self._inflight: dict[str, _Work] = {}  # queued or running work, by key
        self._next_id = 0

        self._cond = asyncio.Condition()
        self._registry = SegmentRegistry()
        self._pool = ResilientProcessPool(
            self.workers, initializer=pool_worker_init, registry=self._registry
        )
        # in-thread jobs and batches take turns on the host: they are
        # interpreter-bound, so two host threads would only share a GIL
        self._host_lock = asyncio.Lock()
        self._thread_ws = Workspace()
        # the pool generation whose workers were forked while no host
        # thread ran (start() forks generation 0)
        self._warm_gen = 0
        self._slots = _WorkerSlots(0, self.workers)
        self._runners: list[asyncio.Task] = []
        self._stopped = False

        # batch-coalescing lane: compatible small-n jobs stage here and
        # run as one stacked execution (see docs/serving.md)
        self.batch_max = int(batch_max)
        self.batch_linger_ms = float(batch_linger_ms)
        self._batch_buckets: dict[tuple, list[_Work]] = {}
        self._batch_timers: dict[tuple, asyncio.TimerHandle] = {}
        self._batch_tasks: set[asyncio.Task] = set()
        self._batch_ws = Workspace()
        self._batch_counts = collections.Counter()

        self._subscribers: list[_queue.SimpleQueue] = []
        self._t0 = time.perf_counter()
        self._counts = collections.Counter()
        self._tier_tally: collections.Counter = collections.Counter()
        self._swept_at_start = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._runners:
            return
        # Reclaim dead-pid shm segments from a previous crashed run now,
        # not on the first pool rebuild: a SIGKILLed service leaves
        # orphans that would otherwise sit in /dev/shm until this
        # scheduler's first worker crash.
        self._swept_at_start = self._registry.sweep()
        # Fork the pool's workers now, before any job traffic exists.
        # A lazy first fork can land while a batch-lane executor thread
        # holds a lock mid-execution; the child inherits the locked
        # mutex and wedges (fork-vs-threads), stranding the job.
        self._pool.warm()
        # two runners per pool worker (one job running, one waiting in
        # the executor) and one for the host, so neither executor waits
        # on the other and a pool worker never waits on its runner
        self._runners = [
            asyncio.create_task(self._runner(POOL), name=f"serve-pool-runner-{i}")
            for i in range(2 * self.workers)
        ] + [asyncio.create_task(self._runner(HOST), name="serve-host-runner")]

    async def stop(self) -> None:
        async with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for timer in self._batch_timers.values():
            timer.cancel()
        self._batch_timers.clear()
        for task in list(self._batch_tasks):
            task.cancel()
        await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        self._batch_tasks.clear()
        for task in self._runners:
            task.cancel()
        await asyncio.gather(*self._runners, return_exceptions=True)
        self._runners = []
        # no pool result is collected after the stop: kill a worker that
        # holds a job rather than let it run (and then the one behind it)
        self._pool.shutdown(stop_workers=True)
        self._emit("stopped")

    # -- events --------------------------------------------------------------

    def subscribe(self) -> _queue.SimpleQueue:
        """A thread-safe queue receiving every progress event from now on."""
        q: _queue.SimpleQueue = _queue.SimpleQueue()
        self._subscribers.append(q)
        return q

    def _emit(self, kind: str, **data) -> None:
        if not self._subscribers:
            return
        event = {"event": kind, "t": round(time.perf_counter() - self._t0, 6), **data}
        for q in self._subscribers:
            q.put(event)

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def queue_depth(self) -> int:
        """Work items currently queued or running (admission pressure)."""
        return self._queued + self._running

    # -- submission ----------------------------------------------------------

    async def submit(self, spec: JobSpec) -> Submission:
        """Admit, coalesce, serve-from-cache, or reject — never block."""
        self._counts["submitted"] += 1
        try:
            spec.validate()
        except JobSpecError as exc:
            self._counts["rejected_invalid"] += 1
            self._emit("rejected", reason=f"invalid: {exc}")
            return Submission(False, reason=f"invalid: {exc}", queue_depth=self._queued)
        if self._stopped:
            self._counts["rejected_stopped"] += 1
            return Submission(False, key=spec.key, reason="unavailable: scheduler stopped",
                              queue_depth=self._queued)

        key = spec.key

        # factor-bearing results never enter the cache: their shared
        # segments have a lifecycle the JSON cache cannot own
        use_cache = self.cache is not None and not spec.return_factors
        cached = self.cache.get(key) if use_cache else None
        if cached is not None:
            job = self._new_job(spec, key)
            job.result.cache_hit = True
            self._finish_job(job, DONE, payload=cached)
            self._emit("cache_hit", job_id=job.result.job_id, key=key)
            return Submission(True, job.result.job_id, key, queue_depth=self._queued)

        work = self._inflight.get(key)
        if work is not None and not work.cancelled:
            job = self._new_job(spec, key)
            job.result.coalesced = True
            self._counts["coalesced"] += 1
            work.jobs.append(job)
            self._emit("coalesced", job_id=job.result.job_id, key=key,
                       leader=work.jobs[0].result.job_id)
            return Submission(True, job.result.job_id, key, queue_depth=self._queued)

        if self._queued >= self.max_queue:
            # a structured refusal, not an exception and not a job record:
            # the submission never entered the system
            self._counts["rejected_backpressure"] += 1
            reason = (
                f"backpressure: queue full ({self._queued}/{self.max_queue} work items); "
                f"drain or cancel before resubmitting"
            )
            self._emit("rejected", key=key, reason=reason)
            return Submission(False, None, key, reason=reason, queue_depth=self._queued)

        job = self._new_job(spec, key)
        work = _Work(key=key, spec=spec, lane=spec.priority, submitter=spec.submitter,
                     jobs=[job])
        self._inflight[key] = work
        self._queued += 1
        self._counts["accepted"] += 1
        if self._batch_eligible(spec):
            self._stage_batch(work)
            self._emit("submitted", job_id=job.result.job_id, key=key, lane="batch",
                       submitter=work.submitter, queue_depth=self._queued)
            return Submission(True, job.result.job_id, key, queue_depth=self._queued)
        self._enqueue_lane(work)
        self._emit("submitted", job_id=job.result.job_id, key=key, lane=work.lane,
                   submitter=work.submitter, queue_depth=self._queued)
        async with self._cond:
            # every runner waits on this condition, and only the item's
            # own executor's runners can take it: wake them all
            self._cond.notify_all()
        return Submission(True, job.result.job_id, key, queue_depth=self._queued)

    def _in_thread(self, spec: JobSpec) -> bool:
        """The routing rule: does this job run on the host (in-thread)
        rather than in the pool? Crash-chaos jobs always run out of
        process: the hook kills its host."""
        return spec.order <= self.small_n_threshold and not spec.crash

    def _queue_of(self, work: _Work) -> _LaneQueues:
        return self._queues[HOST if self._in_thread(work.spec) else POOL]

    def _enqueue_lane(self, work: _Work) -> None:
        """Append a (counted, in-flight) work item to its priority lane
        on its executor's queue."""
        self._queue_of(work).push(work)

    def _new_job(self, spec: JobSpec, key: str) -> _Job:
        self._next_id += 1
        result = JobResult(
            job_id=self._next_id,
            key=key,
            status=QUEUED,
            lane=spec.priority,
            submitter=spec.submitter,
            submitted_at=self._now(),
        )
        job = _Job(result=result)
        self._jobs[result.job_id] = job
        return job

    # -- queries / control ---------------------------------------------------

    def status(self, job_id: int) -> str | None:
        job = self._jobs.get(job_id)
        return job.result.status if job else None

    def get_result(self, job_id: int) -> JobResult | None:
        job = self._jobs.get(job_id)
        return job.result if job else None

    async def wait_result(self, job_id: int, timeout: float | None = None) -> JobResult:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id}")
        await asyncio.wait_for(job.done.wait(), timeout)
        return job.result

    async def cancel(self, job_id: int) -> bool:
        """Cancel a *queued* job. Running or terminal jobs return False.

        If the job was the only one attached to its work item, the item
        itself is cancelled (lazily discarded at pop time) and its queue
        slot freed immediately.
        """
        job = self._jobs.get(job_id)
        if job is None or job.result.status != QUEUED:
            return False
        work = self._inflight.get(job.result.key)
        if work is None:  # already picked up and resolved concurrently
            return False
        staged = next(
            (b for b in self._batch_buckets.values() if work in b), None
        )
        if staged is None and not self._queue_of(work).holds(work):
            return False  # running: too late to cancel
        self._finish_job(job, CANCELLED, error="cancelled while queued")
        self._counts["cancelled"] += 1
        self._emit("cancelled", job_id=job_id, key=work.key)
        if not work.live_jobs():
            work.cancelled = True
            if staged is not None:
                staged.remove(work)
            self._inflight.pop(work.key, None)
            self._queued -= 1
            async with self._cond:
                self._cond.notify_all()
        return True

    async def drain(self) -> None:
        """Wait until every accepted job has reached a terminal state."""
        async with self._cond:
            while self._queued > 0 or self._running > 0:
                await self._cond.wait()

    # -- the runner loop -----------------------------------------------------

    async def _runner(self, executor: str) -> None:
        while True:
            async with self._cond:
                work = None
                while work is None:
                    if self._stopped:
                        return
                    work = self._pop_work(executor)
                    if work is None:
                        await self._cond.wait()
                self._queued -= 1
                self._running += 1
            try:
                await self._run_work(work)
            finally:
                if work.shm_matrix is not None:
                    # last use of the input segment: drop the work item's
                    # reference so the registry can unlink it
                    self._registry.release(work.shm_matrix.name)
                    work.shm_matrix = None
                self._inflight.pop(work.key, None)
                async with self._cond:
                    self._running -= 1
                    self._cond.notify_all()

    def _pop_work(self, executor: str = POOL) -> _Work | None:
        """The next work item for *executor*'s runners, if any."""
        return self._queues[executor].pop()

    # -- the batch-coalescing lane -------------------------------------------

    def _batch_eligible(self, spec: JobSpec) -> bool:
        """Should this spec stage in the batch lane instead of a queue?

        The lane is on (``batch_max > 1``), the spec fits the stacked
        engine's surface (:func:`batch_compatible`), and the job is
        small enough that Python overhead — not arithmetic — dominates
        (the same ``small_n_threshold`` gate as the in-thread lane).
        """
        return (
            self.batch_max > 1
            and spec.order <= self.small_n_threshold
            and batch_compatible(spec)
        )

    def _stage_batch(self, work: _Work) -> None:
        """Hold a work item in its compatibility bucket until the bucket
        fills (``batch_max``) or the linger timer fires."""
        ck = batch_group_key(work.spec)
        bucket = self._batch_buckets.setdefault(ck, [])
        bucket.append(work)
        if len(bucket) >= self.batch_max:
            self._flush_bucket(ck)
        elif ck not in self._batch_timers:
            self._batch_timers[ck] = asyncio.get_running_loop().call_later(
                self.batch_linger_ms / 1000.0, self._flush_bucket, ck
            )

    def _flush_bucket(self, ck: tuple) -> None:
        """Dispatch one staged bucket (timer callback or fill trigger)."""
        timer = self._batch_timers.pop(ck, None)
        if timer is not None:
            timer.cancel()
        works = [w for w in self._batch_buckets.pop(ck, []) if not w.cancelled]
        if not works or self._stopped:
            return
        if len(works) == 1:
            # a lone job gains nothing from the stacked engine: re-route
            # to the normal lanes (still counted and in-flight)
            self._batch_counts["singletons"] += 1
            self._enqueue_lane(works[0])
            task = asyncio.get_running_loop().create_task(self._notify())
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)
            return
        task = asyncio.get_running_loop().create_task(self._run_batch(works))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _notify(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    def _requeue_from_batch(self, work: _Work) -> None:
        """Send a batch casualty through the normal scalar path (item
        retry isolation: one bad item never blocks its siblings)."""
        for job in work.live_jobs():
            job.result.retries += 1
            job.result.status = QUEUED
        self._counts["retries"] += 1
        self._batch_counts["requeued"] += 1
        self._enqueue_lane(work)

    async def _run_batch(self, works: list[_Work]) -> None:
        """Execute one formed batch and fan results back out per item."""
        async with self._cond:
            self._queued -= len(works)
            self._running += 1
        try:
            for w in works:
                for job in w.live_jobs():
                    job.result.status = RUNNING
                    job.result.started_at = self._now()
            self._emit("batch_started", size=len(works),
                       keys=[w.key for w in works])
            specs = [w.spec for w in works]
            try:
                async with self._host_lock:
                    self._counts["executed"] += 1
                    out = await asyncio.to_thread(
                        execute_jobs_batched, specs, workspace=self._batch_ws
                    )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - whole-batch fallback
                # a batch-level failure says nothing about any single
                # item: every member re-routes to the scalar path, where
                # the normal retry policy owns it
                self._batch_counts["batch_failures"] += 1
                self._emit("batch_failed", size=len(works),
                           reason=f"{type(exc).__name__}: {exc}")
                requeued = 0
                for w in works:
                    if w.live_jobs():
                        self._requeue_from_batch(w)
                        requeued += 1
                    else:
                        w.cancelled = True
                        self._inflight.pop(w.key, None)
                async with self._cond:
                    self._queued += requeued
                    self._cond.notify_all()
                return

            self._batch_counts["batches"] += 1
            self._batch_counts["batched_jobs"] += len(works)
            self._batch_counts["ejections"] += out["ejections"]
            requeued = 0
            for w, oc in zip(works, out["outcomes"]):
                live = w.live_jobs()
                if not live:
                    w.cancelled = True
                    self._inflight.pop(w.key, None)
                    continue
                if not oc["ok"]:
                    self._requeue_from_batch(w)
                    requeued += 1
                    continue
                payload = oc["payload"]
                if self.cache is not None:
                    self.cache.put(w.key, payload)
                for tier, count in payload.get("tier_tally", {}).items():
                    self._tier_tally[tier] += count
                for job in live:
                    self._finish_job(job, DONE, payload=payload)
                self._counts["completed"] += 1
                self._inflight.pop(w.key, None)
                self._emit("done", job_id=w.jobs[0].result.job_id, key=w.key,
                           followers=len(w.jobs) - 1, batched=True,
                           elapsed_s=round(payload.get("elapsed_s", 0.0), 6))
            if requeued:
                async with self._cond:
                    self._queued += requeued
                    self._cond.notify_all()
        finally:
            async with self._cond:
                self._running -= 1
                self._cond.notify_all()

    def _mark_started(self, work: _Work) -> None:
        """Stamp the work item's start, once (a retry keeps the first)."""
        if work.started:
            return
        work.started = True
        now = self._now()
        for job in work.live_jobs():
            job.result.started_at = now
        self._emit("started", job_id=work.jobs[0].result.job_id, key=work.key,
                   lane=work.lane)

    async def _run_work(self, work: _Work) -> None:
        # a job handed to its executor is running (no longer cancellable);
        # a pool job starts when a worker takes it (_execute)
        for job in work.live_jobs():
            job.result.status = RUNNING
        if self._in_thread(work.spec):
            self._mark_started(work)
        while True:
            if not work.live_jobs():
                # every attached job was cancelled between retries
                work.cancelled = True
                return
            try:
                self._counts["executed"] += 1
                payload = await self._execute(work)
            except asyncio.CancelledError:
                raise
            except _Requeue as exc:
                self._counts["requeued"] += 1
                self._emit("requeued", job_id=work.jobs[0].result.job_id, key=work.key,
                           reason=str(exc))
                continue
            except BaseException as exc:  # noqa: BLE001 - classified below
                fclass = classify_failure(exc)
                prior = work.class_failures.get(fclass, 0)
                decision = self.retry.decide(fclass, prior, key=work.key)
                work.class_failures[fclass] = prior + 1
                if not decision.retry:
                    for job in work.live_jobs():
                        self._finish_job(job, FAILED, error=f"{type(exc).__name__}: {exc}",
                                         failure_class=fclass)
                    self._counts["failed"] += 1
                    self._emit("failed", job_id=work.jobs[0].result.job_id, key=work.key,
                               failure_class=fclass, reason=decision.reason)
                    return
                self._counts["retries"] += 1
                if decision.escalate_ladder:
                    work.ladder = (work.ladder or LadderConfig()).stricter()
                if decision.raise_sweeps:
                    # double the Francis stall budget (from the drivers'
                    # default of 30 sweeps per eigenvalue)
                    work.max_sweeps = 2 * (work.max_sweeps or 30)
                for job in work.live_jobs():
                    job.result.retries += 1
                self._emit("retrying", job_id=work.jobs[0].result.job_id, key=work.key,
                           failure_class=fclass, wait=round(decision.wait, 4),
                           reason=decision.reason,
                           stricter_ladder=decision.escalate_ladder)
                await asyncio.sleep(decision.wait)
                continue
            # success
            if self.cache is not None and not work.spec.return_factors:
                self.cache.put(work.key, payload)
            for tier, count in payload.get("tier_tally", {}).items():
                self._tier_tally[tier] += count
            live = work.live_jobs()
            self._adopt_factors(payload, live)
            for job in live:
                self._finish_job(job, DONE, payload=payload)
            self._counts["completed"] += 1
            self._emit("done", job_id=work.jobs[0].result.job_id, key=work.key,
                       followers=len(work.jobs) - 1,
                       elapsed_s=round(payload.get("elapsed_s", 0.0), 6))
            return

    async def _execute(self, work: _Work) -> dict:
        """One attempt, on the executor the routing rule picks."""
        spec = work.spec
        timeout = spec.timeout if spec.timeout is not None else self.default_timeout
        if self._in_thread(spec):
            async with self._host_lock:
                try:
                    # max_sweeps only rides along once a convergence
                    # retry raised it (keeps the call signature stable
                    # for stubbed drivers)
                    extra = (
                        {"max_sweeps": work.max_sweeps}
                        if work.max_sweeps is not None else {}
                    )
                    return await asyncio.wait_for(
                        asyncio.to_thread(
                            execute_job, spec, workspace=self._thread_ws,
                            ladder=work.ladder, **extra,
                        ),
                        timeout,
                    )
                except asyncio.TimeoutError:
                    # the abandoned thread may still be touching the lane's
                    # arena; give subsequent jobs a fresh one
                    self._thread_ws = Workspace()
                    raise JobTimeout(
                        f"job {work.key} exceeded {timeout}s (in-thread lane)"
                    ) from None
        # large inline matrices cross the process line as a shared-memory
        # handle, encoded once per work item (retries reuse the segment)
        send_spec = spec
        if isinstance(spec.matrix, np.ndarray):
            # ship the job's effective lane: fp32 inline matrices cross in
            # half the segment bytes instead of being promoted to float64
            matrix = np.asarray(spec.matrix, dtype=spec.lane)
            if work.shm_matrix is None and use_shm_for(
                matrix.nbytes, self.transport, min_bytes=self.shm_min_bytes
            ):
                work.shm_matrix = SharedMatrix.create(matrix, registry=self._registry)
                self._counts["shm_matrices"] += 1
            if work.shm_matrix is not None:
                send_spec = dataclasses.replace(spec, matrix=work.shm_matrix)
        # A rebuilt pool forks its workers on first use, and a fork while
        # a host thread holds a lock wedges the child (see start()). Fork
        # them under the host lock, between host jobs.
        while self._warm_gen != self._pool.generation:
            async with self._host_lock:
                self._pool.warm()
                self._warm_gen = self._pool.generation
        # capture the pool instance this attempt runs on: concurrent
        # failures from one dead pool must rebuild it once, not tear
        # down each other's replacement (ResilientProcessPool.generation).
        # Every pool failure below rebuilds here, so the retry path (the
        # policy's fresh_worker) needs no rebuild of its own.
        slots = self._live_slots()
        try:
            fut = self._pool.submit(
                execute_job_pooled, send_spec, work.ladder,
                self._shm_factors, self._factor_min_bytes, work.max_sweeps,
            )
        except BrokenExecutor:
            # a pool whose worker just died raises from submit itself:
            # that is a lost worker like any other, not a job failure
            self._rebuild(slots)
            raise WorkerLost(f"worker died before {work.key} was sent") from None
        done = asyncio.wrap_future(fut)
        started = slots.enter()
        try:
            if not started.done():
                # waiting behind a running job: until it finishes, or
                # until this call resolves first
                await asyncio.wait((done, started), return_when=asyncio.FIRST_COMPLETED)
            promoted = started.done() and started.result()
            if not promoted and (
                not done.done() or done.cancelled()
                or isinstance(done.exception(), BrokenExecutor)
            ):
                # its pool went away while it waited: it never ran (a
                # call that came back with a result or a job error ran)
                done.cancel()
                self._rebuild(slots)
                raise _Requeue(f"pool went away before {work.key} started")
            self._mark_started(work)
            return await asyncio.wait_for(done, timeout)
        except asyncio.TimeoutError:
            fut.cancel()
            # the worker may be wedged: the rebuild stops the pool's
            # workers, so the retry (or the next job) runs on a
            # responsive pool, alone
            self._rebuild(slots, timed_out=True)
            raise JobTimeout(f"job {work.key} exceeded {timeout}s") from None
        except asyncio.CancelledError:
            # A concurrent rebuild's cancel_futures sweeps a pending
            # future, and rebuild moves the generation before that
            # cancellation reaches the loop. Otherwise this runner itself
            # was cancelled (stop()): wrap_future cancels a pending
            # future then too, and that is no lost worker.
            if fut.cancelled() and self._pool.generation != slots.generation:
                raise WorkerLost(
                    f"pool was rebuilt under queued job {work.key}"
                ) from None
            done.cancel()  # a waiting job's call: nothing reads it now
            raise
        except BrokenExecutor:
            if slots.stopped:
                raise _Requeue(
                    f"another job's timeout stopped the worker running {work.key}"
                ) from None
            self._rebuild(slots)
            raise WorkerLost(f"worker died while running {work.key}") from None
        finally:
            slots.leave(started)

    def _live_slots(self) -> _WorkerSlots:
        """The live pool instance's slots (fresh after every rebuild)."""
        if self._slots.generation != self._pool.generation:
            self._slots.abandon()
            self._slots = _WorkerSlots(self._pool.generation, self.workers)
        return self._slots

    def _rebuild(self, slots: _WorkerSlots, *, timed_out: bool = False) -> None:
        """Replace *slots*' pool, if it is still the live one (its workers
        are killed, see ResilientProcessPool.rebuild). After a timeout,
        the other attempts that kill ends re-run uncharged."""
        if slots.generation == self._pool.generation:
            slots.stopped = timed_out
            self._pool.rebuild(slots.generation)
        self._live_slots()

    def _adopt_factors(self, payload: dict, live: list[_Job]) -> None:
        """Take ownership of worker-written factor segments.

        A pool worker creates result segments *unowned* (it may die any
        moment); the scheduler adopts them on arrival, holds one
        reference per live job, and binds the registry to each result so
        :meth:`JobResult.factor` can materialize-and-release. If every
        reader is already gone the segment is unlinked immediately.
        """
        refs = payload.get("factors") or {}
        for ref in refs.values():
            if "shm" not in ref:
                continue
            handle = SharedMatrix.from_json(ref["shm"])
            if not self._registry.adopt_foreign(handle, refs=0):
                continue  # segment vanished (worker host died post-send)
            self._counts["shm_factors"] += 1
            if not live:
                self._registry.unlink(handle.name)
                continue
            for _ in live:
                self._registry.acquire(handle.name)
        for job in live:
            job.result.bind_registry(self._registry)

    def _finish_job(
        self,
        job: _Job,
        status: str,
        *,
        payload: dict | None = None,
        error: str = "",
        failure_class: str = "",
    ) -> None:
        job.result.status = status
        job.result.payload = dict(payload) if payload is not None else None
        job.result.error = error
        job.result.failure_class = failure_class
        job.result.finished_at = self._now()
        if status == DONE:
            self._counts["jobs_done"] += 1
        job.done.set()

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-safe snapshot of the scheduler's health."""
        counts = dict(self._counts)
        hits = self.cache.stats.hits if self.cache is not None else 0
        misses = self.cache.stats.misses if self.cache is not None else 0
        coalesced = counts.get("coalesced", 0)
        lookups = hits + misses
        return {
            "uptime_s": self._now(),
            "workers": self.workers,
            "max_queue": self.max_queue,
            "queued": self._queued,
            "running": self._running,
            "queue_depth": self.queue_depth,
            "counts": counts,
            "pool_rebuilds": self._pool.rebuilds,
            "data_plane": {
                "transport": self.transport,
                "shm_min_bytes": self.shm_min_bytes,
                "shm_available": shm_available(),
                "swept_at_start": self._swept_at_start,
                **self._registry.stats(),
            },
            "tier_tally": dict(self._tier_tally),
            "batch_lane": {
                "enabled": self.batch_max > 1,
                "batch_max": self.batch_max,
                "linger_ms": self.batch_linger_ms,
                "batches": self._batch_counts.get("batches", 0),
                "batched_jobs": self._batch_counts.get("batched_jobs", 0),
                "mean_occupancy": (
                    self._batch_counts["batched_jobs"] / self._batch_counts["batches"]
                    if self._batch_counts.get("batches")
                    else 0.0
                ),
                "ejections": self._batch_counts.get("ejections", 0),
                "singletons": self._batch_counts.get("singletons", 0),
                "requeued": self._batch_counts.get("requeued", 0),
                "batch_failures": self._batch_counts.get("batch_failures", 0),
                "staged": sum(len(b) for b in self._batch_buckets.values()),
            },
            "cache": self.cache.stats.to_json() if self.cache is not None else None,
            # share of lookups served without executing a driver: cache
            # hits plus duplicates coalesced onto an in-flight run
            "hit_rate": ((hits + coalesced) / lookups) if lookups else 0.0,
            "lanes": self._lane_depths(),
        }

    def _lane_depths(self) -> dict[str, dict[str, int]]:
        """Queued items per (lane, submitter), summed over both executors."""
        depths: dict[str, dict[str, int]] = {}
        for lane in LANES:
            for queues in self._queues.values():
                for sub, dq in queues.lanes[lane].items():
                    per_sub = depths.setdefault(lane, {})
                    per_sub[sub] = per_sub.get(sub, 0) + len(dq)
        return depths
