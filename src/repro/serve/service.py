"""`HessService` — the synchronous facade over the async scheduler.

The scheduler is asyncio-native; most callers (the CLI, benchmarks,
notebooks) are not. ``HessService`` owns a dedicated event-loop thread
and exposes plain blocking methods — ``submit`` / ``submit_batch`` /
``status`` / ``result`` / ``cancel`` / ``drain`` / ``stats`` — plus a
streamed progress-event iterator. It is the one object the CLI's
``serve``/``submit`` subcommands, the batch example, and the throughput
benchmark all construct.

    with HessService(workers=2, max_queue=32) as svc:
        sub = svc.submit(JobSpec(driver="ft_gehrd", n=96, seed=1))
        if sub.accepted:
            res = svc.result(sub.job_id, timeout=60)
        svc.drain()
        print(svc.stats()["hit_rate"])

Submission never blocks on a full queue: you get a ``Submission`` with
``accepted=False`` and a ``backpressure: ...`` reason and decide what
to do (the CLI's batch runner waits for capacity and resubmits).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable, Iterator

from repro.serve.cache import ResultCache
from repro.serve.jobs import JobResult, JobSpec
from repro.serve.retry import RetryPolicy
from repro.serve.scheduler import AsyncScheduler, Submission


class HessService:
    """Batch-reduction service: scheduler + cache + worker pool, one handle.

    Jobs run on two executors that do not wait on each other (see
    ``docs/serving.md``): the process pool, drained by two pool runners
    per worker (each worker holds one running and one waiting job), and
    the host, drained by one host runner (in-thread jobs and batches
    take turns on it). Priority lanes and round-robin fairness order the
    work of each executor separately.

    Parameters mirror the scheduler's: ``workers`` pool processes (the
    pool size), ``max_queue`` admission bound, ``cache_bytes`` LRU
    budget (``0`` disables caching), ``spill_dir`` optional on-disk
    spill, ``small_n_threshold`` routes jobs of order <= threshold to
    the host (in-thread), ``default_timeout`` bounds each attempt.
    ``transport`` picks the cross-process data plane (``"auto"`` /
    ``"shm"`` / ``"pickle"``; see ``docs/performance.md``) and
    ``shm_min_bytes`` tunes the auto threshold below which a pickle is
    cheaper than a segment. ``batch_max > 1`` turns on the batch
    coalescing lane: compatible small-n jobs staged within
    ``batch_linger_ms`` of each other run as one stacked
    :mod:`repro.batch` execution (see ``docs/serving.md``).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        max_queue: int = 64,
        cache_bytes: int = 32 * 1024 * 1024,
        spill_dir=None,
        retry: RetryPolicy | None = None,
        small_n_threshold: int = 0,
        default_timeout: float | None = None,
        transport: str = "auto",
        shm_min_bytes: int | None = None,
        batch_max: int = 0,
        batch_linger_ms: float = 5.0,
    ) -> None:
        self.cache = (
            ResultCache(cache_bytes, spill_dir=spill_dir) if cache_bytes > 0 else None
        )
        self._scheduler = AsyncScheduler(
            workers=workers,
            max_queue=max_queue,
            cache=self.cache,
            retry=retry,
            small_n_threshold=small_n_threshold,
            default_timeout=default_timeout,
            transport=transport,
            shm_min_bytes=shm_min_bytes,
            batch_max=batch_max,
            batch_linger_ms=batch_linger_ms,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="hess-serve-loop", daemon=True
        )
        self._thread.start()
        self._closed = False
        self._call(self._scheduler.start())

    # -- plumbing ------------------------------------------------------------

    def _call(self, coro, timeout: float | None = None):
        if self._closed:
            raise RuntimeError("HessService is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Submission:
        """Admit one job (never blocks; see :class:`Submission`)."""
        return self._call(self._scheduler.submit(spec))

    def submit_batch(self, specs: Iterable[JobSpec]) -> list[Submission]:
        """Admit many jobs in order, in one event-loop hop; each gets its
        own Submission.

        Every spec goes through :meth:`submit`'s admit, coalesce,
        cache-hit and reject rules, one after another inside one
        coroutine, so the batch-compatible specs of a wave all stage
        before any linger timer can fire. No job finishes while the hop
        runs, so a batch larger than the free queue capacity is refused
        (``backpressure:``) from that point on; :meth:`submit_wait` is
        the flow-controlled path.
        """
        return self._call(self._submit_all(list(specs)))

    async def _submit_all(self, specs: list[JobSpec]) -> list[Submission]:
        return [await self._scheduler.submit(spec) for spec in specs]

    def submit_wait(self, spec: JobSpec, *, poll: float = 0.02,
                    attempts: int = 10_000) -> Submission:
        """Submit, waiting out backpressure by polling for queue capacity.

        Client-side flow control for batch runners: invalid specs are
        still returned rejected immediately — only ``backpressure:``
        refusals are retried.
        """
        import time

        last = self.submit(spec)
        tries = 0
        while not last.accepted and last.reason.startswith("backpressure") and tries < attempts:
            time.sleep(poll)
            last = self.submit(spec)
            tries += 1
        return last

    # -- queries / control ---------------------------------------------------

    def status(self, job_id: int) -> str | None:
        return self._scheduler.status(job_id)

    def result(self, job_id: int, timeout: float | None = None) -> JobResult:
        """Block until the job is terminal; returns its JobResult."""
        return self._call(self._scheduler.wait_result(job_id, timeout))

    def peek(self, job_id: int) -> JobResult | None:
        """The job's current JobResult without waiting."""
        return self._scheduler.get_result(job_id)

    def cancel(self, job_id: int) -> bool:
        return self._call(self._scheduler.cancel(job_id))

    def drain(self, timeout: float | None = None) -> None:
        """Wait until every accepted job has reached a terminal state."""
        self._call(self._scheduler.drain(), timeout)

    def stats(self) -> dict:
        return self._scheduler.stats()

    # -- progress events -----------------------------------------------------

    def subscribe(self):
        """A thread-safe queue of progress-event dicts (from now on)."""
        return self._scheduler.subscribe()

    def events(self, q=None, *, poll: float = 0.1) -> Iterator[dict]:
        """Iterate progress events until the service stops emitting.

        Yields each event dict; returns after ``close()`` (the
        ``stopped`` event ends the stream).
        """
        import queue as _queue

        q = q if q is not None else self.subscribe()
        while True:
            try:
                event = q.get(timeout=poll)
            except _queue.Empty:
                if self._closed:
                    return
                continue
            yield event
            if event.get("event") == "stopped":
                return

    # -- lifecycle -----------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service (draining accepted work first by default)."""
        if self._closed:
            return
        if drain:
            self._call(self._scheduler.drain(), timeout)
        self._call(self._scheduler.stop(), timeout)
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if not self._loop.is_running():
            self._loop.close()

    def __enter__(self) -> "HessService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # on an exception, don't insist on draining a possibly-wedged queue
        self.close(drain=exc_type is None)
