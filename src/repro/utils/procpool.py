"""Crash-tolerant process-pool lifecycle, shared by the campaign
executor and the serving layer.

A ``ProcessPoolExecutor`` that loses a worker (segfault, OOM kill,
``os._exit``) marks itself broken forever: every outstanding and future
submission raises :class:`~concurrent.futures.BrokenExecutor`.  Both the
fault-campaign executor (:mod:`repro.faults.executor`) and the batch
service scheduler (:mod:`repro.serve.scheduler`) need the same
response — throw the broken pool away, build an identical one, and keep
serving — so the lifecycle lives here once.

:class:`ResilientProcessPool` owns the executor-factory parameters
(worker count, initializer, initargs), creates the pool lazily on first
``submit``, and exposes ``rebuild()`` as the one-line recovery step.
What to *do* about the work that was in flight when the pool broke is
policy, not lifecycle, and stays with the caller (the campaign retries
the lost chunk once; the scheduler re-queues the job through its retry
policy).

The pool can also own a shared-memory
:class:`~repro.utils.shm.SegmentRegistry` — the zero-copy data plane's
segment ledger. Tying it to the pool puts segment hygiene on the same
lifecycle as the processes that map the segments: ``rebuild()`` sweeps
dead-worker orphans (a crashed worker's undelivered result segments),
``shutdown()`` unlinks everything the owner still holds.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.utils.shm import SegmentRegistry


#: how long a rebuild or shutdown waits for each killed worker to be reaped
_STOP_JOIN_S = 1.0


def _warm_noop() -> None:
    """Picklable no-op: the fallback worker-spawn barrier in ``warm``."""


class ResilientProcessPool:
    """A rebuildable :class:`ProcessPoolExecutor` wrapper.

    The pool is created lazily (so constructing the wrapper is free) and
    recreated from the same factory parameters by :meth:`rebuild`.
    ``rebuilds`` counts how many times the pool had to be replaced —
    surfaced in campaign results and service stats as a health signal.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        registry: "SegmentRegistry | None" = None,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self._initializer = initializer
        self._initargs = initargs
        self.registry = registry
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self.rebuilds = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    def warm(self) -> None:
        """Fork every worker process now, while the caller knows the
        process is quiet.

        ``ProcessPoolExecutor`` forks workers lazily on first submit.
        Under a threaded caller (the serve scheduler's batch lane runs
        jobs on executor threads) that first fork can happen while
        another thread holds a lock — the child inherits the locked
        mutex and wedges forever. Forcing all forks at a known-quiet
        moment (service startup, right after a rebuild) closes the race.
        """
        pool = self.pool
        try:
            # under fork this launches every worker process up front, and
            # in all cases it starts the manager thread that shutdown()
            # needs to signal the workers to exit (spawning processes
            # without it leaves them blocked on the call queue forever)
            with pool._shutdown_lock:
                pool._start_executor_manager_thread()
        except AttributeError:  # executor internals moved: best effort
            for fut in [pool.submit(_warm_noop) for _ in range(self.max_workers)]:
                fut.result()

    @property
    def generation(self) -> int:
        """Monotonic pool-instance id; bumped by every :meth:`rebuild`.

        Capture it before ``submit`` and pass it back to ``rebuild`` so
        two callers observing failures from the *same* dead pool don't
        rebuild twice — the second teardown would sweep away the fresh
        pool the first caller's retry already resubmitted into.
        """
        return self._generation

    def rebuild(self, generation: int | None = None) -> None:
        """Discard the (presumed broken) pool; the next submit gets a
        fresh one with fresh worker processes.

        With ``generation`` given, the rebuild is a no-op unless that
        pool instance is still the live one (stale-failure dedup). The
        old pool's workers are killed and reaped before the registry
        sweep: a wedged worker (a timed-out job) would otherwise keep
        running next to the new pool, hold the interpreter's exit, and
        keep its result segments from the sweep. Every call still on
        the old pool fails with ``BrokenProcessPool``.
        """
        if generation is not None and generation != self._generation:
            return
        if self._pool is not None:
            self._stop()
            self._generation += 1
            self.rebuilds += 1
            if self.registry is not None:
                # dead workers may have created result segments whose
                # handles never arrived; their pids are gone, so the
                # sweep can tell those orphans from everything live
                self.registry.sweep()

    def shutdown(self, *, wait: bool = False, stop_workers: bool = False) -> None:
        """Close the pool and unlink every segment the owner holds; with
        ``stop_workers``, calls still running are killed, not waited out."""
        if self._pool is not None:
            if stop_workers:
                self._stop()
            else:
                self._pool.shutdown(wait=wait, cancel_futures=True)
                self._pool = None
        if self.registry is not None:
            self.registry.unlink_all()
            self.registry.sweep()

    def _stop(self) -> None:
        """Close the pool, then kill and reap its workers."""
        workers = list((getattr(self._pool, "_processes", None) or {}).values())
        # wait=False: a broken pool cannot be joined, and a killed one
        # need not be; cancel_futures drops every call no worker has taken
        self._pool.shutdown(wait=False, cancel_futures=True)
        for proc in workers:
            proc.kill()
        for proc in workers:
            proc.join(timeout=_STOP_JOIN_S)
        self._pool = None

    # -- submission ---------------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        return self.pool.submit(fn, *args, **kwargs)

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "ResilientProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
