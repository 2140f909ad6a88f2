"""A warm, persistent worker pool for long-lived serving.

A pool built per call is the right shape for one-shot sweeps but
exactly wrong for a daemon: every call pays pool spin-up, and the
process-local memo caches (distance matrices in
:mod:`repro.arch.coupling`, ATA patterns in :mod:`repro.ata.registry`)
die with the workers.  A :class:`PersistentPool` is created once and
kept hot: workers survive across requests, so their caches keep
amortizing, and a broken pool (worker OOM/segfault/injected kill) is
rebuilt in place without losing the daemon.

Jobs run through the same :func:`~repro.batch.engine.execute_job` entry
point on every executor — per-job cooperative deadlines
(:mod:`repro._deadline`), retry policies and structured failure capture
all behave identically.  ``compile_many`` runs its pooled sweeps on this
class too.

Process workers add a hard backstop: a job still running
:data:`BACKSTOP_GRACE_S` past its deadline is stuck outside the checked
loops, so its worker exits, breaking the pool like any worker death; the
caller's restart path takes over.  The kill timer lives only in workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from typing import Dict, Optional

from .._telemetry import count_event
from ..exceptions import SpecificationError
from ..resilience.retry import RetryPolicy
from .engine import execute_job
from .jobs import BatchJob, JobResult

#: Seconds a process worker may run past its job's deadline before the
#: backstop kills it.  The longest stretch between two deadline checks
#: measured on 400-qubit hybrid compiles is about 2 s (distance-matrix
#: construction before the placement search), so only a job stuck
#: outside the checked loops ever reaches this.
BACKSTOP_GRACE_S = 30.0

#: Exit status of a worker killed by the backstop.
BACKSTOP_EXIT_CODE = 124

#: Executors a persistent pool supports.  ``"serial"`` is deliberately
#: absent: a daemon must never compile on its event-loop thread, so the
#: closest equivalent is ``"thread"`` with one worker.
POOL_EXECUTORS = ("process", "thread")

__all__ = ["POOL_EXECUTORS", "PersistentPool"]


def _execute_with_backstop(job: BatchJob, timeout_s: Optional[float],
                           retry: Optional[RetryPolicy]) -> JobResult:
    """Process-worker entry: :func:`execute_job` under a kill timer.

    The timer allows every attempt its full budget plus the retry
    backoffs in between, then :data:`BACKSTOP_GRACE_S`.
    """
    if not timeout_s:
        return execute_job(job, timeout_s, retry)
    attempts = retry.max_attempts if retry is not None else 1
    budget = attempts * timeout_s + BACKSTOP_GRACE_S
    if retry is not None:
        budget += sum(retry.delay_s(n, job.name) for n in range(1, attempts))
    timer = threading.Timer(budget, os._exit, (BACKSTOP_EXIT_CODE,))
    timer.daemon = True
    timer.start()
    try:
        return execute_job(job, timeout_s, retry)
    finally:
        timer.cancel()


def default_pool_workers() -> int:
    """Pool size when unspecified: every core, floor one."""
    return os.cpu_count() or 1


class PersistentPool:
    """A restartable, warm worker pool with submission telemetry.

    Thread-safe: :meth:`submit`, :meth:`restart` and :meth:`close` may
    race (the serve daemon submits from its event loop while a restart
    recovers from worker death).  Restarting abandons the broken
    executor — its futures have already failed with ``BrokenExecutor``
    and the *caller* decides which jobs to resubmit, mirroring the batch
    engine's resubmission rounds.
    """

    def __init__(self, workers: Optional[int] = None,
                 executor: str = "process",
                 timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        if executor not in POOL_EXECUTORS:
            raise SpecificationError(
                f"unknown pool executor {executor!r}; expected one of "
                f"{POOL_EXECUTORS}")
        if workers is None:
            workers = default_pool_workers()
        if workers < 1:
            raise SpecificationError(
                f"workers must be >= 1 (got {workers})")
        self.workers = workers
        self.executor = executor
        self.timeout_s = timeout_s
        self.retry = retry
        self._lock = threading.Lock()
        self._pool: Optional[Executor] = self._build()
        #: Jobs handed to a worker (store hits never count here).
        self.submitted = 0
        #: Pool rebuilds after breakage.
        self.restarts = 0

    def _build(self) -> Executor:
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=self.workers)

    def submit(self, job: BatchJob) -> "Future[JobResult]":
        """Dispatch one job to a warm worker; returns its future.

        The future resolves to a :class:`JobResult` (never raises for
        job failures — those are structured records); it raises
        ``BrokenExecutor`` if the worker died, after which
        :meth:`restart` rebuilds the pool.
        """
        with self._lock:
            if self._pool is None:
                raise SpecificationError(
                    "pool is closed; build a new PersistentPool")
            self.submitted += 1
            count_event("batch.pool_submitted")
            entry = (_execute_with_backstop if self.executor == "process"
                     else execute_job)
            return self._pool.submit(entry, job, self.timeout_s, self.retry)

    def restart(self) -> None:
        """Replace a broken executor with a fresh, cold one.

        Cheap to call redundantly: concurrent callers that both saw the
        same breakage serialize here and the second rebuild just warms
        a new pool.  No-op on a closed pool.
        """
        with self._lock:
            if self._pool is None:
                return
            old = self._pool
            self._pool = self._build()
            self.restarts += 1
            count_event("batch.pool_restarts")
        old.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the workers down; idempotent."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    @property
    def closed(self) -> bool:
        return self._pool is None

    def stats(self) -> Dict[str, object]:
        """Plain-data pool telemetry for the serve stats endpoint."""
        return {
            "workers": self.workers,
            "executor": self.executor,
            "submitted": self.submitted,
            "restarts": self.restarts,
            "timeout_s": self.timeout_s,
            "closed": self.closed,
        }

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"PersistentPool(workers={self.workers}, "
                f"executor={self.executor!r}, "
                f"submitted={self.submitted}, restarts={self.restarts})")
