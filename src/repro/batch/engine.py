"""The batch compilation engine: ``compile_many`` over a worker pool.

Design (fan-out hardened by the :mod:`repro.resilience` layer):

* **Fan-out** — jobs are picklable :class:`BatchJob` specs; workers
  rebuild each instance locally, so the process-local distance-matrix and
  pattern caches (see :mod:`repro._telemetry`) warm up once per worker and
  amortize across every job that worker handles.  With the default
  ``fork`` start method the workers additionally inherit any cache
  entries the parent already holds.
* **Per-job timeout** — a cooperative, thread-scoped deadline
  (:mod:`repro._deadline`) polled by the compiler's long loops, so an
  overrunning instance turns into an ``ok=False`` record on every
  executor and thread instead of wedging a pool slot or killing the
  batch.
* **Graceful failure capture** — any exception in a job (bad spec,
  compilation error, validation failure, timeout) becomes a structured
  :class:`JobResult` with the exception type and message; the remaining
  jobs are unaffected.
* **Retry with backoff** — pass ``retry=RetryPolicy(...)`` and each
  job's transient failures (:class:`~repro.exceptions.TransientError`)
  are re-attempted in-worker with exponential backoff + deterministic
  jitter; the per-attempt records surface in ``JobResult.attempts``.
* **Worker-death recovery** — a killed worker (OOM, segfault, injected
  ``kill`` fault, the deadline backstop of :mod:`repro.batch.pool`)
  breaks its whole :class:`~repro.batch.pool.PersistentPool`; the engine
  restarts the pool up to ``max_pool_restarts`` times and resubmits only
  the unfinished jobs, so one dead worker never poisons the rest of the
  sweep (``batch.pool_restarts`` telemetry + ``BatchReport.pool_restarts``).
* **Crash-safe journal** — ``journal="sweep.jsonl"`` durably appends each
  finished result (:mod:`repro.resilience.journal`); re-running with
  ``resume=True`` skips completed jobs and reproduces the uninterrupted
  report.

``compile_many`` returns a :class:`BatchReport` that preserves job order,
aggregates cache hit/miss counters and stage timings, and renders a table
via :func:`repro.analysis.format_table`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Union)

from .._deadline import deadline
from .._telemetry import count_event, measure_cache_delta
from ..exceptions import SpecificationError
from ..resilience.faults import fault_point, faults_active
from ..resilience.retry import RetryOutcome, RetryPolicy, execute_with_retry
from .jobs import BatchJob, JobResult

EXECUTORS = ("process", "thread", "serial")

#: Diagnostics embedded per job result (counts stay exact; the payload
#: crosses a process boundary, so the op-level list is capped).
MAX_LINT_DIAGNOSTICS_PER_JOB = 25

#: Pool rebuilds tolerated per ``compile_many`` call before the still-
#: unfinished jobs are marked failed (a poison job that kills its worker
#: every time converges in ``max_pool_restarts + 1`` rounds).
DEFAULT_MAX_POOL_RESTARTS = 2

def _run_job(job: BatchJob, timeout_s: Optional[float],
             scratch: Dict) -> Dict:
    """One compilation attempt; raises on failure, returns the record.

    ``scratch`` carries per-attempt side artefacts (the lint payload)
    out of the attempt even when a later step — validation — fails it.
    """
    scratch.clear()
    # ``timeout_s=0``, like ``None``, means no budget.
    with deadline(timeout_s or None):
        fault_point("batch.job", job.name)
        from .jobs import resolve_compiler

        coupling, problem, noise = job.build()
        compiler = resolve_compiler(job.method)
        options = dict(job.options)
        options.setdefault("layers", job.layers)
        options.setdefault("mixer", job.mixer)
        result = compiler(coupling, problem, noise=noise,
                          gamma=job.gamma, **options)
        if job.lint:
            # Lint before validating: the linter collects *all*
            # findings, so its report must survive even when the
            # fail-fast validator rejects the circuit next.
            from ..lint import lint_result, render_json

            scratch["lint"] = render_json(
                lint_result(result, coupling, problem),
                max_diagnostics=MAX_LINT_DIAGNOSTICS_PER_JOB)
        if job.validate:
            result.validate(coupling, problem)
        return result.to_record()


def execute_job(job: BatchJob, timeout_s: Optional[float] = None,
                retry: Optional[RetryPolicy] = None) -> JobResult:
    """Run one job to a :class:`JobResult`; never raises.

    This is the worker entry point of every pool
    (:mod:`repro.batch.pool`) and of the serial path.  The compiler is
    resolved by name through the single method registry
    (:mod:`repro.pipeline.registry`), so any registered method — paper
    preset or baseline — batch-compiles without engine changes.  The
    per-job cache delta is measured around the whole job — including
    coupling/problem construction — so methods whose passes touch no
    cache still report cache reuse.

    With a ``retry`` policy, transient failures re-attempt in-worker
    (each attempt re-arms the full per-job deadline); the per-attempt
    records land in :attr:`JobResult.attempts`.  Without one, a single
    attempt runs with zero retry-machinery overhead.

    The cache delta is measured with a thread-scoped
    :class:`~repro._telemetry.CacheDeltaScope`, not global-counter
    snapshots, so concurrent jobs in one process (thread executor, the
    serve daemon) each see exactly their own hits and misses.
    """
    start = time.perf_counter()
    scratch: Dict = {}
    with measure_cache_delta() as scope:
        if retry is None:
            try:
                outcome = RetryOutcome(
                    ok=True, value=_run_job(job, timeout_s, scratch))
            except Exception as exc:  # job failure, not batch abort
                outcome = RetryOutcome(ok=False, error=exc)
        else:
            outcome = execute_with_retry(
                lambda: _run_job(job, timeout_s, scratch), retry,
                key=job.name)
    error = outcome.error
    return JobResult(
        job=job, ok=outcome.ok, wall_time_s=time.perf_counter() - start,
        record=outcome.value if outcome.ok else {}, cache=scope.delta(),
        error=None if error is None else str(error),
        error_type=None if error is None else type(error).__name__,
        lint=scratch.get("lint"), attempts=outcome.attempts)


@dataclass
class BatchReport:
    """Everything ``compile_many`` learned, in job order."""

    #: Bumped whenever :meth:`to_json` changes shape.  2 added
    #: ``schema_version`` itself plus the resilience aggregates
    #: (``pool_restarts``, ``resumed_jobs``, ``retry_totals``,
    #: ``degraded_jobs``, per-job ``attempts``); 3 dropped
    #: ``timeout_enforced`` (the deadline now holds on every executor).
    SCHEMA_VERSION = 3

    results: List[JobResult]
    wall_time_s: float
    workers: int
    executor: str
    timeout_s: Optional[float] = None
    #: Times the worker pool was rebuilt after breaking (dead workers).
    pool_restarts: int = 0
    #: Jobs whose results were recovered from a resume journal instead
    #: of being recompiled.
    resumed_jobs: int = 0

    @property
    def ok(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def cache_totals(self) -> Dict[str, Dict[str, int]]:
        """Summed per-job cache deltas: proof of cross-job memoization."""
        totals: Dict[str, Dict[str, int]] = {}
        for result in self.results:
            for name, delta in result.cache.items():
                bucket = totals.setdefault(name, {"hits": 0, "misses": 0})
                bucket["hits"] += delta.get("hits", 0)
                bucket["misses"] += delta.get("misses", 0)
        return totals

    def lint_totals(self) -> Dict[str, Dict[str, int]]:
        """Aggregated lint findings across every linted job.

        ``{"counts": {severity: n}, "by_rule": {code: n}}``; empty dicts
        when no job ran with ``lint=True``.
        """
        counts: Dict[str, int] = {}
        by_rule: Dict[str, int] = {}
        for result in self.results:
            if not result.lint:
                continue
            for severity, n in result.lint.get("counts", {}).items():
                counts[severity] = counts.get(severity, 0) + n
            for code, n in result.lint.get("by_rule", {}).items():
                by_rule[code] = by_rule.get(code, 0) + n
        return {"counts": dict(sorted(counts.items())),
                "by_rule": dict(sorted(by_rule.items()))}

    @property
    def lint_errors(self) -> int:
        """Total error-severity diagnostics across all linted jobs."""
        return self.lint_totals()["counts"].get("error", 0)

    def retry_totals(self) -> Dict[str, int]:
        """Aggregated retry activity across all jobs.

        ``retries`` — backoff-then-retry transitions taken;
        ``retried_jobs`` — jobs that needed more than one attempt;
        ``recovered_jobs`` — of those, the ones that ended ``ok``.
        """
        retried = [r for r in self.results if r.attempts]
        return {
            "retries": sum(r.retries for r in self.results),
            "retried_jobs": len(retried),
            "recovered_jobs": sum(1 for r in retried if r.ok),
        }

    @property
    def degraded_jobs(self) -> int:
        """Jobs whose compiler fell back to a cheaper method mid-run."""
        return sum(1 for r in self.results if r.degraded)

    def stage_totals(self) -> Dict[str, float]:
        """Summed per-stage compile seconds across successful jobs."""
        totals: Dict[str, float] = {}
        for result in self.ok:
            for stage, seconds in result.telemetry.get("timings",
                                                       {}).items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def compile_time_s(self) -> float:
        """Summed in-worker job seconds (the serial-equivalent cost)."""
        return sum(r.wall_time_s for r in self.results)

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for r in self.results:
            if r.ok:
                out.append([r.job.name, "ok", r.record.get("depth"),
                            r.record.get("cx"), r.record.get("swaps"),
                            round(r.wall_time_s, 3)])
            else:
                out.append([r.job.name, f"FAILED ({r.error_type})",
                            "-", "-", "-", round(r.wall_time_s, 3)])
        return out

    def summary(self) -> str:
        lines = [
            f"{len(self.ok)}/{len(self.results)} jobs ok, "
            f"{len(self.failures)} failed; wall {self.wall_time_s:.2f}s "
            f"({self.compile_time_s():.2f}s of work, {self.workers} "
            f"{self.executor} worker(s))"]
        for name, totals in sorted(self.cache_totals().items()):
            lines.append(f"cache {name}: {totals['hits']} hits / "
                         f"{totals['misses']} misses")
        if any(r.lint for r in self.results):
            totals = self.lint_totals()
            rules = ", ".join(f"{code}x{n}"
                              for code, n in totals["by_rule"].items())
            lines.append(
                f"lint: {totals['counts'].get('error', 0)} error(s), "
                f"{totals['counts'].get('warning', 0)} warning(s)"
                + (f" [{rules}]" if rules else ""))
        retry = self.retry_totals()
        if retry["retries"]:
            lines.append(
                f"retries: {retry['retries']} across "
                f"{retry['retried_jobs']} job(s), "
                f"{retry['recovered_jobs']} recovered")
        if self.pool_restarts:
            lines.append(
                f"note: the worker pool was restarted "
                f"{self.pool_restarts} time(s) after worker death")
        if self.resumed_jobs:
            lines.append(
                f"resumed: {self.resumed_jobs} job(s) recovered from "
                f"the journal, {len(self.results) - self.resumed_jobs} "
                f"compiled this run")
        if self.degraded_jobs:
            lines.append(
                f"degraded: {self.degraded_jobs} job(s) fell back to a "
                f"cheaper method (see extra['degraded'])")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        """JSON-serializable dump (specs, records, errors, aggregates)."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "wall_time_s": self.wall_time_s,
            "workers": self.workers,
            "executor": self.executor,
            "timeout_s": self.timeout_s,
            "pool_restarts": self.pool_restarts,
            "resumed_jobs": self.resumed_jobs,
            "cache_totals": self.cache_totals(),
            "stage_totals": self.stage_totals(),
            "lint_totals": self.lint_totals(),
            "retry_totals": self.retry_totals(),
            "degraded_jobs": self.degraded_jobs,
            "jobs": [
                {
                    "name": r.job.name,
                    "spec": {
                        "arch": r.job.arch, "n_qubits": r.job.n_qubits,
                        "workload": r.job.workload,
                        "density": r.job.density, "seed": r.job.seed,
                        "method": r.job.method, "layers": r.job.layers,
                        "mixer": r.job.mixer,
                    },
                    "ok": r.ok,
                    "wall_time_s": r.wall_time_s,
                    "record": r.record,
                    "cache": r.cache,
                    "lint": r.lint,
                    "error": r.error,
                    "error_type": r.error_type,
                    "attempts": r.attempts,
                }
                for r in self.results
            ],
        }


def default_workers(n_jobs: int) -> int:
    """Pool size: one worker per job up to the machine's CPU count."""
    return max(1, min(n_jobs, os.cpu_count() or 1))


def compile_many(
    jobs: Iterable[BatchJob],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    executor: str = "process",
    retry: Optional[RetryPolicy] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
) -> BatchReport:
    """Compile every job, fanning out over a worker pool.

    Parameters
    ----------
    jobs:
        Picklable :class:`BatchJob` specs; results preserve this order.
    workers:
        Pool size (default: one per job, capped at CPU count).  ``0`` or
        ``1`` degrades to the in-process serial path.
    timeout_s:
        Per-job wall-clock budget, a cooperative deadline polled by the
        compiler on every executor; an overrun becomes an ``ok=False``
        ``JobTimeoutError`` record.
    executor:
        ``"process"`` (default), ``"thread"`` (GIL-bound — mostly for
        debugging), or ``"serial"``.
    retry:
        Optional :class:`~repro.resilience.retry.RetryPolicy`; transient
        job failures re-attempt in-worker with backoff.  ``None`` (the
        default) keeps the historic single-attempt behavior.
    journal:
        Path of a crash-safe JSONL journal; every finished job is
        durably appended (:mod:`repro.resilience.journal`).
    resume:
        With ``journal``, load completed results from an existing
        compatible journal and only compile the remainder.  The resumed
        report's per-job records equal an uninterrupted run's.
    max_pool_restarts:
        Pool rebuilds tolerated after worker death before the still-
        unfinished jobs are recorded as failures.
    """
    if executor not in EXECUTORS:
        raise SpecificationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    job_list = list(jobs)
    if workers is None:
        workers = default_workers(len(job_list))
    if workers < 0:
        raise SpecificationError(f"workers must be >= 0 (got {workers})")
    if max_pool_restarts < 0:
        raise SpecificationError(
            f"max_pool_restarts must be >= 0 (got {max_pool_restarts})")
    # A malformed REPRO_FAULT_PLAN must abort the sweep here, not surface
    # later as per-job failures inside workers.
    faults_active()
    start = time.perf_counter()

    results: List[Optional[JobResult]] = [None] * len(job_list)
    journal_obj = None
    if journal is not None:
        from ..resilience.journal import BatchJournal

        journal_obj = BatchJournal(journal, job_list, resume=resume)
        for index, recovered in sorted(journal_obj.completed.items()):
            results[index] = recovered
    resumed_jobs = sum(1 for r in results if r is not None)
    pending = [index for index, r in enumerate(results) if r is None]

    def finish(index: int, result: JobResult) -> None:
        results[index] = result
        if journal_obj is not None:
            journal_obj.record(index, result)
        fault_point("batch.collect", job_list[index].name)

    if executor == "serial" or workers <= 1 or len(pending) <= 1:
        executor, workers = "serial", 1
    pool_restarts = 0
    try:
        if executor == "serial":
            for index in pending:
                finish(index, execute_job(job_list[index], timeout_s,
                                          retry))
        else:
            pool_restarts = _run_pooled(
                executor, workers, job_list, pending, timeout_s, retry,
                finish, max_pool_restarts)
    finally:
        if journal_obj is not None:
            journal_obj.close()
    return BatchReport(_completed(results), time.perf_counter() - start,
                       workers=workers, executor=executor,
                       timeout_s=timeout_s, pool_restarts=pool_restarts,
                       resumed_jobs=resumed_jobs)


def _completed(results: List[Optional[JobResult]]) -> List[JobResult]:
    """Narrow the slot list once every index has been finished."""
    done = [r for r in results if r is not None]
    assert len(done) == len(results), "unfinished job slot in results"
    return done


def _run_pooled(executor: str, workers: int, job_list: List[BatchJob],
                pending: List[int], timeout_s: Optional[float],
                retry: Optional[RetryPolicy],
                finish: Callable[[int, JobResult], None],
                max_pool_restarts: int) -> int:
    """Fan ``pending`` out over fresh pools, rebuilding on breakage.

    A worker killed mid-job (OOM, segfault, injected fault, deadline
    backstop) breaks the pool: its own job *and* every in-flight or
    not-yet-started future raise ``BrokenExecutor``.  Completed jobs are
    never recompiled; the broken ones are resubmitted — each in its
    **own** single-worker pool, so an innocent job that merely shared the
    first pool with a worker-killing poison job always recovers, and only
    the job that keeps killing its (now private) worker converges to a
    structured failure once the restart budget is spent.  Returns the
    number of resubmission rounds taken (``batch.pool_restarts``).
    """
    from .pool import PersistentPool  # pool.py imports this module

    def run_round(indices: List[int], size: int,
                  broken: List[int]) -> None:
        with PersistentPool(size, executor, timeout_s, retry) as pool:
            futures: Dict[Future[JobResult], int] = {
                pool.submit(job_list[index]): index for index in indices}
            for future, index in futures.items():
                try:
                    finish(index, future.result())
                except BrokenExecutor as exc:
                    broken.append(index)
                    errors[index] = exc
                except Exception as exc:  # non-breakage pool failure
                    finish(index, JobResult(
                        job=job_list[index], ok=False,
                        error=str(exc), error_type=type(exc).__name__))

    errors: Dict[int, BaseException] = {}
    restarts = 0
    while pending:
        broken: List[int] = []
        if restarts == 0:
            run_round(pending, workers, broken)
        else:
            # Retry rounds quarantine each broken job: a poison job can
            # then only break its private pool, never its peers.
            for index in pending:
                run_round([index], 1, broken)
        if not broken:
            break
        if restarts >= max_pool_restarts:
            for index in broken:
                finish(index, JobResult(
                    job=job_list[index], ok=False,
                    error=(f"worker died and the pool-restart budget "
                           f"({max_pool_restarts}) is spent: "
                           f"{errors[index]}"),
                    error_type=type(errors[index]).__name__))
            break
        restarts += 1
        count_event("batch.pool_restarts")
        pending = broken
    return restarts


def jobs_for(
    archs: Sequence[str],
    n_qubits: int,
    methods: Sequence[str] = ("hybrid",),
    workloads: Sequence[str] = ("rand",),
    density: float = 0.3,
    seeds: Sequence[int] = (0,),
    **job_kwargs: Any,
) -> List[BatchJob]:
    """The cartesian product helper behind ``python -m repro batch``."""
    return [
        BatchJob(arch=arch, n_qubits=n_qubits, workload=workload,
                 density=density, seed=seed, method=method, **job_kwargs)
        for arch in archs
        for workload in workloads
        for method in methods
        for seed in seeds
    ]
