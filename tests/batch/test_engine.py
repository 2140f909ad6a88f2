"""Tests for ``compile_many``: fan-out, caching, timeouts, failure capture."""

import json
import os
import sys
import threading
import time

import pytest

from repro.batch import (BatchJob, PersistentPool, compile_many,
                         default_workers, execute_job, jobs_for)
from repro.batch.cache import clear_caches
from repro.batch import pool as pool_module
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.resilience.faults import active_plan


def mixed_jobs(n_qubits=12, seeds=(0, 1)):
    """16 mixed jobs: 4 architectures x 2 methods x 2 seeds."""
    return [
        BatchJob(arch=arch, n_qubits=n_qubits, density=0.3, seed=seed,
                 method=method)
        for arch in ("line", "grid", "heavyhex", "sycamore")
        for method in ("hybrid", "greedy")
        for seed in seeds
    ]


class TestSerialEngine:
    def test_all_jobs_succeed_in_order(self):
        jobs = mixed_jobs()
        report = compile_many(jobs, executor="serial")
        assert len(report.results) == 16
        assert [r.job for r in report.results] == jobs
        assert not report.failures
        for result in report.results:
            assert result.record["depth"] > 0
            assert result.record["cx"] > 0

    def test_cache_counters_prove_reuse(self):
        clear_caches()
        report = compile_many(mixed_jobs(), executor="serial")
        totals = report.cache_totals()
        # 4 architectures appear 4x each: first build misses, rest hit.
        assert totals["distance_matrix"]["misses"] == 4
        assert totals["distance_matrix"]["hits"] == 12
        assert totals["pattern"]["hits"] > 0

    def test_failing_job_is_captured_not_fatal(self):
        jobs = mixed_jobs()[:3] + [BatchJob(arch="mumbai", n_qubits=100)]
        report = compile_many(jobs, executor="serial")
        assert len(report.ok) == 3
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_type == "ArchitectureError"
        assert "mumbai" in failure.error

    def test_stage_totals_aggregate_timings(self):
        report = compile_many(mixed_jobs()[:4], executor="serial")
        totals = report.stage_totals()
        assert "greedy" in totals
        assert totals["greedy"] >= 0.0

    def test_report_json_round_trips(self):
        jobs = mixed_jobs()[:2] + [BatchJob(arch="mumbai", n_qubits=100)]
        report = compile_many(jobs, executor="serial")
        payload = json.loads(json.dumps(report.to_json()))
        assert len(payload["jobs"]) == 3
        assert payload["jobs"][2]["ok"] is False
        assert "cache_totals" in payload


class TestProcessPool:
    def test_matches_serial_results(self):
        jobs = mixed_jobs()
        serial = compile_many(jobs, executor="serial")
        parallel = compile_many(jobs, workers=4, executor="process")
        assert not parallel.failures
        for s, p in zip(serial.results, parallel.results):
            assert s.job == p.job
            assert s.record["depth"] == p.record["depth"]
            assert s.record["cx"] == p.record["cx"]

    def test_failure_captured_across_processes(self):
        jobs = mixed_jobs()[:4] + [BatchJob(arch="mumbai", n_qubits=100)]
        report = compile_many(jobs, workers=2, executor="process")
        assert len(report.ok) == 4
        assert report.failures[0].error_type == "ArchitectureError"

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup needs >= 4 CPU cores")
    def test_four_workers_at_least_twice_as_fast(self):
        # The ISSUE 1 acceptance criterion: >= 16 mixed instances, 4
        # workers, >= 2x wall-clock over the serial loop.
        jobs = mixed_jobs(n_qubits=32, seeds=(0, 1))
        clear_caches()
        t0 = time.perf_counter()
        compile_many(jobs, executor="serial")
        serial_s = time.perf_counter() - t0
        clear_caches()
        t0 = time.perf_counter()
        report = compile_many(jobs, workers=4, executor="process")
        parallel_s = time.perf_counter() - t0
        assert not report.failures
        assert serial_s / parallel_s >= 2.0


def overrunning_job(seed=0):
    """A hybrid compile that runs for seconds: far past a 0.2 s budget."""
    return BatchJob(arch="heavyhex", n_qubits=200, density=0.3, seed=seed)


def run_on_path(path, jobs, timeout_s):
    """Run ``jobs`` through one of the engine's execution paths."""
    if path == "serial-main":
        return [execute_job(job, timeout_s=timeout_s) for job in jobs]
    if path == "serial-thread":
        out = []
        worker = threading.Thread(target=lambda: out.extend(
            execute_job(job, timeout_s=timeout_s) for job in jobs))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return out
    kind, executor = path.split("-")
    if kind == "many":
        return compile_many(jobs, workers=2, timeout_s=timeout_s,
                            executor=executor).results
    with PersistentPool(workers=2, executor=executor,
                        timeout_s=timeout_s) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result() for future in futures]


class TestTimeout:
    def test_timeout_surfaces_as_job_failure(self):
        # A 48-qubit hybrid compile takes far longer than 1 ms.
        job = BatchJob(arch="heavyhex", n_qubits=48, density=0.5)
        result = execute_job(job, timeout_s=0.001)
        assert not result.ok
        assert result.error_type == "JobTimeoutError"

    def test_generous_timeout_does_not_fire(self):
        job = BatchJob(arch="line", n_qubits=6)
        result = execute_job(job, timeout_s=60.0)
        assert result.ok

    @pytest.mark.parametrize("path", [
        "serial-main", "serial-thread", "many-thread", "many-process",
        "pool-thread", "pool-process"])
    def test_deadline_stops_the_job_on_every_path(self, path):
        results = run_on_path(path, [overrunning_job(0), overrunning_job(1)],
                              timeout_s=0.2)
        assert [r.error_type for r in results] == ["JobTimeoutError"] * 2
        assert all(r.wall_time_s < 1.0 for r in results)

    def test_each_retry_attempt_gets_the_full_budget(self):
        # A sleep fault overruns the first attempt only; the retry opens
        # a fresh budget and completes.
        plan = FaultPlan([FaultSpec(site="batch.job", action="sleep",
                                    seconds=0.3)])
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                             retry_timeouts=True)
        with active_plan(plan):
            result = execute_job(BatchJob(arch="line", n_qubits=6),
                                 timeout_s=0.2, retry=policy)
        assert result.ok
        assert result.attempts[0]["error_type"] == "JobTimeoutError"

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="needs fork-based process pools")
    def test_backstop_kills_a_worker_stuck_past_its_deadline(
            self, monkeypatch):
        # Forked workers inherit the shortened grace.
        monkeypatch.setattr(pool_module, "BACKSTOP_GRACE_S", 0.5)
        jobs = [BatchJob(arch="line", n_qubits=6, seed=seed)
                for seed in range(3)]
        stuck = jobs[1].name
        # The sleep reaches no deadline check before the backstop fires;
        # it refires in each fresh worker, so the stuck job converges to
        # a failure while its peers complete.
        sleep_s = 10.0
        plan = FaultPlan([FaultSpec(site="batch.job", action="sleep",
                                    match=stuck, times=99,
                                    seconds=sleep_s)])
        start = time.perf_counter()
        with active_plan(plan):
            report = compile_many(jobs, workers=2, timeout_s=0.1,
                                  max_pool_restarts=1)
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.results[1].error_type == "BrokenProcessPool"
        assert report.pool_restarts == 1
        # Both rounds were cut short by the backstop, not by the sleep.
        assert time.perf_counter() - start < sleep_s

    def test_enforced_timeout_emits_no_degradation_note(self):
        job = BatchJob(arch="line", n_qubits=4)
        for executor in ("serial", "thread"):
            report = compile_many([job, job], workers=2, timeout_s=60.0,
                                  executor=executor)
            assert "NOT enforced" not in report.summary()
            assert "timeout_enforced" not in report.to_json()


class TestHelpers:
    def test_jobs_for_cartesian_product(self):
        jobs = jobs_for(["grid", "line"], 9, methods=("hybrid", "ata"),
                        seeds=(0, 1, 2))
        assert len(jobs) == 2 * 2 * 3
        assert len({job.name for job in jobs}) == len(jobs)

    def test_default_workers_bounded(self):
        assert default_workers(0) == 1
        assert 1 <= default_workers(100) <= (os.cpu_count() or 1)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            compile_many([], executor="gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            compile_many([BatchJob(arch="line", n_qubits=4)], workers=-1)
