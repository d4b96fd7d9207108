"""Tests for the multiprocess batch scheduler.

Covers the ISSUE-2 checklist: determinism across worker counts, store
integration (second run served from cache), the timeout/cancellation path,
and entailment-engine state isolation across worker processes.
"""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.bench.registry import select_benchmarks
from repro.logic.entailment import get_engine
from repro.service import scheduler as scheduler_module
from repro.service.jobs import AnalysisJob, JobResult, job_from_benchmark
from repro.service.scheduler import (SchedulerConfig, default_worker_count,
                                     run_batch, run_jobs)
from repro.service.store import ResultStore

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""


def _suite_jobs(count=4):
    benchmarks = select_benchmarks(["@linear"])[:count]
    return [job_from_benchmark(bench) for bench in benchmarks]


def _sleepy_job(job, attempt=1, claim_path=None):
    # Module-level so the pool can pickle it by reference; under fork the
    # worker resolves it to this (monkeypatch-visible) definition.
    time.sleep(8)
    return JobResult(name=job.name, job_hash=job.job_hash,
                     status="ok")  # pragma: no cover


class TestDeterminism:
    def test_same_results_any_worker_count(self):
        jobs = _suite_jobs(4)
        runs = {workers: run_jobs(jobs, workers=workers)
                for workers in (0, 1, 2)}
        baseline = [(r.name, r.status, r.bound_pretty, r.degree)
                    for r in runs[0]]
        for workers in (1, 2):
            assert [(r.name, r.status, r.bound_pretty, r.degree)
                    for r in runs[workers]] == baseline

    def test_results_in_input_order(self):
        jobs = list(reversed(_suite_jobs(4)))
        results = run_jobs(jobs, workers=2)
        assert [r.name for r in results] == [j.name for j in jobs]

    def test_duplicate_jobs_execute_once(self, tmp_path):
        job = AnalysisJob.create("rdwalk", RDWALK)
        twin = AnalysisJob.create("rdwalk-twin", RDWALK)
        assert job.job_hash == twin.job_hash
        store = ResultStore(str(tmp_path))
        report = run_batch([job, twin],
                           SchedulerConfig(workers=0, store=store))
        assert [r.status for r in report.results] == ["ok", "ok"]
        # One execution, one store record, results for both inputs --
        # each reported under its own job's name.
        assert store.stats.writes == 1
        assert [r.name for r in report.results] == ["rdwalk", "rdwalk-twin"]

    def test_store_hit_reports_the_requesting_jobs_name(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_batch([AnalysisJob.create("original", RDWALK)],
                  SchedulerConfig(workers=0, store=store))
        report = run_batch([AnalysisJob.create("renamed", RDWALK)],
                           SchedulerConfig(workers=0, store=store))
        assert report.cache_hits == 1
        assert report.results[0].name == "renamed"

    def test_parallel_matches_inline_bounds_exactly(self):
        jobs = _suite_jobs(6)
        inline = run_jobs(jobs, workers=0)
        pooled = run_jobs(jobs, workers=3)
        assert [r.bound_pretty for r in inline] \
            == [r.bound_pretty for r in pooled]


class TestStoreIntegration:
    def test_second_run_served_from_store(self, tmp_path):
        jobs = _suite_jobs(4)
        store = ResultStore(str(tmp_path))
        first = run_batch(jobs, SchedulerConfig(workers=0, store=store))
        assert first.cache_hits == 0 and first.executed == len(jobs)
        second = run_batch(jobs, SchedulerConfig(workers=0, store=store))
        assert second.cache_hits == len(jobs) and second.executed == 0
        assert [r.bound_pretty for r in second.results] \
            == [r.bound_pretty for r in first.results]

    def test_refresh_bypasses_store_reads(self, tmp_path):
        jobs = _suite_jobs(2)
        store = ResultStore(str(tmp_path))
        run_batch(jobs, SchedulerConfig(workers=0, store=store))
        refreshed = run_batch(jobs, SchedulerConfig(workers=0, store=store,
                                                    refresh=True))
        assert refreshed.cache_hits == 0 and refreshed.executed == 2

    def test_store_disabled(self):
        jobs = _suite_jobs(2)
        report = run_batch(jobs, SchedulerConfig(workers=0, store=None))
        assert report.cache_hits == 0


class TestTimeouts:
    def test_timeout_requires_workers(self):
        with pytest.raises(ValueError):
            run_batch([], SchedulerConfig(workers=0, timeout=1.0))

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method "
                        "(monkeypatched seam must reach the worker)")
    def test_timeout_and_cancellation_path(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_execute_job", _sleepy_job)
        jobs = [AnalysisJob.create("slow-a", RDWALK),
                AnalysisJob.create("slow-b", RDWALK.replace("3/4", "2/3"))]
        start = time.monotonic()
        # degrade=False: this test pins the raw timeout/cancellation
        # mechanics; the degradation ladder's timeout retry is covered by
        # the chaos suite.
        results = run_jobs(jobs, workers=1, timeout=1.0, degrade=False)
        elapsed = time.monotonic() - start
        assert elapsed < 6
        # One worker: the first job runs (and times out), the second is
        # still queued and gets cancelled.
        assert results[0].status == "timeout"
        assert results[1].status in ("timeout", "cancelled")
        assert all(not r.success for r in results)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_fast_jobs_unaffected_by_timeout(self):
        jobs = _suite_jobs(2)
        results = run_jobs(jobs, workers=2, timeout=120.0)
        assert all(r.status == "ok" for r in results)


class TestWorkerIsolation:
    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_workers_have_fresh_engines_and_parent_is_untouched(self):
        jobs = _suite_jobs(4)
        parent_engine = get_engine()
        # Warm the parent cache so leakage in either direction would show.
        run_jobs(jobs[:1], workers=0)
        before = parent_engine.stats.snapshot()
        results = run_jobs(jobs, workers=2)
        after = parent_engine.stats.snapshot()
        # Worker analyses never touch the parent's engine counters.
        assert after == before
        # And the work really happened in other processes.
        pids = {r.worker_pid for r in results}
        assert os.getpid() not in pids
        assert len(pids) >= 1
        # Every worker ran real queries against its own engine.
        assert all(r.engine["queries"] > 0 for r in results)

    def test_worker_init_freezes_the_warm_heap(self):
        # In a fresh interpreter, so this process's collector is untouched.
        code = ("import gc\n"
                "from repro.service.scheduler import _worker_init\n"
                "_worker_init()\n"
                "print(gc.get_freeze_count())\n")
        # src/repro/service/scheduler.py -> src
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(scheduler_module.__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.strip()) > 0

    def test_inline_jobs_run_in_this_process(self):
        results = run_jobs(_suite_jobs(1), workers=0)
        assert results[0].worker_pid == os.getpid()


class TestMisc:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_empty_batch(self):
        report = run_batch([], SchedulerConfig(workers=0))
        assert report.outcomes == [] and report.cache_hit_rate() == 0.0

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            run_batch([], SchedulerConfig(), workers=2)

    def test_parse_error_reported_not_raised(self):
        results = run_jobs([AnalysisJob.create("bad", "proc main( {")],
                           workers=0)
        assert results[0].status == "parse-error"


class TestInvalidDomainSurvival:
    """An unknown abstract domain degrades to structured errors, not a dead pool."""

    def test_pool_survives_invalid_env_domain(self, monkeypatch):
        monkeypatch.setenv("REPRO_DOMAIN", "octagons")
        jobs = [AnalysisJob.create("bad-domain",
                                   "proc main(x) { tick(1); }")]
        assert jobs[0].options_dict["domain"] == "octagons"
        results = scheduler_module.run_jobs(jobs, workers=1)
        # The worker initializer must not take the pool down; the job comes
        # back as a structured error naming the unknown domain.
        assert results[0].status == "error"
        assert "octagons" in results[0].message

    def test_inline_invalid_domain_matches_pool_behaviour(self, monkeypatch):
        monkeypatch.setenv("REPRO_DOMAIN", "octagons")
        jobs = [AnalysisJob.create("bad-domain",
                                   "proc main(x) { tick(1); }")]
        results = scheduler_module.run_jobs(jobs, workers=0)
        assert results[0].status == "error"
        assert "octagons" in results[0].message
