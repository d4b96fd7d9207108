"""End-to-end chaos tests: supervised recovery under injected faults.

The deterministic fault registry (:mod:`repro.service.faults`) lets these
tests crash workers, hang jobs and corrupt store records on a fixed seeded
schedule, then assert the supervision machinery's contract: **zero lost
jobs, bounds byte-identical to a fault-free run, every recovery recorded
as provenance**.
"""

import io
import json
import multiprocessing
import time

import pytest

from repro.service import faults
from repro.service.faults import FaultSpec, unit_fraction
from repro.service.jobs import SCHEMA_VERSION, AnalysisJob
from repro.service.retry import RetryPolicy
from repro.service.scheduler import SchedulerConfig, run_batch, run_jobs
from repro.service.gateway import AnalysisGateway, run_stdio
from repro.service.store import ResultStore

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="needs fork start method (the fault registry is "
                         "inherited by pool workers at fork time)")

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""


def _suite_jobs(count=4):
    from repro.bench.registry import select_benchmarks
    from repro.service.jobs import job_from_benchmark

    return [job_from_benchmark(bench)
            for bench in select_benchmarks(["@linear"])[:count]]


@pytest.fixture(autouse=True)
def _fault_free():
    faults.disable()
    yield
    faults.disable()


class TestCrashRecovery:
    @needs_fork
    def test_single_crash_is_retried_and_recovered(self):
        # Crash every first attempt (":1" only matches attempt 1); the solo
        # re-run (attempt 2) is clean.
        faults.configure([FaultSpec("worker-crash", match=":1")], seed=0)
        job = AnalysisJob.create("rdwalk", RDWALK)
        # Worker faults never fire outside pool workers, so an inline run
        # is a safe baseline even with the registry installed.
        baseline = run_jobs([job], workers=0)[0]
        assert baseline.status == "ok"
        results = run_jobs([job], workers=1)
        result = results[0]
        assert result.status == "ok"
        assert result.bound == baseline.bound
        assert result.attempts == 2
        lost = [event for event in result.fault_events
                if event["kind"] == "worker-lost"]
        assert len(lost) == 1
        assert lost[0]["key"] == f"{job.job_hash}:1"

    @needs_fork
    def test_poison_job_is_quarantined_not_retried_forever(self):
        # Crash on *every* attempt: group break, then two attributable
        # single-worker breaks -> poison quarantine.
        faults.configure([FaultSpec("worker-crash")], seed=0)
        job = AnalysisJob.create("poison", RDWALK)
        start = time.monotonic()
        results = run_jobs([job], workers=1)
        elapsed = time.monotonic() - start
        result = results[0]
        assert result.status == "error"
        assert "poison" in result.message
        kinds = [event["kind"] for event in result.fault_events]
        assert kinds.count("worker-lost") == 3
        assert "poison-quarantine" in kinds
        assert result.attempts == 3
        # Bounded: three pool rounds plus two tiny backoffs, not forever.
        assert elapsed < 60

    @needs_fork
    def test_retry_budget_bounds_a_hostile_environment(self):
        # Every attempt of every job crashes; a budget of 1 means exactly
        # one supervised retry happens across the whole batch.
        faults.configure([FaultSpec("worker-crash")], seed=0)
        job = AnalysisJob.create("hostile", RDWALK)
        results = run_jobs([job], workers=1,
                           retry=RetryPolicy(budget=1))
        result = results[0]
        assert result.status == "error"
        assert "budget" in result.message or "poison" in result.message
        assert result.attempts <= 2

    @needs_fork
    def test_backoff_schedule_is_identical_across_runs(self):
        policy = RetryPolicy(seed=5)
        job = AnalysisJob.create("rdwalk", RDWALK)
        schedule = policy.schedule(job.job_hash)
        # The exact sleeps the supervisor will perform for this job are a
        # pure function of (policy seed, job hash, attempt): reproducible
        # before the batch ever runs.
        assert schedule == RetryPolicy(seed=5).schedule(job.job_hash)
        assert all(delay >= 0.0 for delay in schedule)


class TestChaosGate:
    """The acceptance gate in miniature: faults on, nothing lost."""

    @needs_fork
    def test_crash_chaos_batch_matches_fault_free_bounds(self):
        jobs = _suite_jobs(4)
        baseline = run_jobs(jobs, workers=0)
        assert all(result.status == "ok" for result in baseline)

        # Pick a seed (deterministically -- the fault schedule is a pure
        # function of seed, hash and attempt) where crashes fire on at
        # least one first attempt and never on a retry: recovery then
        # always succeeds, no matter which jobs happen to share a pool
        # when it breaks.  Job hashes change with the schema version, so
        # the seed is computed rather than hard-coded.
        p = 0.25
        seed = next(
            s for s in range(10_000)
            if not any(unit_fraction(s, "worker-crash",
                                     f"{job.job_hash}:{attempt}") < p
                       for job in jobs for attempt in (2, 3, 4))
            and any(unit_fraction(s, "worker-crash",
                                  f"{job.job_hash}:1") < p for job in jobs))
        faults.configure([FaultSpec("worker-crash", probability=p)],
                         seed=seed)
        chaotic = run_jobs(jobs, workers=2)
        faults.disable()

        # Zero lost jobs, byte-identical bounds.
        assert [result.status for result in chaotic] \
            == [result.status for result in baseline]
        assert [result.bound for result in chaotic] \
            == [result.bound for result in baseline]
        # The chaos really happened and every recovery left provenance.
        crashed = [result for result in chaotic if result.attempts > 1]
        assert crashed, "the chosen seed must crash at least one first attempt"
        assert all(any(event["kind"] == "worker-lost"
                       for event in result.fault_events)
                   for result in crashed)

    def test_corrupt_store_chaos_recomputes_and_quarantines(self, tmp_path):
        jobs = _suite_jobs(3)
        store = ResultStore(str(tmp_path))
        first = run_batch(jobs, SchedulerConfig(workers=0, store=store))
        assert first.cache_hits == 0

        # Clobber every other record on disk.
        corrupted = 0
        for index, job in enumerate(jobs):
            if index % 2 == 0:
                with open(store._path(job.job_hash), "w",
                          encoding="utf-8") as handle:
                    handle.write("{ bit rot")
                corrupted += 1

        second = run_batch(jobs, SchedulerConfig(workers=0, store=store))
        assert [result.bound for result in second.results] \
            == [result.bound for result in first.results]
        assert second.cache_hits == len(jobs) - corrupted
        assert store.stats.quarantined == corrupted
        assert store.quarantine_count() == corrupted
        # Recomputation repaired the cache in place.
        third = run_batch(jobs, SchedulerConfig(workers=0, store=store))
        assert third.cache_hits == len(jobs)


class TestTimeoutDegradation:
    @needs_fork
    def test_timed_out_job_retries_once_at_lower_degree(self):
        job = AnalysisJob.create("slow", RDWALK)
        # Hang only the original job (matched by its hash): the degraded
        # re-run has a different content hash and runs clean.
        faults.configure([FaultSpec("worker-hang", match=job.job_hash[:16],
                                    duration=30.0)], seed=0)
        results = run_jobs([job], workers=1, timeout=1.5)
        result = results[0]
        assert result.status == "ok"
        assert result.degraded == {"kind": "degree-fallback", "from": 2,
                                   "to": 1, "reason": "timeout"}
        assert result.attempts == 2
        assert result.job_hash == job.job_hash
        # Lower-degree results are environment-shaped: never cached.
        assert not result.cacheable

    @needs_fork
    def test_degree_one_timeouts_stay_timeouts(self):
        job = AnalysisJob.create("slow", RDWALK, {"degree_limit": 1})
        faults.configure([FaultSpec("worker-hang", duration=30.0)], seed=0)
        results = run_jobs([job], workers=1, timeout=1.0)
        # Nothing left to degrade to: the structured timeout stands.
        assert results[0].status == "timeout"
        assert results[0].degraded == {}


class _HangupStream(io.StringIO):
    """A stdout whose reader goes away after ``limit`` full responses.

    ``json.dump`` streams a response as many small writes, so the hang-up
    trigger counts completed lines, not write calls.
    """

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.getvalue().count("\n") >= self.limit:
            raise BrokenPipeError("reader went away")
        return super().write(text)


class TestServerHardening:
    """The stdio transport of the gateway (``repro serve``)."""

    def _serve(self, requests, gateway=None):
        gateway = gateway or AnalysisGateway()
        stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
        stdout = io.StringIO()
        assert run_stdio(gateway, stdin, stdout) == 0
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_unexpected_exception_does_not_kill_the_server(self, monkeypatch):
        gateway = AnalysisGateway()

        async def boom(job):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(gateway, "_resolve", boom)
        responses = self._serve([{"id": 1, "source": RDWALK},
                                 {"op": "ping"}], gateway=gateway)
        assert responses[0]["error"] == "RuntimeError: wires crossed"
        assert responses[0]["id"] == 1
        # The loop survived and served the next request.
        assert responses[1] == {"op": "ping", "ok": True}

    def test_broken_pipe_shuts_down_cleanly(self):
        gateway = AnalysisGateway()
        stdin = io.StringIO('{"op": "ping"}\n{"op": "ping"}\n{"op": "ping"}\n')
        stdout = _HangupStream(limit=1)
        assert run_stdio(gateway, stdin, stdout) == 0   # must not raise
        # First answered, second hit the dead pipe, third never served.
        assert gateway.stats.requests == 2
        assert len(stdout.getvalue().splitlines()) == 1

    def test_health_op(self, tmp_path):
        store = ResultStore(str(tmp_path))
        gateway = AnalysisGateway(store=store, workers=3)
        responses = self._serve([{"source": RDWALK},
                                 {"op": "health", "id": 9}], gateway=gateway)
        health = responses[1]
        assert health["ok"] is True and health["id"] == 9
        assert health["pool"]["workers"] == 3
        assert health["gateway"]["analyses"] == 1
        assert health["store"]["quarantine_records"] == 0
        assert health["engine"]["engine_id"]
        assert health["faults"] is None
        assert health["schema"] == SCHEMA_VERSION

    def test_health_reports_active_faults_and_quarantine(self, tmp_path):
        store = ResultStore(str(tmp_path))
        self._serve([{"source": RDWALK}], AnalysisGateway(store=store))
        job = AnalysisJob.create("request-0", RDWALK)
        with open(store._path(job.job_hash), "w", encoding="utf-8") as handle:
            handle.write("{ bit rot")
        faults.configure([FaultSpec("store-write-fail", probability=0.5)],
                         seed=3)
        # A fresh gateway: its hot tier is empty, so the read hits the disk.
        responses = self._serve([{"source": RDWALK},
                                 {"op": "stats"},
                                 {"op": "health"}],
                                AnalysisGateway(store=store))
        stats, health = responses[1], responses[2]
        assert stats["store"]["quarantined"] == 1
        assert stats["store"]["quarantine_records"] == 1
        assert health["store"]["quarantine_records"] == 1
        assert health["faults"] == [{"kind": "store-write-fail",
                                     "site": "store.put",
                                     "probability": 0.5, "match": "",
                                     "limit": None, "duration": 30.0}]
