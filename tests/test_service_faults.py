"""Tests for the fault-injection registry and the retry/backoff policy.

Covers the ISSUE-6 checklist items: retry/backoff determinism (the seeded
jitter schedule is exactly reproducible), store-fault survival, the
constraint-cap path (capped eliminations answered exactly inside the
backend), and the store quarantine round trip.
"""

import itertools
import json
import os

import pytest

from repro.service import faults
from repro.service.faults import FaultRegistry, FaultSpec, InjectedFault
from repro.service.jobs import AnalysisJob, JobResult, run_job
from repro.service.retry import RetryPolicy
from repro.service.scheduler import SchedulerConfig, run_batch
from repro.service.store import ResultStore

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""


@pytest.fixture(autouse=True)
def _fault_free():
    """Every test starts and ends with fault injection off."""
    faults.disable()
    yield
    faults.disable()


class TestRegistry:
    def test_unit_fraction_is_deterministic_and_uniformish(self):
        a = faults.unit_fraction(1, "worker-crash", "abc:1")
        assert a == faults.unit_fraction(1, "worker-crash", "abc:1")
        assert 0.0 <= a < 1.0
        assert a != faults.unit_fraction(2, "worker-crash", "abc:1")
        assert a != faults.unit_fraction(1, "worker-crash", "abc:2")

    def test_decisions_depend_only_on_seed_kind_and_key(self):
        spec = FaultSpec("worker-crash", probability=0.3)
        first = FaultRegistry([spec], seed=7)
        second = FaultRegistry([spec], seed=7)
        keys = [f"{'%02x' % byte * 8}:1" for byte in range(64)]
        decide = lambda reg: [bool(reg.decide("worker", key)) for key in keys]
        assert decide(first) == decide(second)
        fired = sum(decide(first))
        # p=0.3 over 64 keys: not all, not none (deterministic, so this is
        # a fixed property of the seed, not a flaky statistical bound).
        assert 0 < fired < 64
        other_seed = FaultRegistry([spec], seed=8)
        assert decide(first) != decide(other_seed)

    def test_match_and_limit_filters(self):
        spec = FaultSpec("worker-crash", match=":1", limit=2)
        registry = FaultRegistry([spec], seed=0)
        assert registry.decide("worker", "aa:1")
        assert not registry.decide("worker", "aa:2")
        registry.record(spec, "aa:1")
        registry.record(spec, "bb:1")
        assert not registry.decide("worker", "cc:1")   # limit reached

    def test_unknown_kind_is_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRegistry([FaultSpec("frobnicate")])

    def test_parse_spec_grammar(self):
        specs = faults.parse_spec(
            "worker-crash:p=0.2;store-corrupt:p=0.5,match=ab,limit=3;"
            "worker-hang:duration=0.5")
        assert [spec.kind for spec in specs] \
            == ["worker-crash", "store-corrupt", "worker-hang"]
        assert specs[0].probability == 0.2
        assert specs[1].match == "ab" and specs[1].limit == 3
        assert specs[2].duration == 0.5
        assert faults.parse_spec("") == []
        with pytest.raises(ValueError, match="unknown fault parameter"):
            faults.parse_spec("worker-crash:frequency=2")

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "store-write-fail:p=0.25")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "42")
        registry = faults.registry_from_env()
        assert registry.seed == 42
        assert registry.specs[0].kind == "store-write-fail"
        monkeypatch.setenv(faults.FAULTS_ENV, "")
        assert faults.registry_from_env() is None

    def test_fire_is_a_noop_when_disabled(self):
        faults.disable()
        faults.fire("worker", "whatever:1")
        faults.fire("store.put", "whatever")
        assert faults.drain_events() == []

    def test_worker_faults_never_fire_outside_pool_workers(self):
        # This test process is not a pool worker: an armed worker-crash
        # must not kill it (otherwise inline batches and the server could
        # be crashed by a stray $REPRO_FAULTS).
        faults.configure([FaultSpec("worker-crash")], seed=0)
        faults.fire("worker", "aa:1")
        assert faults.drain_events() == []


class TestRetryPolicy:
    def test_backoff_schedule_is_reproducible(self):
        policy = RetryPolicy(seed=3)
        twin = RetryPolicy(seed=3)
        schedule = policy.schedule("a" * 64, attempts=6)
        assert schedule == twin.schedule("a" * 64, attempts=6)
        assert policy.schedule("b" * 64, attempts=6) != schedule
        assert RetryPolicy(seed=4).schedule("a" * 64, attempts=6) != schedule

    def test_backoff_grows_exponentially_with_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=10.0,
                             jitter=0.25, seed=0)
        for attempt, base in ((2, 0.1), (3, 0.2), (4, 0.4), (5, 0.8)):
            delay = policy.backoff("job", attempt)
            assert base <= delay <= base * 1.25
        assert policy.backoff("job", 1) == 0.0

    def test_backoff_respects_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, factor=10.0, max_delay=2.0,
                             jitter=0.0)
        assert policy.backoff("job", 6) == 2.0

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify("worker-lost")
        for status in ("ok", "parse-error", "no-bound", "analysis-error",
                       "timeout", "cancelled", "error", "resource-limit"):
            assert not policy.classify(status)


class TestStoreFaults:
    def test_injected_write_failure_is_survived_by_the_batch(self, tmp_path):
        faults.configure([FaultSpec("store-write-fail")], seed=0)
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        report = run_batch([job], SchedulerConfig(workers=0, store=store))
        result = report.results[0]
        # The analysis result is still delivered...
        assert result.status == "ok"
        assert result.bound_pretty == "2*|[x, n]|"
        # ...the lost write is provenance, not a crash...
        assert any(event["kind"] == "store-write-error"
                   for event in result.fault_events)
        # ...and nothing was cached.
        assert store.stats.writes == 0
        assert len(store) == 0

    def test_injected_kill_during_write_is_crash_safe(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        result = run_job(job)
        faults.configure([FaultSpec("store-kill")], seed=0)
        with pytest.raises(OSError):
            store.put(result)
        # The simulated kill left partial temp state behind...
        partials = [name for _, _, files in os.walk(tmp_path)
                    for name in files if name.startswith(".tmp-injected")]
        assert partials
        # ...but no record, and the store keeps working once healthy.
        assert store.get(job.job_hash) is None
        faults.disable()
        store.put(result)
        assert store.get(job.job_hash) == result

    def test_injected_corruption_is_quarantined_on_read(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        store.put(run_job(job))
        faults.configure([FaultSpec("store-corrupt")], seed=0)
        assert store.get(job.job_hash) is None
        assert store.stats.quarantined == 1
        assert store.quarantine_count() == 1


class TestStoreQuarantine:
    def test_quarantine_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        result = run_job(job)
        store.put(result)
        path = store._path(job.job_hash)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        # Corrupt record: miss, counted, moved out of the hot path.
        assert store.get(job.job_hash) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 1
        assert not os.path.exists(path)
        assert store.quarantine_count() == 1
        assert os.path.exists(os.path.join(store.quarantine_root,
                                           f"{job.job_hash}.json"))
        # The quarantine directory is not part of the cache contents.
        assert list(store.iter_hashes()) == []
        assert len(store) == 0
        # A re-put repairs the cache; the quarantined evidence stays.
        store.put(result)
        assert store.get(job.job_hash) == result
        assert store.quarantine_count() == 1

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        store.put(run_job(job))
        path = store._path(job.job_hash)
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        record["status"] = "no-bound"       # silently flip a field
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.get(job.job_hash) is None
        assert store.stats.quarantined == 1

    def test_schema_mismatch_is_replaceable_not_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        store.put(run_job(job))
        path = store._path(job.job_hash)
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        record["schema"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        # An old-version record is legitimate: a miss, left in place for
        # the next put to overwrite.
        assert store.get(job.job_hash) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 0
        assert os.path.exists(path)

    def test_repeated_corruption_keeps_latest_evidence(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        result = run_job(job)
        for _ in range(2):
            store.put(result)
            with open(store._path(job.job_hash), "w",
                      encoding="utf-8") as handle:
                handle.write("{ corrupt")
            assert store.get(job.job_hash) is None
        assert store.stats.quarantined == 2
        assert store.quarantine_count() == 1   # one file per hash


class TestCapPath:
    """Capped eliminations are answered exactly inside the backend."""

    @pytest.mark.parametrize("cap", ["fault", "max-constraints"])
    @pytest.mark.parametrize("name", ["rdwalk", "pol04"])
    def test_capped_run_equals_uncapped_run(self, name, cap, monkeypatch):
        from repro.bench.registry import get_benchmark
        from repro.core.rewrite import clear_rewrite_caches
        from repro.lang import ast
        from repro.logic import fourier_motzkin as fm
        from repro.logic.entailment import reset_engine
        from repro.service.jobs import job_from_benchmark

        job = job_from_benchmark(get_benchmark(name))

        def cold_run():
            # Fresh caches, and node ids restarted so certificates compare.
            reset_engine()
            clear_rewrite_caches()
            ast._NODE_COUNTER = itertools.count(1)
            return run_batch([job], SchedulerConfig(workers=0)).results[0]

        uncapped = cold_run()
        with monkeypatch.context() as patch:
            if cap == "fault":
                faults.configure([FaultSpec("fm-cap")], seed=0)
            else:
                patch.setattr(fm, "MAX_CONSTRAINTS", 0)
            capped = cold_run()
        faults.disable()
        assert uncapped.status == capped.status == "ok"
        assert uncapped.engine["cap_blowups"] == 0
        assert capped.engine["cap_blowups"] > 0
        assert capped.degraded == {} and capped.attempts == 1
        assert capped.bound == uncapped.bound
        assert capped.certificate == uncapped.certificate
        if cap == "fault":
            assert all(event["kind"] == "fm-cap"
                       for event in capped.fault_events)
            assert len(capped.fault_events) >= capped.engine["cap_blowups"]

    def test_capped_run_needs_no_degradation(self):
        from repro.logic.entailment import reset_engine

        reset_engine()
        faults.configure([FaultSpec("fm-cap", match="fm")], seed=0)
        job = AnalysisJob.create("rdwalk", RDWALK)
        report = run_batch([job], SchedulerConfig(workers=0, degrade=False))
        result = report.results[0]
        # Without the ladder the capped job still answers on its first run.
        assert result.status == "ok" and result.attempts == 1
        assert result.engine["cap_blowups"] > 0
        assert any(event["kind"] == "fm-cap" for event in result.fault_events)

    def test_one_capped_elimination_is_one_blowup(self):
        from repro.logic.entailment import reset_engine

        reset_engine()
        faults.configure([FaultSpec("fm-cap", limit=1)], seed=0)
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        assert result.status == "ok"
        assert result.engine["cap_blowups"] == 1
        assert [event["kind"] for event in result.fault_events] == ["fm-cap"]

    def test_capped_results_are_cached_under_the_job_hash(self, tmp_path):
        from repro.logic.entailment import reset_engine

        reset_engine()
        store = ResultStore(str(tmp_path))
        faults.configure([FaultSpec("fm-cap", match="fm")], seed=0)
        job = AnalysisJob.create("rdwalk", RDWALK)
        first = run_batch([job], SchedulerConfig(workers=0, store=store))
        faults.disable()
        computed = first.results[0]
        assert computed.cacheable and not first.degraded
        # Sound to cache: the capped answer is the exact one.
        cached = store.get(job.job_hash)
        assert cached is not None
        assert cached.bound == computed.bound
        assert cached.engine["cap_blowups"] > 0
        second = run_batch([job], SchedulerConfig(workers=0, store=store))
        assert second.cache_hits == 1
        assert second.results[0].bound == computed.bound


class TestDegradedCacheability:
    def test_degree_fallback_results_are_not_cacheable(self):
        result = JobResult(name="t", job_hash="ab" * 32, status="ok",
                           degraded={"kind": "degree-fallback",
                                     "from": 2, "to": 1,
                                     "reason": "timeout"})
        assert not result.cacheable

    def test_schema_v4_record_round_trip(self):
        result = JobResult(name="t", job_hash="ab" * 32, status="ok",
                           attempts=3,
                           degraded={"kind": "degree-fallback"},
                           fault_events=[{"site": "pool",
                                          "kind": "worker-lost",
                                          "key": "ab:1"}])
        assert JobResult.from_record(result.to_record()) == result


class TestInjectedFaultType:
    def test_injected_faults_are_oserrors(self):
        assert issubclass(InjectedFault, OSError)

    def test_constraint_cap_is_a_memory_error(self):
        from repro.logic.fourier_motzkin import ConstraintCapExceeded

        assert issubclass(ConstraintCapExceeded, MemoryError)
