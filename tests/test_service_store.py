"""Tests for the persistent content-addressed result store."""

import json
import os

from repro.service.jobs import SCHEMA_VERSION, AnalysisJob, JobResult, run_job
from repro.service.store import ResultStore, record_checksum

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""


def _result(status="ok", job_hash="ab" + "0" * 62, **extra) -> JobResult:
    return JobResult(name="t", job_hash=job_hash, status=status, **extra)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        store.put(result)
        fetched = store.get(result.job_hash)
        assert fetched == result
        assert fetched.expected_bound().pretty() == "2*|[x, n]|"
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_miss_on_unknown_hash(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get("f" * 64) is None
        assert store.stats.misses == 1

    def test_cache_hit_on_unchanged_source(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        store.put(run_job(job))
        # Reformatting does not change the canonical hash.
        reformatted = AnalysisJob.create("other-name",
                                         RDWALK.replace("\n", "   \n"))
        assert store.get(reformatted.job_hash) is not None

    def test_miss_on_changed_source(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        store.put(run_job(job))
        changed = AnalysisJob.create("rdwalk", RDWALK.replace("3/4", "2/3"))
        assert store.get(changed.job_hash) is None


class TestCacheability:
    def test_non_cacheable_statuses_are_not_stored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for status in ("timeout", "cancelled", "error", "analysis-error"):
            store.put(_result(status=status))
        assert len(store) == 0 and store.stats.writes == 0

    def test_no_bound_and_parse_error_are_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(_result(status="no-bound", job_hash="aa" + "1" * 62))
        store.put(_result(status="parse-error", job_hash="bb" + "2" * 62))
        assert len(store) == 2


class TestRobustness:
    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = _result()
        store.put(result)
        path = store._path(result.job_hash)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        assert store.get(result.job_hash) is None
        assert store.stats.invalid == 1
        # And a re-put repairs it.
        store.put(result)
        assert store.get(result.job_hash) == result

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = _result()
        store.put(result)
        path = store._path(result.job_hash)
        record = json.loads(open(path, encoding="utf-8").read())
        record["schema"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.get(result.job_hash) is None

    def _assert_old_schema_is_a_miss(self, tmp_path, schema):
        store = ResultStore(str(tmp_path))
        result = _result()
        store.put(result)
        path = store._path(result.job_hash)
        record = json.loads(open(path, encoding="utf-8").read())
        assert record["schema"] == SCHEMA_VERSION == 13
        record["schema"] = schema
        record["checksum"] = record_checksum(record)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert store.get(result.job_hash) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert store.stats.quarantined == 0

    def test_v8_record_is_a_miss(self, tmp_path):
        # v8 degree-2 records carry certificates the checker rejects: a
        # well-formed, correctly checksummed v8 record must not be served.
        self._assert_old_schema_is_a_miss(tmp_path, 8)

    def test_v9_record_is_a_miss(self, tmp_path):
        # v9 records lack ``skipped_solves`` and may carry the certificate
        # of a re-solved final stage that v10 skips: not served either.
        self._assert_old_schema_is_a_miss(tmp_path, 9)

    def test_v10_record_is_a_miss(self, tmp_path):
        # v10 records carry the retired escalation-reuse keys and degree-2
        # certificates over the old LP column order: not served either.
        self._assert_old_schema_is_a_miss(tmp_path, 10)

    def test_v11_record_is_a_miss(self, tmp_path):
        # v11 records carry the retired ``domain`` field: not served either.
        self._assert_old_schema_is_a_miss(tmp_path, 11)

    def test_v12_record_is_a_miss(self, tmp_path):
        # v12 degree-2 certificates can use composite telescoping lifts
        # that v13 no longer generates: not served either.
        self._assert_old_schema_is_a_miss(tmp_path, 12)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(_result())
        leftovers = [name for _, _, files in os.walk(tmp_path)
                     for name in files if name.startswith(".tmp-")]
        assert leftovers == []

    def test_clear(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(_result(job_hash="cc" + "3" * 62))
        store.put(_result(job_hash="dd" + "4" * 62))
        assert store.clear() == 2
        assert len(store) == 0

    def test_iter_hashes_sorted(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hashes = ["cc" + "3" * 62, "aa" + "4" * 62, "bb" + "5" * 62]
        for job_hash in hashes:
            store.put(_result(job_hash=job_hash))
        assert list(store.iter_hashes()) == sorted(hashes)


class TestOneEngine:
    """Records and engine fingerprints name no entailment backend."""

    def test_records_carry_no_domain(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        store.put(result)
        path = store._path(result.job_hash)
        record = json.loads(open(path, encoding="utf-8").read())
        assert "domain" not in record
        assert store.get(result.job_hash) == result

    def test_engine_fingerprint_tracks_the_process_engine(self):
        from repro.logic.entailment import (engine_fingerprint, get_engine,
                                            reset_engine)

        before = engine_fingerprint()
        assert before["engine_id"] == id(get_engine())
        assert "domain" not in before
        fresh = reset_engine()
        after = engine_fingerprint()
        assert after["engine_id"] == id(fresh) != before["engine_id"]
        assert after["queries"] == after["entails_entries"] == 0
