"""Tests for repro.service.jobs: hashing, execution, serialisation."""

from fractions import Fraction

import pytest

from repro.bench.registry import get_benchmark
from repro.core import solver
from repro.core.analyzer import analyze_source
from repro.service.jobs import (SCHEMA_VERSION, AnalysisJob, JobResult,
                                bound_from_payload, canonical_source,
                                job_domain, job_from_benchmark, job_from_file,
                                run_job)
from repro.service.scheduler import run_jobs
from repro.service.store import ResultStore

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""

NO_BOUND = "proc main(x) { assume(x >= 1); while (x > 0) { tick(1); } }"


class TestJobHash:
    def test_hash_is_stable(self):
        a = AnalysisJob.create("a", RDWALK, {"max_degree": 1})
        b = AnalysisJob.create("b", RDWALK, {"max_degree": 1})
        # The name is presentation, not content.
        assert a.job_hash == b.job_hash

    def test_hash_ignores_trailing_whitespace_and_crlf(self):
        messy = RDWALK.replace("\n", "  \r\n") + "\n\n\n"
        assert AnalysisJob.create("a", messy).job_hash \
            == AnalysisJob.create("a", RDWALK).job_hash

    def test_hash_changes_with_source(self):
        other = RDWALK.replace("tick(1)", "tick(2)")
        assert AnalysisJob.create("a", other).job_hash \
            != AnalysisJob.create("a", RDWALK).job_hash

    def test_hash_changes_with_options(self):
        assert AnalysisJob.create("a", RDWALK, {"max_degree": 2}).job_hash \
            != AnalysisJob.create("a", RDWALK, {"max_degree": 1}).job_hash

    def test_option_order_is_canonical(self):
        a = AnalysisJob.create("a", RDWALK,
                               {"max_degree": 2, "auto_degree": False})
        b = AnalysisJob.create("a", RDWALK,
                               {"auto_degree": False, "max_degree": 2})
        assert a.job_hash == b.job_hash

    def test_canonical_source_ends_with_newline(self):
        assert canonical_source("proc main() { skip; }").endswith("}\n")

    def test_hash_ignores_the_prefilter_oracle_switch(self, monkeypatch):
        # The interval tier is observational, so the switch is not part of
        # the job: one cache key serves both settings.
        monkeypatch.setenv("REPRO_PREFILTER", "on")
        tier_on = AnalysisJob.create("a", RDWALK)
        monkeypatch.setenv("REPRO_PREFILTER", "off")
        tier_off = AnalysisJob.create("a", RDWALK)
        assert tier_on.options == tier_off.options
        assert tier_on.job_hash == tier_off.job_hash


class TestUnknownOptions:
    @pytest.mark.parametrize("key", ["bogus", "solver", "prefilter",
                                     "domain"])
    def test_create_rejects_a_key_that_is_not_a_config_field(self, key):
        with pytest.raises(ValueError, match=repr(key)):
            AnalysisJob.create("a", RDWALK, {key: 1})


class TestRunJob:
    def test_ok_job(self):
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        assert result.status == "ok" and result.success
        assert result.bound_pretty == "2*|[x, n]|"
        assert result.wall_seconds > 0
        assert result.lp_variables > 0
        assert result.certificate is not None
        assert result.certificate["points"]
        assert result.engine["queries"] > 0
        # The LP solve count readers take from the record.
        assert result.pipeline["warm_solves"] == 0
        assert result.pipeline["cold_solves"] > 0
        assert "solver" not in result.pipeline

    def test_parse_error_job(self):
        result = run_job(AnalysisJob.create("bad", "proc main( {"))
        assert result.status == "parse-error"
        assert not result.success
        assert result.bound is None
        assert result.message

    def test_no_bound_job(self):
        result = run_job(AnalysisJob.create(
            "diverges", NO_BOUND, {"auto_degree": False}))
        assert result.status == "no-bound"
        assert result.bound is None
        assert "infeasible" in result.message

    def test_record_round_trip(self):
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        record = result.to_record()
        assert record["schema"] == SCHEMA_VERSION
        restored = JobResult.from_record(record)
        assert restored == result


class TestSolverFailure:
    """A HiGHS status other than optimal or infeasible is an
    ``analysis-error`` naming the status: not ``no-bound``, not escalated to
    a higher degree, and not stored."""

    @pytest.fixture(autouse=True)
    def iteration_limit(self, monkeypatch):
        options = solver._highs_options()
        options.simplex_iteration_limit = 0
        monkeypatch.setattr(solver, "_OPTIONS", options)

    def test_analysis_reports_the_status(self):
        result = analyze_source(RDWALK, max_degree=1, auto_degree=True,
                                degree_limit=2)
        assert (result.success, result.failure_kind) \
            == (False, "analysis-error")
        assert "Iteration limit reached" in result.message
        assert result.stats.attempted_degrees == [1]

    def test_result_is_not_stored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("rdwalk", RDWALK)
        result, = run_jobs([job], store=store)
        assert result.status == "analysis-error"
        assert "Iteration limit reached" in result.message
        assert job.job_hash not in store and len(store) == 0


class TestBoundPayload:
    def test_bound_reconstruction_evaluates_identically(self):
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        bound = result.expected_bound()
        assert bound.pretty() == "2*|[x, n]|"
        assert bound.evaluate({"x": 3, "n": 10}) == Fraction(14)
        assert bound.evaluate({"x": 12, "n": 10}) == 0

    def test_polynomial_bound_reconstruction(self):
        bench = get_benchmark("pol04")
        result = run_job(job_from_benchmark(bench))
        assert result.success
        bound = result.expected_bound()
        direct = bench.build()
        from repro.core.analyzer import analyze_program

        expected = analyze_program(direct, **bench.analyzer_options).bound
        assert bound.pretty() == expected.pretty()
        for x in (0, 5, 17):
            assert bound.evaluate({"x": x}) == expected.evaluate({"x": x})

    def test_payload_is_json_clean(self):
        import json

        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        encoded = json.dumps(result.to_record())
        decoded = JobResult.from_record(json.loads(encoded))
        assert bound_from_payload(decoded.bound).pretty() == "2*|[x, n]|"


class TestJobFactories:
    def test_job_from_file(self, tmp_path):
        path = tmp_path / "walk.imp"
        path.write_text(RDWALK)
        job = job_from_file(str(path), name="walk")
        assert job.name == "walk"
        assert job.job_hash == AnalysisJob.create("walk", RDWALK).job_hash

    def test_job_from_benchmark_matches_direct_analysis(self):
        bench = get_benchmark("ber")
        result = run_job(job_from_benchmark(bench))
        from repro.core.analyzer import analyze_program

        direct = analyze_program(bench.build(), **bench.analyzer_options)
        assert result.bound_pretty == direct.bound.pretty()


class TestOneBackend:
    """Jobs name no entailment backend: there is one, Fourier-Motzkin."""

    def test_environment_does_not_reach_the_hash(self, monkeypatch):
        source = "proc main(x) { tick(1); }"
        before = AnalysisJob.create("t", source)
        monkeypatch.setenv("REPRO_DOMAIN", "polyhedra")
        after = AnalysisJob.create("t", source)
        assert before.options == after.options == ()
        assert before.job_hash == after.job_hash
        assert job_domain(after) == "fm"

    def test_benchmark_jobs_name_the_process_engine(self):
        from repro.bench.registry import get_benchmark
        from repro.logic.entailment import get_engine

        job = job_from_benchmark(get_benchmark("ber"))
        assert "domain" not in job.options_dict
        # Callers that record engine statistics per job reach the one
        # process engine through the job's backend name.
        assert get_engine(job_domain(job)) is get_engine()
