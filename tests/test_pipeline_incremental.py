"""Tests for the degree-escalation pipeline.

Covers the identity guarantee (an escalated 1->2 analysis, which rebuilds
degree 2 from scratch, is byte-identical to a cold ``max_degree=2`` run),
the per-stage statistics, and the per-attempt/total timing split.
"""

import json
import re

import pytest

from repro.bench.registry import polynomial_benchmarks
from repro.core.analyzer import analyze_program
from repro.lang import builder as B
from repro.service.jobs import AnalysisJob, certificate_payload

POLYNOMIAL = polynomial_benchmarks()


def nested_loop_program():
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.assign("n", "n - 1"),
            B.assign("m", "n"),
            B.while_("m > 0", B.assign("m", "m - 1"), B.tick(1)))))


def canonical_certificate(certificate):
    """The certificate payload with AST node ids renumbered canonically.

    The front end copies the program per analysis run (inlining), so node
    ids are gensym'd per run; everything else must match byte for byte.
    """
    mapping = {}

    def renumber(node_id):
        if node_id not in mapping:
            mapping[node_id] = len(mapping)
        return mapping[node_id]

    payload = json.loads(json.dumps(certificate_payload(certificate)))
    for point in payload["points"]:
        point["node_id"] = renumber(point["node_id"])
    for weakening in payload["weakenings"]:
        weakening["origin"] = re.sub(
            r"@(\d+)",
            lambda m: f"@{mapping.get(int(m.group(1)), m.group(1))}",
            weakening["origin"])
    return json.dumps(payload, sort_keys=True)


class TestEscalationIdentity:
    """Escalated 1->2 runs must equal cold degree-2 runs exactly."""

    @pytest.mark.parametrize("bench", POLYNOMIAL, ids=lambda b: b.name)
    def test_registry_escalation_matches_cold_run(self, bench):
        options = dict(bench.analyzer_options)
        target = int(options.get("max_degree", 1))
        assert target >= 2, "polynomial benchmarks are degree >= 2"
        # One shared AST: node ids then agree between the two runs, so the
        # comparison really is byte-for-byte.
        program = bench.build()
        cold = analyze_program(program, **options)
        escalated = analyze_program(program, **{
            **options, "max_degree": 1, "auto_degree": True,
            "degree_limit": target})
        assert cold.success, f"{bench.name}: {cold.message}"
        if escalated.degree < target:
            pytest.skip(f"{bench.name} already has a degree-1 bound")
        assert escalated.success, f"{bench.name}: {escalated.message}"
        assert escalated.bound.pretty() == cold.bound.pretty()
        assert canonical_certificate(escalated.certificate) \
            == canonical_certificate(cold.certificate)
        assert escalated.stats.attempted_degrees == [1, target]
        # Cold runs build and solve the target degree only.
        assert cold.stats.attempted_degrees == [target]
        assert [stage.degree for stage in cold.stats.stages] == [target]


class TestPipelineStats:
    def test_one_stage_per_attempted_degree(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=2)
        assert result.success and result.degree == 2
        stats = result.stats
        assert stats.attempted_degrees == [1, 2]
        assert [stage.degree for stage in stats.stages] == [1, 2]
        first, second = stats.stages
        # Each stage's totals are its own system's, built from scratch.
        assert 0 < first.variables_total < second.variables_total \
            == result.lp_variables
        assert 0 < first.constraints_total < second.constraints_total \
            == result.lp_constraints
        # Degree 1 is infeasible, degree 2 feasible.
        assert first.feasible is False
        assert second.feasible is True
        payload = stats.to_dict()
        assert payload["attempted_degrees"] == [1, 2]
        assert [stage["degree"] for stage in payload["stages"]] == [1, 2]

    def test_single_degree_run_has_one_stage(self):
        program = B.program(B.proc("main", ["n"],
            B.while_("n > 0", B.assign("n", "n - 1"), B.tick(1))))
        result = analyze_program(program, max_degree=1, auto_degree=False)
        assert result.success
        stats = result.stats
        assert stats.attempted_degrees == [1]
        assert [stage.degree for stage in stats.stages] == [1]
        (stage,) = stats.stages
        assert stage.feasible is True
        assert stage.variables_total == result.lp_variables
        assert stage.constraints_total == result.lp_constraints

    def test_escalated_system_is_sized_like_a_cold_build(self):
        # The degree-2 attempt starts from a fresh system, so nothing of
        # the failed degree-1 attempt is left in its LP.
        cold = analyze_program(nested_loop_program(), max_degree=2)
        escalated = analyze_program(nested_loop_program(), max_degree=1,
                                    auto_degree=True, degree_limit=2)
        assert cold.success and escalated.success
        assert escalated.degree == cold.degree == 2
        assert (escalated.lp_variables, escalated.lp_constraints) \
            == (cold.lp_variables, cold.lp_constraints)
        assert escalated.bound.pretty() == cold.bound.pretty()


class TestTimingSplit:
    def test_attempt_and_total_times_are_separate(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=2)
        assert result.success and result.degree == 2
        # time_seconds is the successful attempt only; total_seconds covers
        # preparation, construction and the failed degree-1 attempt too.
        assert 0 < result.time_seconds < result.total_seconds
        stats = result.stats
        attempts = sum(stage.solve_seconds for stage in stats.stages)
        overhead = stats.prepare_seconds + stats.build_seconds_total()
        assert result.total_seconds >= attempts + overhead

    def test_failed_attempts_report_their_own_wall(self):
        program = B.program(B.proc("main", ["n"],
            B.while_("n > 0",
                B.assign("n", "n - 1"),
                B.assign("m", "n"),
                B.while_("m > 0", B.assign("m", "m - 1"), B.tick(1)))))
        result = analyze_program(program, max_degree=1, auto_degree=False)
        assert not result.success
        assert result.failure_kind == "no-bound"
        assert result.time_seconds <= result.total_seconds


class TestDegreeLimitOption:
    def test_degree_limit_is_honoured(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=1)
        assert not result.success
        assert result.stats.attempted_degrees == [1]

    def test_degree_limit_changes_job_hash(self):
        source = "proc main(n) { while (n > 0) { n = n - 1; tick(1); } }"
        default = AnalysisJob.create("p", source, {})
        limited = AnalysisJob.create("p", source, {"degree_limit": 3})
        assert default.job_hash != limited.job_hash
