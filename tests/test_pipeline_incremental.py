"""Tests for the incremental degree-escalation pipeline.

Covers the identity guarantee (an escalated 1->2 analysis is byte-identical
to a cold ``max_degree=2`` run), the per-stage statistics, the append-only
extension protocol of the constraint system, the in-place growth of the LP
assembly, and the per-attempt/total timing split.
"""

import json
import re

import numpy as np
import pytest

from repro.bench.registry import polynomial_benchmarks
from repro.core.analyzer import analyze_program
from repro.core.constraints import AffExpr, ConstraintSystem
from repro.core.solver import AssembledSystem
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
        # The escalation measurably reused the degree-1 system.
        ratio = escalated.stats.escalation_reuse_ratio
        assert ratio is not None and ratio > 0
        assert escalated.stats.attempted_degrees == [1, target]
        # Cold runs construct every stage but only solve the target degree.
        assert cold.stats.attempted_degrees == [target]
        assert [stage.degree for stage in cold.stats.stages] \
            == list(range(1, target + 1))


class TestPipelineStats:
    def test_stage_deltas_match_constraint_system_counts(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=2)
        assert result.success and result.degree == 2
        stats = result.stats
        assert stats.attempted_degrees == [1, 2]
        assert [stage.kind for stage in stats.stages] == ["base", "extend"]
        base, extend = stats.stages
        # The per-stage deltas must add up to the final system exactly.
        assert base.variables_added + extend.variables_added \
            == extend.variables_total == result.lp_variables
        assert base.constraints_added + extend.constraints_added \
            == extend.constraints_total == result.lp_constraints
        # Every base row was either kept verbatim or extended, never both.
        assert extend.constraints_reused + extend.constraints_extended \
            == base.constraints_total
        assert extend.constraints_reused >= 0
        assert base.reuse_ratio() is None
        assert extend.reuse_ratio() == stats.escalation_reuse_ratio > 0
        # Both degrees were solved: degree 1 infeasible, degree 2 feasible.
        assert base.solved and base.feasible is False
        assert extend.solved and extend.feasible is True
        payload = stats.to_dict()
        assert payload["attempted_degrees"] == [1, 2]
        assert payload["stages"][1]["reuse_ratio"] > 0

    def test_single_degree_run_has_no_escalation_ratio(self):
        program = B.program(B.proc("main", ["n"],
            B.while_("n > 0", B.assign("n", "n - 1"), B.tick(1))))
        result = analyze_program(program, max_degree=1, auto_degree=False)
        assert result.success
        assert result.stats.attempted_degrees == [1]
        assert result.stats.escalation_reuse_ratio is None


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


class TestExtensionProtocol:
    def build_system(self):
        system = ConstraintSystem()
        x = system.new_var("x", nonneg=True)
        y = system.new_var("y")
        eq_index = system.add_eq(x + y - 3, origin="eq0")
        ge_index = system.add_ge(x - y + 1, origin="ge0")
        return system, x, y, eq_index, ge_index

    def test_extended_assembly_equals_fresh_assembly(self):
        system, x, y, eq_index, ge_index = self.build_system()
        assembled = AssembledSystem(system)
        system.begin_extension()
        z = system.new_var("z", nonneg=True)
        w = system.new_var("w", nonneg=True)
        system.extend_constraint(eq_index, z * 2)
        system.extend_constraint(ge_index, w * -1)
        system.add_eq(z - w * 3 + 1, origin="new-eq")
        system.add_ge(x + z - 7, origin="new-ge")
        extension = system.end_extension()
        assert extension.constraints_extended == 2
        assembled.extend(extension)
        fresh = AssembledSystem(system)
        assert (assembled.a_eq.toarray() == fresh.a_eq.toarray()).all()
        assert (assembled.a_ub_base.toarray()
                == fresh.a_ub_base.toarray()).all()
        assert (assembled.b_eq == fresh.b_eq).all()
        assert (assembled.b_ub_base == fresh.b_ub_base).all()
        assert np.array_equal(assembled.bounds, fresh.bounds)
        assert assembled.num_vars == fresh.num_vars == 4

    def test_extension_delta_must_not_touch_old_columns(self):
        system, x, y, eq_index, _ = self.build_system()
        system.begin_extension()
        system.new_var("z", nonneg=True)
        with pytest.raises(ValueError, match="pre-extension variable"):
            system.extend_constraint(eq_index, x * 2)

    def test_extension_delta_must_be_constant_free(self):
        system, _x, _y, eq_index, _ = self.build_system()
        system.begin_extension()
        z = system.new_var("z", nonneg=True)
        with pytest.raises(ValueError, match="constant part"):
            system.extend_constraint(eq_index, z + 1)

    def test_extend_outside_round_is_rejected(self):
        system, _x, _y, eq_index, _ = self.build_system()
        with pytest.raises(RuntimeError):
            system.extend_constraint(eq_index, AffExpr.zero())

    def test_stale_assembly_is_rejected(self):
        system, *_ = self.build_system()
        assembled = AssembledSystem(system)
        system.begin_extension()
        system.new_var("z", nonneg=True)
        system.end_extension()
        from repro.core.solver import IterativeMinimizer
        with pytest.raises(ValueError, match="stale"):
            IterativeMinimizer(system).solve([], assembled=assembled)


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
