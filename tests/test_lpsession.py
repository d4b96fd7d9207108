"""Tests for the LP session (``repro.core.lpsession``).

Covers the session protocol on a tiny LP (optimum, stage rows, infeasible
-> None, unbounded -> ``SolverError``), the column-wise model of
``AssembledSystem.model`` with its stage rows, the already-optimal stage
skip and the sparse snap of the minimizer, and the
registry pin: an escalating analysis, which builds a fresh session per
degree attempt, yields the same bound and certificate as a cold run at the
target degree.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csc_array

from repro.bench.registry import linear_benchmarks, polynomial_benchmarks
from repro.core import solver
from repro.core.analyzer import analyze_program
from repro.core.certificates import check_certificate
from repro.core.constraints import ConstraintSystem
from repro.core.lpsession import LPSession
from repro.core.solver import (AssembledSystem, IterativeMinimizer,
                               SolverError, snap_assignment,
                               stage_already_optimal)
from repro.lang import builder as B
from repro.utils.rationals import snap_fraction

from tests.test_pipeline_incremental import canonical_certificate

POLYNOMIAL = polynomial_benchmarks()


def nested_loop_program():
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.assign("n", "n - 1"),
            B.assign("m", "n"),
            B.while_("m > 0", B.assign("m", "m - 1"), B.tick(1)))))


def small_system():
    """min x + y  s.t.  x + y >= 2,  x - y == 0  (optimum x = y = 1)."""
    system = ConstraintSystem()
    x = system.new_var("x", nonneg=True)
    y = system.new_var("y", nonneg=True)
    system.add_ge(x + y - 2)
    system.add_eq(x - y)
    return system, x, y


# ---------------------------------------------------------------------------
# Session behaviour on a tiny LP
# ---------------------------------------------------------------------------

class TestSessionProtocol:
    def _session(self):
        system, x, y = small_system()
        return LPSession(AssembledSystem(system)), x, y

    def test_solve_is_defined_on_the_session_class(self):
        # Wrappers that time LP solves patch ``vars(LPSession)["solve"]``.
        assert "solve" in vars(LPSession)

    def test_solve_finds_the_optimum(self):
        session, x, y = self._session()
        values = session.solve(x + y)
        assert values is not None
        assert np.allclose(values, [1.0, 1.0], atol=1e-6)
        assert session.solves == 1

    def test_stage_rows_constrain_later_solves(self):
        session, x, y = self._session()
        values = session.solve(x + y)
        assert values is not None
        session.fix_objective(x + y, 2.0 + 1e-7)
        # Maximising x (minimising -x) under the fixed sum keeps x + y <= 2.
        values = session.solve(x * -1)
        assert values is not None
        assert values[0] + values[1] <= 2.0 + 1e-5
        session.clear_stage_rows()
        # Unbounded once the fix row is gone: HiGHS says so, and an
        # unbounded LP is a solver failure, not an infeasible one.
        with pytest.raises(SolverError, match="Unbounded"):
            session.solve(x * -1)

    def test_infeasible_reports_none(self):
        system = ConstraintSystem()
        x = system.new_var("x", nonneg=True)
        system.add_ge(-x - 1)          # -x - 1 >= 0, impossible for x >= 0
        assert LPSession(AssembledSystem(system)).solve(x) is None

    def test_minimizer_rejects_a_stale_assembly(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        system.new_var("z", nonneg=True)
        with pytest.raises(ValueError, match="stale"):
            IterativeMinimizer(system).solve([], assembled=assembled)

    def test_matches_direct_assembled_solve(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        direct = assembled.solve(x + y)
        assert np.array_equal(direct, LPSession(assembled).solve(x + y))

    def test_minimizer_uses_transient_session(self):
        system, x, y = small_system()
        solution = IterativeMinimizer(system).solve([x + y])
        assert solution is not None
        assert float(solution.objective_values[0]) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# The column-wise model (linprog's row order, stage rows in between)
# ---------------------------------------------------------------------------

class TestModelAssembly:
    """``AssembledSystem.model`` against scipy's CSC of linprog's matrices."""

    @staticmethod
    def _reference(system, extra):
        ge = [c.expr for c in system.constraints if c.kind == "ge"]
        eq = [c.expr for c in system.constraints if c.kind == "eq"]
        stage = [expr for expr, _ in extra]
        n = system.num_variables

        def dense(rows, sign=1.0):
            block = np.zeros((len(rows), n))
            for row, expr in enumerate(rows):
                for var, coeff in expr.term_items():
                    block[row, var.index] = sign * float(coeff)
            return block

        matrix = csc_array(np.vstack([dense(ge, -1.0), dense(stage),
                                      dense(eq)]))
        upper = ([float(e.const) for e in ge]
                 + [bound - float(e.const) for e, bound in extra]
                 + [-float(e.const) for e in eq])
        lower = [-np.inf] * (len(ge) + len(stage)) + upper[len(ge) + len(stage):]
        return matrix, lower, upper

    @pytest.mark.parametrize("extra", [
        [], [("sum", 2.0)], [("sum", 2.0), ("x - y", 0.5)],
        [("y - x", 0.25), ("sum", 3.0), ("2x + z", 5.0)]])
    def test_matches_linprogs_csc(self, extra):
        system, x, y, z = zero_stage_system()
        system.add_ge(z - x + 1)
        system.add_eq(x + z - 3)
        rows = {"sum": x + y, "x - y": x - y, "y - x": y - x,
                "2x + z": x * 2 + z}
        extra = [(rows[name], bound) for name, bound in extra]
        lp = AssembledSystem(system).model(x + z, extra)
        matrix, lower, upper = self._reference(system, extra)
        for ours, theirs in [(lp.a_matrix_.start_, matrix.indptr),
                             (lp.a_matrix_.index_, matrix.indices),
                             (lp.a_matrix_.value_, matrix.data),
                             (lp.row_lower_, lower), (lp.row_upper_, upper),
                             (lp.col_lower_, [0.0, 0.0, 0.0]),
                             (lp.col_cost_, [1.0, 0.0, 1.0])]:
            assert np.array_equal(ours, theirs)
        assert (lp.num_row_, lp.num_col_) == matrix.shape

    def test_base_arrays_are_not_modified_by_stage_rows(self):
        system, x, y, z = zero_stage_system()
        assembled = AssembledSystem(system)
        arrays = (assembled.start, assembled.index, assembled.value,
                  assembled.row_lower, assembled.row_upper)
        base = [array.copy() for array in arrays]
        assembled.model(x, [(x + y, 1.0), (z, 2.0)])
        assert all(np.array_equal(array, copy)
                   for array, copy in zip(arrays, base))


# ---------------------------------------------------------------------------
# Already-optimal stages are not re-solved
# ---------------------------------------------------------------------------

def never_skip():
    """Test oracle: a skip predicate that never holds, so every stage is
    solved."""
    return lambda objective, values: False


def zero_stage_system():
    """x, y, z >= 0;  y == 2;  x + y >= 2.

    Stage 1 (min x + z) has the unique optimum x = z = 0, y = 2, where the
    stage-2 objective 2x + z is exactly 0: stage 2 is already optimal.
    """
    system = ConstraintSystem()
    x = system.new_var("x", nonneg=True)
    y = system.new_var("y", nonneg=True)
    z = system.new_var("z", nonneg=True)
    system.add_eq(y - 2)
    system.add_ge(x + y - 2)
    return system, x, y, z


def refusal_system():
    """x in [0, 1], y == 2, free w in [0, 1], t >= 0."""
    system = ConstraintSystem()
    x = system.new_var("x", nonneg=True)
    y = system.new_var("y", nonneg=True)
    w = system.new_var("w")
    t = system.new_var("t", nonneg=True)
    system.add_ge(x * -1 + 1)
    system.add_eq(y - 2)
    system.add_ge(w)
    system.add_ge(w * -1 + 1)
    return system, x, y, w, t


class TestStageSkip:
    def test_already_optimal_stage_is_not_solved(self):
        system, x, y, z = zero_stage_system()
        session = LPSession(AssembledSystem(system))
        fixed = []

        def fix_objective(objective, bound):
            fixed.append((objective, bound))
            LPSession.fix_objective(session, objective, bound)

        session.fix_objective = fix_objective
        stage2 = x * 2 + z
        solution = IterativeMinimizer(system).solve([x + z, stage2],
                                                    session=session)
        assert solution is not None
        assert (session.solves, session.skipped) == (1, 1)
        # The skipped stage still fixes its (zero) optimum for later stages.
        assert fixed == [(x + z, 1e-6), (stage2, 1e-6)]
        assert solution.objective_values == [0.0, 0.0]
        assert list(solution.assignment.values()) == [0, 2, 0]

    def test_skip_returns_the_forced_solve_assignment(self, monkeypatch):
        system, x, y, z = zero_stage_system()
        skipped = IterativeMinimizer(system).solve([x + z, x * 2 + z])
        monkeypatch.setattr(solver, "stage_already_optimal", never_skip())
        session = LPSession(AssembledSystem(system))
        forced = IterativeMinimizer(system).solve([x + z, x * 2 + z],
                                                  session=session)
        assert (session.solves, session.skipped) == (2, 0)
        assert skipped.assignment == forced.assignment
        assert skipped.objective_values == forced.objective_values

    def test_predicate_accepts_a_zero_non_negative_objective(self):
        system, x, y, z = zero_stage_system()
        assert stage_already_optimal(x * 2 + z, np.array([0.0, 2.0, 0.0]))

    @pytest.mark.parametrize("case", ["negative", "free", "constant",
                                      "tiny"])
    def test_predicate_refuses(self, case):
        system, x, y, w, t = refusal_system()
        values = np.array([0.0, 2.0, 0.0, 0.0])
        objective = {"negative": x * -1, "free": w, "constant": x + 1,
                     "tiny": t}[case]
        if case == "tiny":
            values[3] = 1e-12
        assert not stage_already_optimal(objective, values)

    @pytest.mark.parametrize("case", ["negative", "free", "constant"])
    def test_refused_stage_is_solved(self, case):
        system, x, y, w, t = refusal_system()
        stage2 = {"negative": x * -1 + y, "free": w, "constant": x + 1}[case]
        session = LPSession(AssembledSystem(system))
        solution = IterativeMinimizer(system).solve([y, stage2],
                                                    session=session)
        assert solution is not None
        assert (session.solves, session.skipped) == (2, 0)


#: Programs whose *forced* (every stage solved) certificate fails the 1e-6
#: checker by a known float-snap residual; their skipped run passes.
FORCED_SNAP_FAILURES = {"prnes"}

#: The CLI's default schedule for the degree-2 programs: degree 1 first.
ESCALATING = {"max_degree": 1, "auto_degree": True, "degree_limit": 2}


def _assert_forced_agrees(name, program, options, result, monkeypatch):
    """Skipping changes no bound, and both certificates check.

    ``result`` is the analysis of ``program`` under ``options``.  Returns
    whether it skipped a stage (otherwise the oracle run would take exactly
    the same solves, and is not made).
    """
    assert result.success, f"{name}: {result.message}"
    assert check_certificate(result.certificate) == []
    if result.stats.skipped_solves == 0:
        return False
    with monkeypatch.context() as patch:
        patch.setattr(solver, "stage_already_optimal", never_skip())
        forced = analyze_program(program, **options)
    assert forced.stats.skipped_solves == 0
    assert forced.stats.cold_solves \
        == result.stats.cold_solves + result.stats.skipped_solves
    assert (forced.degree, forced.bound.pretty()) \
        == (result.degree, result.bound.pretty())
    problems = check_certificate(forced.certificate)
    if name not in FORCED_SNAP_FAILURES:
        assert problems == [], f"{name}: {problems}"
        return True
    assert problems, f"{name}'s forced certificate now passes"
    for problem in problems:
        match = re.search(r"residual (\S+)\)$", problem)
        assert match and abs(float(match.group(1))) < 2e-6, problem
    return True


class TestSkipDifferential:
    """The skip against the every-stage-solved oracle."""

    @pytest.mark.parametrize("bench", linear_benchmarks() + POLYNOMIAL,
                             ids=lambda b: b.name)
    def test_registry(self, bench, monkeypatch):
        options = dict(bench.analyzer_options)
        if bench in POLYNOMIAL:
            options.update(ESCALATING)
        program = bench.build()
        _assert_forced_agrees(bench.name, program, options,
                              analyze_program(program, **options), monkeypatch)

    def test_fuzz_corpus(self, fuzz_corpus, monkeypatch):
        skipped = 0
        for index, (program, result) in enumerate(zip(fuzz_corpus.programs,
                                                      fuzz_corpus.results)):
            if result.success:
                skipped += _assert_forced_agrees(f"program {index}", program,
                                                 fuzz_corpus.options, result,
                                                 monkeypatch)
        assert skipped >= 5, skipped


class TestSparseSnap:
    @staticmethod
    def _dense_snap(variables, values):
        assignment = {var: snap_fraction(float(values[var.index]))
                      for var in variables}
        for var in variables:
            if var.nonneg and assignment[var] < 0:
                assignment[var] = Fraction(0)
        return assignment

    def test_matches_snapping_every_value(self):
        system = ConstraintSystem()
        variables = [system.new_var(f"v{i}", nonneg=i % 3 != 0).variables()[0]
                     for i in range(200)]
        rng = np.random.default_rng(7)
        values = np.where(rng.random(200) < 0.8, 0.0,
                          rng.normal(size=200) * 10)
        values[[1, 2, 3]] = [-1e-9, -0.0, 2 / 3 + 1e-10]
        assert snap_assignment(variables, values) \
            == self._dense_snap(variables, values)

    def test_matches_on_a_registry_solution(self, monkeypatch):
        captured = []
        original = solver.snap_assignment

        def capture(variables, values):
            captured.append((variables, values))
            return original(variables, values)

        monkeypatch.setattr(solver, "snap_assignment", capture)
        bench = linear_benchmarks()[0]
        assert analyze_program(bench.build(), **bench.analyzer_options).success
        (variables, values), = captured
        assert np.count_nonzero(values) < len(values)
        assert original(variables, values) \
            == self._dense_snap(variables, values)


# ---------------------------------------------------------------------------
# Registry-wide escalating-vs-cold identity
# ---------------------------------------------------------------------------

class TestEscalatingColdIdentity:
    """A fresh session per degree attempt: escalated equals cold."""

    @pytest.mark.parametrize("bench", POLYNOMIAL, ids=lambda b: b.name)
    def test_registry_identity(self, bench):
        options = dict(bench.analyzer_options)
        target = int(options.get("max_degree", 1))
        program = bench.build()
        escalated = analyze_program(program, **{
            **options, "max_degree": 1, "auto_degree": True,
            "degree_limit": target})
        if escalated.degree < target:
            pytest.skip(f"{bench.name} already has a degree-1 bound")
        cold = analyze_program(program, **{**options, "max_degree": target,
                                           "auto_degree": False})
        assert escalated.success, f"{bench.name}: {escalated.message}"
        assert cold.success, f"{bench.name}: {cold.message}"
        assert escalated.bound.pretty() == cold.bound.pretty()
        assert canonical_certificate(escalated.certificate) \
            == canonical_certificate(cold.certificate)
        # The escalating run also solved the failed degree-1 attempt.
        assert escalated.stats.attempted_degrees == [1, target]
        assert escalated.stats.cold_solves > cold.stats.cold_solves > 0

    def test_solve_counters(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=2)
        assert result.success and result.degree == 2
        record = result.stats.to_dict()
        assert record["warm_solves"] == 0
        assert record["cold_solves"] == result.stats.cold_solves > 0
        assert sum(stage["cold_solves"] for stage in record["stages"]) \
            == result.stats.cold_solves

    def test_record_drops_the_retired_solver_keys(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=2)
        record = result.stats.to_dict()
        for key in ("solver_backend", "basis_reuses", "solver_fallbacks"):
            assert key not in record
            assert all(key not in stage for stage in record["stages"])


# ---------------------------------------------------------------------------
# The retired knobs are not analyzer options
# ---------------------------------------------------------------------------

class TestRetiredOptions:
    @pytest.mark.parametrize("key, value", [("solver", "scipy"),
                                            ("prefilter", False)])
    def test_analyzer_rejects_a_retired_option(self, key, value):
        with pytest.raises(TypeError, match=key):
            analyze_program(nested_loop_program(), **{key: value})
