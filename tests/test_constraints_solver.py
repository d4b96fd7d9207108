"""Tests for the LP constraint system and the iterative solver."""

from fractions import Fraction

import pytest

from repro.core.constraints import AffExpr, ConstraintSystem
from repro.core.solver import IterativeMinimizer, SolverError, solve_lp


class TestAffExpr:
    def test_constant(self):
        assert AffExpr.constant(3).const == 3
        assert AffExpr.constant(3).is_constant()

    def test_addition_and_scaling(self):
        cs = ConstraintSystem()
        a = cs.new_var("a")
        b = cs.new_var("b")
        expr = a * 2 + b - 1
        values = {var: Fraction(1) for var in cs.variables}
        assert expr.evaluate(values) == 2

    def test_zero_coefficients_dropped(self):
        cs = ConstraintSystem()
        a = cs.new_var("a")
        expr = a - a
        assert expr.is_zero()

    def test_subtraction_from_number(self):
        cs = ConstraintSystem()
        a = cs.new_var("a")
        expr = 5 - a
        assert expr.const == 5

    def test_str(self):
        cs = ConstraintSystem()
        a = cs.new_var("pretty")
        assert "pretty" in str(a + 1)


class TestConstraintSystem:
    def test_variable_creation(self):
        cs = ConstraintSystem()
        cs.new_var("x")
        cs.new_vars(3, "u", nonneg=True)
        assert cs.num_variables == 4
        assert sum(1 for v in cs.variables if v.nonneg) == 3

    def test_trivial_equality_dropped(self):
        cs = ConstraintSystem()
        cs.add_eq(AffExpr.constant(0), 0)
        assert cs.num_constraints == 0

    def test_contradictory_equality_recorded(self):
        cs = ConstraintSystem()
        cs.add_eq(AffExpr.constant(1), 0)
        assert cs.num_constraints == 1

    def test_add_le(self):
        cs = ConstraintSystem()
        a = cs.new_var("a")
        cs.add_le(a, 5)
        assert cs.num_constraints == 1

    def test_describe(self):
        assert "0 variables" in ConstraintSystem().describe()


class TestSolveLP:
    def test_simple_minimisation(self):
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        cs.add_ge(x, 3)
        values = solve_lp(cs, x)
        assert values is not None
        assert values[0] == pytest.approx(3.0)

    def test_equality_constraint(self):
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        y = cs.new_var("y", nonneg=True)
        cs.add_eq(x + y, 10)
        values = solve_lp(cs, x)
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(10.0)

    def test_infeasible_returns_none(self):
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        cs.add_ge(0 - x, 1)     # -x >= 1 with x >= 0
        assert solve_lp(cs, x) is None

    def test_empty_system(self):
        assert solve_lp(ConstraintSystem(), None) is not None

    def test_unbounded_raises(self):
        # Minimising a free x: no optimum, but not infeasible either.
        cs = ConstraintSystem()
        x = cs.new_var("x")
        with pytest.raises(SolverError, match="Unbounded") as excinfo:
            solve_lp(cs, x)
        assert excinfo.value.status == "Unbounded"


class TestIterativeMinimizer:
    def test_two_stage_minimisation(self):
        """First minimise x, fix it, then minimise y under the fixed x."""
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        y = cs.new_var("y", nonneg=True)
        cs.add_ge(x + y, 10)      # x + y >= 10
        cs.add_ge(x, 2)
        solution = IterativeMinimizer(cs).solve([x, y])
        assert solution is not None
        assert solution.evaluate(x) == pytest.approx(2, abs=1e-4)
        assert solution.evaluate(y) == pytest.approx(8, abs=1e-3)
        assert solution.iterations == 2

    def test_solution_snaps_to_rationals(self):
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        cs.add_ge(x * 3, 2)       # x >= 2/3
        solution = IterativeMinimizer(cs).solve([x])
        assert solution.evaluate(x) == Fraction(2, 3)

    def test_infeasible(self):
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        cs.add_eq(x, -1)
        assert IterativeMinimizer(cs).solve([x]) is None

    def test_nonneg_clamping(self):
        cs = ConstraintSystem()
        x = cs.new_var("x", nonneg=True)
        cs.add_ge(x, 0)
        solution = IterativeMinimizer(cs).solve([x])
        assert solution.evaluate(x) >= 0
