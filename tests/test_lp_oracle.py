"""The direct HiGHS path against ``scipy.optimize.linprog``, its reference.

:mod:`repro.core.solver` builds each stage's model itself and hands it to
HiGHS with the options and row order ``linprog(method="highs")`` uses.
These tests capture every LP solve of the registry programs (cold at their
registry degree, and the degree-2 ones escalating from degree 1) and of the
fuzz corpus, solve each captured LP again through ``linprog`` on matrices
assembled independently from the same system, stage rows and column bounds
(reduced-cost fixing bounds columns at 0), and require the same vector
(``np.array_equal``, not a tolerance) and the same infeasible verdicts.
Identical vectors are what keep every bound, certificate and job hash
unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, vstack

from repro.bench.registry import all_benchmarks, polynomial_benchmarks
from repro.core.analyzer import analyze_program
from repro.core.constraints import AffExpr, ConstraintSystem
from repro.core.solver import AssembledSystem, SolverError

from lp_capture import capturing_solve


#: ``linprog``'s status for a proven-infeasible LP.
LINPROG_INFEASIBLE = 2


def _rows_matrix(rows: Sequence[AffExpr], num_vars: int, sign: float = 1.0):
    """``sign * rows`` as a CSR matrix built from COO triplets."""
    triplets = [(row, var.index, sign * float(coeff))
                for row, expr in enumerate(rows)
                for var, coeff in expr.term_items()]
    rows_, cols, values = zip(*triplets) if triplets else ((), (), ())
    return coo_matrix((np.array(values, dtype=np.float64),
                       (np.array(rows_, dtype=np.intp),
                        np.array(cols, dtype=np.intp))),
                      shape=(len(rows), num_vars)).tocsr()


def linprog_reference(system: ConstraintSystem, objective: Optional[AffExpr],
                      extra: Sequence[Tuple[AffExpr, float]],
                      col_upper: Optional[np.ndarray] = None):
    """``linprog(method="highs")`` on ``system`` plus the stage rows
    ``expr <= bound``: ``ge`` rows as ``-expr <= const``, then the stage
    rows, as ``A_ub``; ``eq`` rows as ``A_eq``.  ``col_upper`` gives the
    columns' upper bounds (default: none)."""
    num_vars = system.num_variables
    ge_rows = [c.expr for c in system.constraints if c.kind == "ge"]
    eq_rows = [c.expr for c in system.constraints if c.kind == "eq"]
    stage_rows = [expr for expr, _ in extra]
    a_ub = b_ub = a_eq = b_eq = None
    if ge_rows or stage_rows:
        a_ub = vstack([_rows_matrix(ge_rows, num_vars, -1.0),
                       _rows_matrix(stage_rows, num_vars)], format="csr")
        b_ub = np.array([float(expr.const) for expr in ge_rows]
                        + [bound - float(expr.const) for expr, bound in extra])
    if eq_rows:
        a_eq = _rows_matrix(eq_rows, num_vars)
        b_eq = np.array([-float(expr.const) for expr in eq_rows])
    cost = np.zeros(num_vars)
    if objective is not None:
        for var, coeff in objective.term_items():
            cost[var.index] = float(coeff)
    if col_upper is None:
        col_upper = np.full(num_vars, np.inf)
    bounds = [(0 if var.nonneg else None,
               None if np.isinf(upper) else upper)
              for var, upper in zip(system.variables, col_upper)]
    return linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")


@pytest.fixture
def captured(monkeypatch) -> List[tuple]:
    """Every :meth:`AssembledSystem.solve` call made while the test runs,
    as ``(system, objective, stage rows, column upper bounds, outcome)``."""
    calls: List[tuple] = []
    monkeypatch.setattr(AssembledSystem, "solve", capturing_solve(calls))
    return calls


def assert_matches_linprog(calls: List[tuple]) -> None:
    assert calls, "no LP was solved"
    for number, (system, objective, extra, upper, ours) in enumerate(calls):
        reference = linprog_reference(system, objective, extra, upper)
        where = f"LP {number} ({len(extra)} stage rows)"
        if isinstance(ours, SolverError):
            assert reference.status not in (0, LINPROG_INFEASIBLE) \
                or "Model error" in ours.status, \
                f"{where}: raised {ours}; linprog: {reference.message}"
        elif ours is None:
            assert reference.status == LINPROG_INFEASIBLE, \
                f"{where}: infeasible; linprog: {reference.message}"
        else:
            assert reference.success, f"{where}: linprog {reference.message}"
            assert np.array_equal(ours.values, reference.x), where


ESCALATING = {"max_degree": 1, "auto_degree": True, "degree_limit": 2}


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_registry_cold(bench, captured):
    result = analyze_program(bench.build(), **bench.analyzer_options)
    assert result.success, result.message
    assert_matches_linprog(captured)


@pytest.mark.parametrize("bench", polynomial_benchmarks(),
                         ids=lambda b: b.name)
def test_registry_escalating(bench, captured):
    result = analyze_program(bench.build(),
                             **{**bench.analyzer_options, **ESCALATING})
    assert result.success, result.message
    # The failed degree-1 attempt is part of the corpus.
    assert any(values is None for *_, values in captured)
    assert_matches_linprog(captured)


def test_fuzz_corpus(fuzz_corpus):
    assert_matches_linprog(fuzz_corpus.solves)


def test_infeasible_and_unbounded_verdicts():
    system = ConstraintSystem()
    x = system.new_var("x", nonneg=True)
    free = system.new_var("free")
    system.add_ge(x - 1)
    assembled = AssembledSystem(system)
    # Infeasible through a stage row: x >= 1 and x <= 0.
    assert assembled.solve(x, [(x, 0.0)]) is None
    assert linprog_reference(system, x, [(x, 0.0)]).status \
        == LINPROG_INFEASIBLE
    # ... and through a column bound.
    fixed = np.array([0.0, np.inf])
    assert assembled.solve(x, [], fixed) is None
    assert linprog_reference(system, x, [], fixed).status \
        == LINPROG_INFEASIBLE
    # Unbounded: linprog fails without an infeasible verdict; we raise.
    with pytest.raises(SolverError) as excinfo:
        assembled.solve(free)
    assert excinfo.value.status == "Unbounded"
    assert linprog_reference(system, free, []).status == 3
