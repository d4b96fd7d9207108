"""LP solving back end (paper Sec. 5, "Solving the constraints").

Absynth feeds its constraints to CoinOr's CLP; here every LP goes straight
to HiGHS through the binding SciPy bundles (``scipy.optimize._highspy``).
That module is private, so ``setup.py`` pins the SciPy range it is checked
on and ``tests/test_highs_binding.py`` checks every name used here.  The
module provides

* :class:`AssembledSystem` -- a constraint system as column-wise (CSC)
  arrays, built once per degree attempt, and the solve of one LP over it,
* :func:`solve_lp` -- solve one LP (minimise a linear objective subject to the
  collected equalities/inequalities),
* :class:`IterativeMinimizer` -- the paper's iterative objective scheme:
  starting with the highest degree, minimise the weighted coefficients of
  that degree, *fix* the achieved value as a constraint, and continue with
  the next lower degree.  This yields the tightest bound degree by degree and
  mirrors how modern LP solvers are used incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, TYPE_CHECKING)

import numpy as np
from scipy.optimize._highspy import _core as highs

from repro.core.constraints import AffExpr, ConstraintSystem, LPVar
from repro.utils.rationals import Coeff, exact, snap_fraction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.lpsession import LPSession


@dataclass
class LPSolution:
    """A solved assignment of the LP variables."""

    assignment: Dict[LPVar, Coeff]
    raw_values: np.ndarray
    objective_values: List[float] = field(default_factory=list)
    iterations: int = 0

    def value(self, var: LPVar) -> Coeff:
        return self.assignment[var]

    def evaluate(self, expr: AffExpr) -> Coeff:
        return expr.evaluate(self.assignment)


class SolverError(Exception):
    """HiGHS ended an LP with a status other than optimal or infeasible.

    ``status`` is HiGHS's name for it (e.g. ``"Unbounded"``,
    ``"Iteration limit reached"``).  This is a failure of the solve, not a
    verdict on the program, so the pipeline reports it as an
    ``analysis-error`` instead of ``no-bound``.
    """

    def __init__(self, status: str) -> None:
        super().__init__(f"the LP solver failed (HiGHS status: {status})")
        self.status = status


def _highs_options() -> "highs.HighsOptions":
    """The options SciPy's own LP front end passes HiGHS: presolve on, the
    dual simplex, no output and no debug checks.  With the same options and
    row order the vectors are bit-identical to that front end's, which
    ``tests/test_lp_oracle.py`` checks."""
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = \
        highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


_OPTIONS = _highs_options()

#: HiGHS's dual feasibility tolerance (1e-7): a reduced cost above it is
#: positive, not a rounding residue of zero.
REDUCED_COST_TOLERANCE = _OPTIONS.dual_feasibility_tolerance


class LPPoint(NamedTuple):
    """An optimal vertex of one LP and HiGHS's reduced costs there."""

    values: np.ndarray
    #: The column duals, or None when HiGHS reports them invalid.
    reduced_costs: Optional[np.ndarray]


def _row_entries(rows: Iterable[AffExpr]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column indices, values and per-row lengths of ``rows``' terms,
    in row order, from one pass over each row's term dict."""
    columns: List[int] = []
    values: List[float] = []
    lengths: List[int] = []
    for expr in rows:
        items = expr.term_items()
        lengths.append(len(items))
        for var, coeff in items:
            columns.append(var.index)
            values.append(float(coeff))
    return (np.array(columns, dtype=np.int32), np.array(values),
            np.array(lengths, dtype=np.int32))


class AssembledSystem:
    """A :class:`ConstraintSystem` as the column-wise arrays of one HiGHS model.

    Rows come in the order SciPy's LP front end stacks them: the ``ge``
    rows negated into ``-expr <= const``, then the stage rows of the
    iterative objective scheme, then the ``eq`` rows.  The base arrays are
    built once per degree attempt; each solve inserts its (one to three)
    stage rows between the two blocks and hands the model to a fresh HiGHS
    instance, a cold solve.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self.system = system
        self.num_vars = num_vars = system.num_variables
        self.num_constraints = system.num_constraints
        ge_rows = [c.expr for c in system.constraints if c.kind == "ge"]
        eq_rows = [c.expr for c in system.constraints if c.kind == "eq"]
        self.num_ge = num_ge = len(ge_rows)
        rows = ge_rows + eq_rows
        columns, values, lengths = _row_entries(rows)
        ge_entries = int(lengths[:num_ge].sum())
        values[:ge_entries] *= -1.0
        # Row-major entries -> CSC: a stable sort by column keeps each
        # column's row indices ascending.
        order = np.argsort(columns, kind="stable")
        #: CSC row indices and values of the ``ge``-then-``eq`` base rows.
        self.index = np.repeat(np.arange(len(rows), dtype=np.int32),
                               lengths)[order]
        self.value = values[order]
        self.start = np.zeros(num_vars + 1, dtype=np.int32)
        np.cumsum(np.bincount(columns, minlength=num_vars),
                  out=self.start[1:])
        #: Per column, the position after its ``ge`` entries: where the
        #: stage rows' entries go.
        self._stage_at = self.start[:-1] + np.bincount(
            columns[:ge_entries], minlength=num_vars).astype(np.int32)
        self._is_eq = self.index >= num_ge
        consts = np.fromiter((float(expr.const) for expr in rows),
                             dtype=np.float64, count=len(rows))
        # -expr <= const for ge rows; expr == 0, i.e. terms == -const, for eq.
        self.row_upper = np.concatenate([consts[:num_ge], -consts[num_ge:]])
        self.row_lower = np.concatenate([np.full(num_ge, -np.inf),
                                         -consts[num_ge:]])
        self.col_lower = np.array([0.0 if var.nonneg else -np.inf
                                   for var in system.variables])
        self.col_upper = np.full(num_vars, np.inf)

    # ``perfbench/tracer.py`` wraps this name by class attribute lookup;
    # nothing calls it.  The tracer's move into ``src/`` deletes it.
    extend = __init__

    def objective_vector(self, objective: Optional[AffExpr]) -> np.ndarray:
        c = np.zeros(self.num_vars)
        if objective is not None:
            for var, coeff in objective.term_items():
                c[var.index] = float(coeff)
        return c

    def model(self, objective: Optional[AffExpr] = None,
              extra: Sequence[Tuple[AffExpr, float]] = (),
              col_upper: Optional[np.ndarray] = None) -> "highs.HighsLp":
        """The HiGHS model: minimise ``objective`` subject to the base rows
        and the ``extra`` stage rows ``expr <= bound``, with the columns'
        upper bounds ``col_upper`` (default: none)."""
        start, index, value = self.start, self.index, self.value
        row_lower, row_upper = self.row_lower, self.row_upper
        if extra:
            columns, values, lengths = _row_entries(expr for expr, _ in extra)
            at = self._stage_at[columns]
            stage_rows = self.num_ge + np.repeat(
                np.arange(len(extra), dtype=np.int32), lengths)
            # np.insert keeps the given order at equal positions, so a
            # column's stage entries stay in stage order.
            index = np.insert(index + len(extra) * self._is_eq, at,
                              stage_rows)
            value = np.insert(value, at, values)
            start = start.copy()
            start[1:] += np.cumsum(np.bincount(columns,
                                               minlength=self.num_vars))
            at_rows = np.full(len(extra), self.num_ge)
            row_lower = np.insert(row_lower, at_rows, -np.inf)
            row_upper = np.insert(row_upper, at_rows, [
                bound - float(expr.const) for expr, bound in extra])
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = self.num_vars
        lp.num_row_ = lp.a_matrix_.num_row_ = len(row_upper)
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_cost_ = self.objective_vector(objective)
        lp.col_lower_ = self.col_lower
        lp.col_upper_ = self.col_upper if col_upper is None else col_upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        return lp

    def solve(self, objective: Optional[AffExpr] = None,
              extra: Sequence[Tuple[AffExpr, float]] = (),
              col_upper: Optional[np.ndarray] = None) -> Optional[LPPoint]:
        """Minimise ``objective`` over the system plus the ``extra`` rows
        (see :meth:`model`).

        Returns the optimal point, or None when HiGHS proves the LP
        infeasible; any other status raises :class:`SolverError`.
        """
        if self.num_vars == 0:
            return LPPoint(np.zeros(0), np.zeros(0))
        solver = highs._Highs()
        solver.passOptions(_OPTIONS)
        status = highs.HighsModelStatus.kModelError
        if solver.passModel(self.model(objective, extra, col_upper)) \
                != highs.HighsStatus.kError:
            ran = solver.run() != highs.HighsStatus.kError
            status = solver.getModelStatus()
            if ran and status == highs.HighsModelStatus.kOptimal:
                solution = solver.getSolution()
                return LPPoint(np.array(solution.col_value),
                               np.array(solution.col_dual)
                               if solution.dual_valid else None)
        if status == highs.HighsModelStatus.kInfeasible:
            return None
        raise SolverError(solver.modelStatusToString(status))


def solve_lp(system: ConstraintSystem, objective: Optional[AffExpr] = None,
             extra: Sequence[Tuple[AffExpr, float]] = ()) -> Optional[np.ndarray]:
    """Minimise ``objective`` subject to the system: the optimal column
    values, or None when the LP is infeasible (see
    :meth:`AssembledSystem.solve`)."""
    point = AssembledSystem(system).solve(objective, extra)
    return None if point is None else point.values


class IterativeMinimizer:
    """Minimise a sequence of objectives, fixing each optimum before the next.

    The base LP matrices are assembled exactly once; each stage only adds
    its incremental objective-fixing row on top of them.  The stage rows
    live in an :class:`~repro.core.lpsession.LPSession`: the pipeline's
    persistent one, or a transient one built here.  Fixing a solved stage
    also bounds at 0 the columns its reduced costs prove to be 0 in every
    optimum of that stage (:meth:`~repro.core.lpsession.LPSession.fix_objective`).
    A stage that the previous stage's optimum already solves
    (:func:`stage_already_optimal`) keeps that optimum and is not re-solved;
    its fixing row is still added.
    """

    def __init__(self, system: ConstraintSystem, tolerance: float = 1e-6) -> None:
        self.system = system
        self.tolerance = tolerance

    def solve(self, objectives: Sequence[AffExpr],
              assembled: Optional[AssembledSystem] = None,
              session: Optional["LPSession"] = None) -> Optional[LPSolution]:
        """Solve the staged objectives; ``assembled``/``session`` reuse state.

        The pipeline passes the session it built over this attempt's
        :class:`AssembledSystem`; the assembly must match the constraint
        system (same variable/constraint counts).
        """
        if session is not None:
            assembled = session.assembled
        if assembled is None:
            assembled = AssembledSystem(self.system)
        if assembled.num_vars != self.system.num_variables \
                or assembled.num_constraints != self.system.num_constraints:
            raise ValueError("assembled system is stale with respect to the "
                             "constraint system")
        if session is None:
            from repro.core.lpsession import LPSession

            session = LPSession(assembled)
        values: Optional[np.ndarray] = None
        achieved: List[float] = []
        stages = list(objectives) or [AffExpr.zero()]
        try:
            for objective in stages:
                if values is not None \
                        and stage_already_optimal(objective, values):
                    session.skipped += 1
                else:
                    values = session.solve(objective)
                    if values is None:
                        return None
                achieved_value = float(
                    assembled.objective_vector(objective) @ values
                    + float(objective.const))
                achieved.append(achieved_value)
                if not objective.is_constant():
                    session.fix_objective(objective,
                                          achieved_value + self.tolerance)
        finally:
            # Stage rows belong to this attempt only.
            session.clear_stage_rows()
        return LPSolution(assignment=snap_assignment(self.system.variables,
                                                     values),
                          raw_values=values, objective_values=achieved,
                          iterations=len(stages))


def stage_already_optimal(objective: AffExpr, values: np.ndarray) -> bool:
    """Whether ``values`` (a previous stage's optimum) minimises ``objective``.

    Exact, with no float tolerance: a constant-free objective whose terms
    all have non-negative coefficients on non-negative columns is >= 0 over
    the feasible set, and it is exactly 0 when every such column is exactly
    0.0 in ``values``.  The previous stage's point satisfies every row of
    this stage (the base system plus the fixing rows added so far), so it
    is an optimum and the stage needs no LP solve.
    """
    if objective.const != 0:
        return False
    return all(coeff >= 0 and var.nonneg and values[var.index] == 0.0
               for var, coeff in objective.term_items())


def snap_assignment(variables: Sequence[LPVar],
                    values: np.ndarray) -> Dict[LPVar, Coeff]:
    """Rationalise an LP solution; only its non-zero support is snapped.

    ``snap_fraction(0.0)`` is ``0``, so snapping just the support gives the
    same assignment as snapping every value.  Tiny negatives introduced by
    floating point on non-negative columns are clamped to 0.
    """
    assignment = dict.fromkeys(variables, 0)
    for index in np.flatnonzero(values):
        var = variables[index]
        value = exact(snap_fraction(float(values[index])))
        assignment[var] = 0 if var.nonneg and value < 0 else value
    return assignment
