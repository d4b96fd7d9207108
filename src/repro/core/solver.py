"""LP solving back end (paper Sec. 5, "Solving the constraints").

Absynth feeds its constraints to CoinOr's CLP; here we use SciPy's HiGGS/
HiGHS-based ``linprog``.  The module provides

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
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix, vstack

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
    """Raised when the LP solver fails unexpectedly (not mere infeasibility)."""


def _rows_to_csr(rows: Sequence[AffExpr], num_vars: int,
                 sign: float = 1.0) -> Optional[csr_matrix]:
    """Assemble ``sign * rows`` as one CSR matrix via COO triplet arrays.

    Vectorised replacement for entry-by-entry ``lil_matrix`` writes: the
    (row, col, value) triplets are materialised once with ``np.fromiter`` and
    handed to ``coo_matrix`` in a single call.
    """
    if not rows:
        return None
    triplets = [(row_index, var.index, coeff)
                for row_index, expr in enumerate(rows)
                for var, coeff in expr.term_items()]
    count = len(triplets)
    row_idx = np.fromiter((t[0] for t in triplets), dtype=np.intp, count=count)
    col_idx = np.fromiter((t[1] for t in triplets), dtype=np.intp, count=count)
    values = np.fromiter((float(t[2]) for t in triplets), dtype=np.float64,
                         count=count)
    if sign != 1.0:
        values *= sign
    return coo_matrix((values, (row_idx, col_idx)),
                      shape=(len(rows), num_vars)).tocsr()


def _column_bounds(variables: Sequence[LPVar]) -> np.ndarray:
    """``[0, inf)`` for non-negative columns, ``(-inf, inf)`` otherwise."""
    bounds = np.empty((len(variables), 2))
    bounds[:, 0] = [0.0 if var.nonneg else -np.inf for var in variables]
    bounds[:, 1] = np.inf
    return bounds


class AssembledSystem:
    """A :class:`ConstraintSystem` translated once into ``linprog`` arrays.

    The base equality/inequality matrices are built once per degree
    attempt and never change; per-stage ``extra`` upper-bound rows from the
    iterative objective scheme are assembled separately and stacked with
    ``scipy.sparse.vstack``, so repeated solves over the same system never
    rebuild the base matrices.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self.system = system
        self.num_vars = system.num_variables
        self.num_constraints = system.num_constraints
        eq_rows = [c.expr for c in system.constraints if c.kind == "eq"]
        ge_rows = [c.expr for c in system.constraints if c.kind == "ge"]
        self.a_eq = _rows_to_csr(eq_rows, self.num_vars)
        self.b_eq = (np.fromiter((-float(e.const) for e in eq_rows),
                                 dtype=np.float64, count=len(eq_rows))
                     if eq_rows else None)
        # expr >= 0   <=>   -expr <= 0
        self.a_ub_base = _rows_to_csr(ge_rows, self.num_vars, sign=-1.0)
        self.b_ub_base = (np.fromiter((float(e.const) for e in ge_rows),
                                      dtype=np.float64, count=len(ge_rows))
                          if ge_rows else None)
        #: ``(num_vars, 2)`` column bounds, built once: ``linprog`` cleans
        #: an array in a fraction of the time a list of tuples takes.
        self.bounds = _column_bounds(system.variables)
        #: Incremental cache of the assembled per-stage ``extra`` rows:
        #: the (expr, bound) prefix already assembled, its CSR block and
        #: right-hand side.  See :meth:`_assemble_extras`.
        self._extras_cache: Optional[
            Tuple[List[Tuple[AffExpr, float]], csr_matrix, np.ndarray]] = None

    # ``perfbench/tracer.py`` wraps this name by class attribute lookup;
    # nothing calls it.  The tracer's move into ``src/`` deletes it.
    extend = __init__

    def _assemble_extras(self, extra: Sequence[Tuple[AffExpr, float]]
                         ) -> Tuple[csr_matrix, np.ndarray]:
        """Assemble the ``extra`` rows, reusing the cached prefix.

        The iterative objective scheme grows ``extra`` by exactly one row
        per stage, so re-running ``_rows_to_csr`` over the whole list every
        solve re-did all but the newest row's work.  The cache keeps the
        previously assembled block and appends only the unseen suffix;
        any non-prefix call (fresh stage list, changed bound) falls back to
        a full rebuild.
        """
        cached = self._extras_cache
        if cached is not None:
            prefix, block, rhs = cached
            if len(prefix) <= len(extra) \
                    and all(old_expr is new_expr and old_bound == new_bound
                            for (old_expr, old_bound), (new_expr, new_bound)
                            in zip(prefix, extra)):
                if len(prefix) < len(extra):
                    suffix = extra[len(prefix):]
                    block = vstack(
                        [block, _rows_to_csr([expr for expr, _ in suffix],
                                             self.num_vars)],
                        format="csr")
                    rhs = np.concatenate([rhs, np.fromiter(
                        (bound - float(expr.const) for expr, bound in suffix),
                        dtype=np.float64, count=len(suffix))])
                    self._extras_cache = (list(extra), block, rhs)
                return block, rhs
        block = _rows_to_csr([expr for expr, _ in extra], self.num_vars)
        rhs = np.fromiter((bound - float(expr.const)
                           for expr, bound in extra),
                          dtype=np.float64, count=len(extra))
        self._extras_cache = (list(extra), block, rhs)
        return block, rhs

    def matrices(self, extra: Sequence[Tuple[AffExpr, float]] = ()):
        """The ``(A_ub, b_ub, A_eq, b_eq, bounds)`` tuple for ``linprog``."""
        a_ub, b_ub = self.a_ub_base, self.b_ub_base
        if extra:
            a_extra, b_extra = self._assemble_extras(extra)
            if a_ub is None:
                a_ub, b_ub = a_extra, b_extra
            else:
                a_ub = vstack([a_ub, a_extra], format="csr")
                b_ub = np.concatenate([b_ub, b_extra])
        return a_ub, b_ub, self.a_eq, self.b_eq, self.bounds

    def objective_vector(self, objective: Optional[AffExpr]) -> np.ndarray:
        c = np.zeros(self.num_vars)
        if objective is not None:
            for var, coeff in objective.term_items():
                c[var.index] = float(coeff)
        return c

    def solve(self, objective: Optional[AffExpr] = None,
              extra: Sequence[Tuple[AffExpr, float]] = ()) -> Optional[np.ndarray]:
        """Minimise ``objective`` over the system; return values or None."""
        if self.num_vars == 0:
            return np.zeros(0)
        a_ub, b_ub, a_eq, b_eq, bounds = self.matrices(extra)
        result = linprog(self.objective_vector(objective), A_ub=a_ub, b_ub=b_ub,
                         A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if not result.success:
            return None
        return result.x


def solve_lp(system: ConstraintSystem, objective: Optional[AffExpr] = None,
             extra: Sequence[Tuple[AffExpr, float]] = ()) -> Optional[np.ndarray]:
    """Minimise ``objective`` subject to the system; return values or None."""
    return AssembledSystem(system).solve(objective, extra)


class IterativeMinimizer:
    """Minimise a sequence of objectives, fixing each optimum before the next.

    The base LP matrices are assembled exactly once; each stage only adds
    its incremental objective-fixing row on top of them.  The stage rows
    live in an :class:`~repro.core.lpsession.LPSession`: the pipeline's
    persistent one, or a transient one built here.  A stage that the
    previous stage's optimum already solves (:func:`stage_already_optimal`)
    keeps that optimum and is not re-solved; its fixing row is still added.
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
