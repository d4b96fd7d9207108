"""The LP session: one solver front over one assembled system.

Absynth drives one CLP instance *incrementally*: the base constraint matrix
is loaded once and each stage of the iterative objective scheme only adds
its objective-fixing row.  The staged pipeline (:mod:`repro.core.pipeline`)
builds one :class:`~repro.core.solver.AssembledSystem` and one
:class:`LPSession` per degree attempt; the session survives the attempt's
objective stages.

Every solve inserts the session's stage rows into the attempt's column-wise
arrays (:meth:`~repro.core.solver.AssembledSystem.model`) and solves that
model cold in a fresh HiGHS instance; warm starts were measured and dropped.

Fixing a solved stage also fixes columns (reduced-cost fixing).  A
non-negative column whose reduced cost at the stage's optimum is positive is
0 in *every* optimum of that stage (complementary slackness), so the later
stages, which stay on that stage's optimal face, keep it at 0 by an upper
bound of 0 and HiGHS drops it in presolve.  The objective-fixing row stays,
so a misread dual can only cost a later stage some optimality, never
soundness or an earlier stage's value.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.constraints import AffExpr
from repro.core.solver import (REDUCED_COST_TOLERANCE, AssembledSystem,
                               LPPoint)


class LPSession:
    """A solver over one :class:`AssembledSystem` for one degree attempt.

    Lifecycle, as driven by :class:`~repro.core.solver.IterativeMinimizer`
    and :class:`~repro.core.pipeline.AnalysisPipeline`::

        session = LPSession(assembled)
        for stage objective:
            values = session.solve(objective)  # unless already optimal
            session.fix_objective(objective, bound)
        session.clear_stage_rows()                # drop the fix rows
                                                  # and column bounds
    """

    def __init__(self, assembled: AssembledSystem) -> None:
        self.assembled = assembled
        #: LP solves answered so far (``PipelineStats`` reports per stage).
        self.solves = 0
        #: Stages the minimizer answered without a solve: the previous
        #: stage's optimum already gave their objective the value 0 (see
        #: :func:`~repro.core.solver.stage_already_optimal`).
        self.skipped = 0
        #: Columns fixed at 0 by reduced cost so far (see
        #: :meth:`fix_objective`).
        self.fixed = 0
        #: The per-attempt objective-fixing rows, in stage order.
        self._stage_rows: List[Tuple[AffExpr, float]] = []
        #: The columns' upper bounds for the next solve: the system's, with
        #: 0 on every fixed column.
        self._col_upper = assembled.col_upper
        #: The last solve's optimum, until :meth:`fix_objective` uses it.
        self._solved: Optional[LPPoint] = None

    def solve(self, objective: Optional[AffExpr]) -> Optional[np.ndarray]:
        """Minimise ``objective`` subject to base + stage rows; None if
        infeasible (other failures raise
        :class:`~repro.core.solver.SolverError`)."""
        self.solves += 1
        self._solved = self.assembled.solve(objective, self._stage_rows,
                                            self._col_upper)
        return None if self._solved is None else self._solved.values

    def fix_objective(self, objective: AffExpr, bound: float) -> None:
        """Add ``objective <= bound`` as an incremental stage row.

        If the stage was solved (the last :meth:`solve` since the previous
        fix), also bound at 0 every non-negative column that is 0 at its
        optimum with a reduced cost above HiGHS's dual feasibility
        tolerance.  A stage answered without a solve adds its row only.
        """
        self._stage_rows.append((objective, bound))
        solved, self._solved = self._solved, None
        if solved is None or solved.reduced_costs is None:
            return
        upper = self._col_upper
        fix = ((solved.reduced_costs > REDUCED_COST_TOLERANCE)
               & (solved.values == 0.0) & (upper != 0.0)
               & (self.assembled.col_lower == 0.0))
        if fix.any():
            self._col_upper = np.where(fix, 0.0, upper)
            self.fixed += int(np.count_nonzero(fix))

    def clear_stage_rows(self) -> None:
        """Drop every stage row and column bound (at the end of an
        attempt)."""
        self._stage_rows = []
        self._col_upper = self.assembled.col_upper
        self._solved = None
