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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.constraints import AffExpr
from repro.core.solver import AssembledSystem


class LPSession:
    """A solver over one :class:`AssembledSystem` for one degree attempt.

    Lifecycle, as driven by :class:`~repro.core.solver.IterativeMinimizer`
    and :class:`~repro.core.pipeline.AnalysisPipeline`::

        session = LPSession(assembled)
        for stage objective:
            values = session.solve(objective)  # unless already optimal
            session.fix_objective(objective, bound)
        session.clear_stage_rows()                # drop the fix rows
    """

    def __init__(self, assembled: AssembledSystem) -> None:
        self.assembled = assembled
        #: LP solves answered so far (``PipelineStats`` reports per stage).
        self.solves = 0
        #: Stages the minimizer answered without a solve: the previous
        #: stage's optimum already gave their objective the value 0 (see
        #: :func:`~repro.core.solver.stage_already_optimal`).
        self.skipped = 0
        #: The per-attempt objective-fixing rows, in stage order.
        self._stage_rows: List[Tuple[AffExpr, float]] = []

    def solve(self, objective: Optional[AffExpr]) -> Optional[np.ndarray]:
        """Minimise ``objective`` subject to base + stage rows; None if
        infeasible (other failures raise
        :class:`~repro.core.solver.SolverError`)."""
        self.solves += 1
        return self.assembled.solve(objective, self._stage_rows)

    def fix_objective(self, objective: AffExpr, bound: float) -> None:
        """Add ``objective <= bound`` as an incremental stage row."""
        self._stage_rows.append((objective, bound))

    def clear_stage_rows(self) -> None:
        """Drop every stage row (at the end of an attempt)."""
        self._stage_rows = []
