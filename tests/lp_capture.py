"""Capturing wrappers for the LP and rewrite oracles.

Each returns a drop-in replacement for a production function that records
its calls in a list; tests install them with ``monkeypatch.setattr``.
"""

from __future__ import annotations

from typing import List

from repro.core import rewrite
from repro.core.solver import AssembledSystem, SolverError


def capturing_solve(calls: List[tuple]):
    """:meth:`AssembledSystem.solve`, appending ``(system, objective, stage
    rows, column upper bounds, outcome)`` to ``calls`` per call.  The
    outcome is the returned :class:`~repro.core.solver.LPPoint`, ``None``
    (infeasible) or the raised :class:`SolverError`."""
    original = AssembledSystem.solve

    def capture(self, objective=None, extra=(), col_upper=None):
        extra = list(extra)
        upper = self.col_upper if col_upper is None else col_upper
        try:
            point = original(self, objective, extra, col_upper)
        except SolverError as exc:
            calls.append((self.system, objective, extra, upper, exc))
            raise
        calls.append((self.system, objective, extra, upper, point))
        return point

    return capture


def capturing_rewrites(calls: List[tuple]):
    """:func:`~repro.core.rewrite.generate_rewrites`, appending ``(positional
    arguments, result)`` to ``calls`` per call (install it where the
    derivation looks it up, ``repro.core.derivation.generate_rewrites``)."""
    original = rewrite.generate_rewrites

    def capture(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    return capture
