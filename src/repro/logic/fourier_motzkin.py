"""Exact linear arithmetic over rationals via Fourier-Motzkin elimination.

The analyzer needs two queries over conjunctions of linear inequalities
(each written ``e >= 0`` for a :class:`~repro.utils.linear.LinExpr` ``e``):

* *feasibility* -- is the conjunction satisfiable over the rationals?
* *minimisation* -- what is ``inf { obj(x) | constraints(x) }``?

Both are answered exactly with Fourier-Motzkin elimination, which is
exponential in the worst case but perfectly adequate for the small contexts
(a handful of inequalities over a handful of variables) produced by the
abstract interpreter.  Working over the rationals instead of the integers is
a sound relaxation: any lower bound valid for all rational models is valid
for all integer models.

The paper's implementation uses a Presburger decision procedure for the same
purpose; rational FM is the standard sound approximation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.utils.linear import LinExpr
from repro.utils.rationals import Coeff, exact


class Infeasible(Exception):
    """Raised internally when a constraint system is detected unsatisfiable."""


class Unbounded(Exception):
    """Raised when a minimisation problem has no finite lower bound."""


class ConstraintCapExceeded(MemoryError):
    """Elimination blew past :data:`MAX_CONSTRAINTS`.

    Subclasses :class:`MemoryError` so existing resource-exhaustion
    handlers (``Context.assign`` havocs the variable) keep working, while
    letting the service layer recognise the blowup specifically: the
    analysis pipeline reports it as the structured ``resource-limit``
    failure kind, and the scheduler's degradation ladder retries the job
    under the ``polyhedra`` backend, which answers the same queries without
    a cap.
    """


#: Safety cap on the number of constraints produced during elimination.
MAX_CONSTRAINTS = 20_000


def _normalise(constraint: LinExpr) -> Optional[LinExpr]:
    """Scale a constraint ``e >= 0`` to a canonical form; drop trivial ones.

    Returns ``None`` for constraints that are trivially true and raises
    :class:`Infeasible` for constraints that are trivially false.
    """
    if constraint.is_constant():
        if constraint.const_term < 0:
            raise Infeasible()
        return None
    # ``normalised`` divides by |lead|, a positive factor, so the direction of
    # the inequality is preserved and positive multiples of the same
    # constraint share one canonical form.
    _, canonical = constraint.normalised()
    return canonical


def _dedupe(constraints: Iterable[LinExpr]) -> List[LinExpr]:
    """Drop duplicates and constraints dominated by a syntactically equal lhs."""
    best: dict = {}
    for constraint in constraints:
        normalised = _normalise(constraint)
        if normalised is None:
            continue
        key = normalised.coeff_items
        current = best.get(key)
        # Same linear part: keep the *stronger* inequality (larger constant
        # means a weaker requirement on the variables... e + c >= 0 with the
        # smallest c is the strongest). Keep the smallest constant.
        if current is None or normalised.const_term < current.const_term:
            best[key] = normalised
    return list(best.values())


def eliminate_variable(constraints: Sequence[LinExpr], var: str) -> List[LinExpr]:
    """Project the polyhedron ``{x | all e >= 0}`` onto the other variables."""
    lowers: List[Tuple[LinExpr, Coeff]] = []   # coeff of var > 0: lower bounds
    uppers: List[Tuple[LinExpr, Coeff]] = []   # coeff of var < 0: upper bounds
    others: List[LinExpr] = []
    for constraint in constraints:
        coeff = constraint.coefficient(var)
        if coeff > 0:
            lowers.append((constraint, coeff))
        elif coeff < 0:
            uppers.append((constraint, -coeff))
        else:
            others.append(constraint)
    result = list(others)
    for low, low_coeff in lowers:
        for high, high_coeff in uppers:
            combined = low * high_coeff + high * low_coeff
            # ``combined`` no longer mentions ``var``.
            result.append(combined)
            if len(result) > MAX_CONSTRAINTS:
                raise ConstraintCapExceeded(
                    "Fourier-Motzkin elimination exceeded the constraint cap")
    return _dedupe(result)


def eliminate_all(constraints: Sequence[LinExpr],
                  keep: Sequence[str] = ()) -> List[LinExpr]:
    """Eliminate every variable not listed in ``keep``."""
    current = _dedupe(constraints)
    variables: List[str] = []
    for constraint in current:
        for var in constraint.variables():
            if var not in variables and var not in keep:
                variables.append(var)
    # Eliminate variables appearing in the fewest constraints first; this is a
    # standard heuristic that keeps intermediate systems small.
    while variables:
        variables.sort(key=lambda v: sum(1 for c in current if c.coefficient(v) != 0))
        var = variables.pop(0)
        current = eliminate_variable(current, var)
        variables = [v for v in variables
                     if any(c.coefficient(v) != 0 for c in current)]
    return current


def is_feasible(constraints: Sequence[LinExpr]) -> bool:
    """Whether the conjunction of ``e >= 0`` constraints is satisfiable."""
    try:
        eliminate_all(constraints)
    except Infeasible:
        return False
    return True


def minimize(objective: LinExpr, constraints: Sequence[LinExpr]) -> Coeff:
    """Return ``inf { objective(x) | constraints }`` exactly.

    Raises :class:`Infeasible` if the constraint set is unsatisfiable and
    :class:`Unbounded` if the objective has no finite lower bound.
    """
    if objective.is_constant():
        if not is_feasible(constraints):
            raise Infeasible()
        return objective.const_term
    goal_var = "__objective__"
    while any(goal_var in c.variables() for c in constraints) \
            or goal_var in objective.variables():
        goal_var += "_"
    goal = LinExpr.var(goal_var)
    system = list(constraints)
    system.append(goal - objective)      # goal - objective >= 0
    system.append(objective - goal)      # objective - goal >= 0
    projected = eliminate_all(system, keep=(goal_var,))
    lower_bounds: List[Coeff] = []
    for constraint in projected:
        coeff = constraint.coefficient(goal_var)
        if coeff > 0:
            # coeff * goal + rest >= 0  =>  goal >= -rest / coeff
            lower_bounds.append(exact(Fraction(-constraint.const_term, coeff)))
        elif coeff == 0 and constraint.const_term < 0:
            raise Infeasible()
    if not lower_bounds:
        raise Unbounded()
    return max(lower_bounds)


def maximize(objective: LinExpr, constraints: Sequence[LinExpr]) -> Coeff:
    """Return ``sup { objective(x) | constraints }`` exactly (see :func:`minimize`)."""
    return -minimize(-objective, constraints)


def entails(constraints: Sequence[LinExpr], fact: LinExpr) -> bool:
    """Whether ``constraints |= fact >= 0`` (over the rationals)."""
    try:
        lowest = minimize(fact, constraints)
    except Infeasible:
        return True
    except Unbounded:
        return False
    return lowest >= 0


def greatest_lower_bound(constraints: Sequence[LinExpr],
                         expression: LinExpr) -> Optional[Coeff]:
    """The largest constant ``c`` with ``constraints |= expression >= c``.

    Returns ``None`` when no finite lower bound exists.  An unsatisfiable
    context entails everything; by convention we return ``None`` in that case
    as well (callers treat unreachable code separately).
    """
    try:
        return minimize(expression, constraints)
    except (Infeasible, Unbounded):
        return None
