"""Linear-arithmetic reasoning: contexts, entailment and abstract interpretation.

The derivation system of the paper threads a *logical context* Gamma through
every rule; contexts are conjunctions of linear inequalities over program
variables inferred by a simple abstract interpretation (Sec. 7.1).  The
weakening rule (``Relax``) needs to decide entailments such as
``Gamma |= n - x >= 1`` to justify rewrite functions; we discharge these with
an exact Fourier-Motzkin elimination procedure over rationals (the paper uses
a Presburger decision procedure).
"""

from repro.logic.contexts import Context
from repro.logic.conditions import facts_from_condition, negated_facts_from_condition
from repro.logic.absint import AbstractInterpreter, ContextMap
from repro.logic.entailment import (
    EntailmentEngine,
    EntailmentStats,
    get_engine,
)
from repro.logic.fourier_motzkin import (
    Infeasible,
    Unbounded,
    entails,
    is_feasible,
    minimize,
)

__all__ = [
    "Context",
    "facts_from_condition",
    "negated_facts_from_condition",
    "AbstractInterpreter",
    "ContextMap",
    "EntailmentEngine",
    "EntailmentStats",
    "get_engine",
    "Infeasible",
    "Unbounded",
    "entails",
    "is_feasible",
    "minimize",
]
