"""Logical contexts Gamma: conjunctions of linear inequalities over program state.

A :class:`Context` corresponds to the paper's logical context Gamma, a
predicate describing the set of permitted states at a program point.  It is
represented as a conjunction of facts ``e >= 0`` (``LinExpr`` instances) plus
an explicit "unreachable" flag for contexts equivalent to ``false``.

Contexts support the operations the analysis needs:

* entailment queries (``Gamma |= e >= 0``) and greatest lower bounds, used to
  justify rewrite functions in ``Q:Weaken``,
* the strongest-postcondition style transfers for assignments and sampling
  assignments, used by the abstract interpreter,
* join and widening, used for loop fixpoints.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic import fourier_motzkin as fm
from repro.logic.entailment import get_engine
from repro.utils.linear import LinExpr
from repro.utils.rationals import Coeff, Number, exact


class Context:
    """An immutable conjunction of linear facts ``e >= 0``.

    All entailment/feasibility/lower-bound queries are routed through the
    process-wide :class:`~repro.logic.entailment.EntailmentEngine`, which
    memoises answers per ``(facts, query)`` and shares Fourier-Motzkin
    projections across queries.
    """

    __slots__ = ("_facts", "_unreachable", "_fact_set")

    def __init__(self, facts: Iterable[LinExpr] = (), unreachable: bool = False) -> None:
        cleaned: List[LinExpr] = []
        seen = set()
        for fact in facts:
            if fact.is_constant():
                if fact.const_term < 0:
                    unreachable = True
                continue
            if fact not in seen:
                seen.add(fact)
                cleaned.append(fact)
        self._facts: Tuple[LinExpr, ...] = tuple(cleaned)
        self._fact_set: FrozenSet[LinExpr] = frozenset(cleaned)
        self._unreachable = bool(unreachable)

    # -- constructors --------------------------------------------------------

    @classmethod
    def top(cls) -> "Context":
        """The context with no information (all states permitted)."""
        return cls()

    @classmethod
    def unreachable_context(cls) -> "Context":
        return cls((), unreachable=True)

    # -- accessors --------------------------------------------------------------

    @property
    def facts(self) -> Tuple[LinExpr, ...]:
        return self._facts

    @property
    def is_unreachable(self) -> bool:
        return self._unreachable

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for fact in self._facts:
            names.update(fact.variables())
        return names

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return (self._unreachable == other._unreachable
                and self._fact_set == other._fact_set)

    def __hash__(self) -> int:
        return hash((self._unreachable, self._fact_set))

    def __repr__(self) -> str:
        if self._unreachable:
            return "Context(unreachable)"
        if not self._facts:
            return "Context(top)"
        inner = " && ".join(f"{fact} >= 0" for fact in self._facts)
        return f"Context({inner})"

    # -- logical operations ---------------------------------------------------------

    def add_facts(self, facts: Iterable[LinExpr]) -> "Context":
        """Conjoin additional facts ``e >= 0``."""
        if self._unreachable:
            return self
        return Context(self._facts + tuple(facts))

    def conjoin(self, other: "Context") -> "Context":
        if self._unreachable or other._unreachable:
            return Context.unreachable_context()
        return Context(self._facts + other._facts)

    def is_satisfiable(self) -> bool:
        if self._unreachable:
            return False
        return get_engine().is_feasible(self._facts, self._fact_set)

    def entails(self, fact: LinExpr) -> bool:
        """Whether ``self |= fact >= 0``."""
        if self._unreachable:
            return True
        return get_engine().entails(self._facts, fact, self._fact_set)

    def entails_many(self, facts: Sequence[LinExpr]) -> List[bool]:
        """Batched :meth:`entails`: one projection for all candidate facts."""
        if self._unreachable:
            return [True] * len(facts)
        return get_engine().entails_many(self._facts, facts, self._fact_set)

    def entails_context(self, other: "Context") -> bool:
        """Whether ``self |= other`` (every fact of ``other`` is implied)."""
        if self._unreachable:
            return True
        if other._unreachable:
            return not self.is_satisfiable()
        # Syntactic subset: every fact of ``other`` appears literally.  This
        # short circuit never reaches the engine, so it is counted in *no*
        # tier of the engine's per-tier hit statistics -- in particular it
        # cannot double-count against the interval pre-filter's counters
        # (``tests/test_intervals.py`` pins this).
        if other._fact_set <= self._fact_set:
            return True
        return all(self.entails_many(other._facts))

    def greatest_lower_bound(self, expression: LinExpr) -> Optional[Coeff]:
        """The largest ``c`` with ``self |= expression >= c``, or ``None``.

        ``None`` means "no finite greatest lower bound exists": either
        ``expression`` is unbounded below under the context, or the
        context is unsatisfiable/unreachable -- an unreachable context
        entails ``expression >= c`` for *every* ``c``, so no largest one
        exists.  Callers (the rewrite generator in
        :mod:`repro.core.rewrite`) use the returned value as a certified
        constant, so the sentinel deliberately conflates the two cases:
        both mean "there is no constant you can cite".  The engine's
        backends follow the same convention
        (:func:`repro.logic.fourier_motzkin.greatest_lower_bound`).
        """
        if self._unreachable:
            return None
        return get_engine().greatest_lower_bound(self._facts, expression,
                                                 self._fact_set)

    # -- state transformers (used by the abstract interpreter) ----------------------

    def havoc(self, var: str) -> "Context":
        """Forget all information about ``var``."""
        if self._unreachable:
            return self
        kept = [fact for fact in self._facts if fact.coefficient(var) == 0]
        return Context(kept)

    def rename(self, mapping) -> "Context":
        if self._unreachable:
            return self
        return Context(tuple(fact.rename(mapping) for fact in self._facts))

    def assign(self, var: str, rhs: LinExpr) -> "Context":
        """Strongest postcondition of the assignment ``var := rhs``.

        Delegated to :meth:`EntailmentEngine.assign
        <repro.logic.entailment.EntailmentEngine.assign>`: the old value of
        ``var`` is renamed to a fresh symbol, the defining equality for the
        new value is added and the fresh symbol is projected away through
        the active abstract-domain backend.  Exact for linear right-hand
        sides.
        """
        if self._unreachable:
            return self
        try:
            projected = get_engine().assign(self._facts, var, rhs,
                                            key=self._fact_set)
        except fm.ConstraintCapExceeded:
            # Only the eliminator's *own* cap falls back to the sound
            # over-approximation; a genuine interpreter MemoryError must
            # propagate instead of being swallowed as imprecision.
            return self.havoc(var)
        except fm.Infeasible:
            return Context.unreachable_context()
        return Context(projected)

    def assign_interval(self, var: str, rhs: LinExpr,
                        low_shift: Number, high_shift: Number) -> "Context":
        """Postcondition of ``var := rhs + delta`` with ``delta in [low, high]``.

        Used for sampling assignments ``x = e + R`` with ``R`` ranging over a
        finite support: the new value lies between ``rhs + low`` and
        ``rhs + high``.
        """
        if self._unreachable:
            return self
        try:
            projected = get_engine().assign(self._facts, var, rhs,
                                            exact(low_shift),
                                            exact(high_shift),
                                            key=self._fact_set)
        except fm.ConstraintCapExceeded:
            return self.havoc(var)
        except fm.Infeasible:
            return Context.unreachable_context()
        return Context(projected)

    # -- lattice operations ------------------------------------------------------------

    def join(self, other: "Context") -> "Context":
        """A sound over-approximation of the union of the two state sets.

        We keep the facts of each side that are entailed by the other side
        (the "common facts" join); this is the simple abstract domain the
        paper describes as sufficient in practice.
        """
        if self._unreachable:
            return other
        if other._unreachable:
            return self
        return Context(get_engine().join(self._facts, other._facts,
                                         self._fact_set, other._fact_set))

    def widen(self, newer: "Context") -> "Context":
        """Standard widening: keep only the facts of ``self`` still valid in ``newer``."""
        if self._unreachable:
            return newer
        if newer._unreachable:
            return self
        return Context(get_engine().widen(self._facts, newer._facts,
                                          newer._fact_set))

    # -- miscellaneous --------------------------------------------------------------------

    def satisfied_by(self, state) -> bool:
        """Whether a concrete state satisfies every fact (used in tests)."""
        if self._unreachable:
            return False
        return all(fact.evaluate(state) >= 0 for fact in self._facts)
