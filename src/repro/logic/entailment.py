"""The cached entailment engine fronting the exact Fourier-Motzkin backend.

The abstract interpreter and the rewrite generator ask the same small family
of questions over and over: ``Gamma |= e >= 0`` (entailment), the greatest
lower bound of an expression under ``Gamma``, and satisfiability of
``Gamma``.  A loop fixpoint alone re-asks each of them once per iteration,
and ``join``/``widen`` fan a single lattice operation out into one
entailment per fact.  Running a fresh Fourier-Motzkin elimination for each
query dominates the analyzer's wall-clock time.

:class:`EntailmentEngine` answers these queries through three layers, each
tried in order:

1. **memo cache** -- results keyed on ``(frozenset(facts), query)``, shared
   process-wide, so repeated queries (fixpoint iterations, repeated degrees,
   repeated program points) are O(1);
2. **syntactic fast paths** -- the query is a literal fact, a non-negative
   combination of at most two facts, a trivially true constant, or shares no
   variable with the context; these answer without any elimination;
3. **cached projection** -- the context is projected once onto the variables
   of the query (and, for :meth:`entails_many`, once onto the union of all
   query variables); the projection is memoised so every further query over
   the same variables reuses it and only runs a tiny final minimisation.

All layers are exact: fast paths only return definite answers, projections
are exact for rational Fourier-Motzkin, and the memo never crosses contexts.

**The backend.**  The cold layer underneath the caches is
:class:`FourierMotzkinBackend`, the hand-rolled eliminator of
:mod:`repro.logic.fourier_motzkin`.  When an elimination blows the
eliminator's constraint cap, the backend answers that one query from the
generator representation (:class:`~repro.logic.polyhedra.Polyhedron`)
instead -- also exact, so the answer is the same and no cap error ever
leaves the backend.  ``EntailmentEngine(backend=...)`` accepts any object
with the backend's methods; the test suite uses it to run whole analyses
through a polyhedra-backed engine as a differential oracle.

The engine also hosts the lattice/transfer operations (:meth:`EntailmentEngine.join`,
:meth:`~EntailmentEngine.widen`, :meth:`~EntailmentEngine.assign`), so
``Context`` never touches a solver module directly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.logic import fourier_motzkin as fm
from repro.logic.intervals import UNDECIDED, IntervalBox
from repro.logic.polyhedra import Polyhedron, canonical_constraints
from repro.utils.linear import LinExpr
from repro.utils.rationals import Coeff

FactKey = FrozenSet[LinExpr]

#: Environment variable switching the interval tier off (test oracle only).
PREFILTER_ENV = "REPRO_PREFILTER"

#: Name of the one production backend (what job results record).
FM_DOMAIN = "fm"

#: Sentinel stored in the projection cache for infeasible contexts.
_INFEASIBLE = object()

#: Do not attempt the two-fact combination fast path on larger contexts.
_PAIR_FAST_PATH_LIMIT = 16

_ZERO = 0


class EntailmentStats:
    """Counters describing how queries were answered.

    The first four counters partition the top-level queries by the tier
    that answered them (memo -> syntactic -> interval -> exact backend);
    :meth:`tiers` exposes that partition by tier name.  Note that
    ``Context.entails_context``'s syntactic-subset short circuit never
    reaches the engine at all, so it appears in *no* tier -- the counters
    describe engine queries, not every logical question asked.
    """

    __slots__ = ("queries", "memo_hits", "fast_hits", "interval_hits",
                 "misses", "eliminations", "fm_eliminations", "cap_blowups")

    def __init__(self) -> None:
        self.queries = 0          # top-level entails/glb/feasibility queries
        self.memo_hits = 0        # answered from the (facts, query) memo
        self.fast_hits = 0        # answered by a syntactic fast path
        self.interval_hits = 0    # answered by the interval pre-filter tier
        self.misses = 0           # required exact-backend work
        self.eliminations = 0     # eliminate/minimize/DD-conversion invocations
        self.fm_eliminations = 0  # Fourier-Motzkin eliminate_all invocations
        self.cap_blowups = 0      # eliminations past the FM constraint cap

    def hit_rate(self) -> float:
        """Fraction of queries answered without any elimination."""
        if not self.queries:
            return 0.0
        return (self.memo_hits + self.fast_hits
                + self.interval_hits) / self.queries

    def interval_hit_rate(self) -> float:
        """Fraction of tier-reaching queries the interval tier decided.

        Measured against the queries that fell through the memo and the
        syntactic fast paths (``interval_hits + misses``): of the queries
        that *would have* hit the exact backend, how many did the
        pre-filter shield?  This is the headline perfsmoke number.
        """
        reached = self.interval_hits + self.misses
        if not reached:
            return 0.0
        return self.interval_hits / reached

    def tiers(self) -> Dict[str, int]:
        """Per-tier answer counts, in the order the tiers are tried."""
        return {"memo": self.memo_hits, "syntactic": self.fast_hits,
                "interval": self.interval_hits, "exact": self.misses}

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, since: Dict[str, int]) -> Dict[str, int]:
        return {name: getattr(self, name) - since.get(name, 0)
                for name in self.__slots__}

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = self.snapshot()
        data["hit_rate"] = round(self.hit_rate(), 4)
        data["interval_hit_rate"] = round(self.interval_hit_rate(), 4)
        data["tiers"] = self.tiers()
        return data

    def __repr__(self) -> str:
        return (f"EntailmentStats(queries={self.queries}, "
                f"memo_hits={self.memo_hits}, fast_hits={self.fast_hits}, "
                f"interval_hits={self.interval_hits}, "
                f"misses={self.misses}, eliminations={self.eliminations})")


def assign_system(facts: Sequence[LinExpr], var: str, rhs: LinExpr,
                  low_shift: Coeff, high_shift: Coeff
                  ) -> Tuple[List[LinExpr], FrozenSet[str]]:
    """The renamed constraint system of an assignment, plus its keep set.

    The old value of ``var`` is renamed to a fresh symbol, the defining
    (in)equalities ``rhs + low <= var' <= rhs + high`` are added, and the
    caller projects the fresh symbol away.
    """
    old = f"__old_{var}__"
    renamed = [fact.substitute(var, LinExpr.var(old)) for fact in facts]
    rhs_old = rhs.substitute(var, LinExpr.var(old))
    new_var = LinExpr.var(var)
    renamed.append(new_var - rhs_old - LinExpr.const(low_shift))
    renamed.append(rhs_old + LinExpr.const(high_shift) - new_var)
    keep = frozenset(v for fact in renamed
                     for v in fact.variables() if v != old)
    return renamed, keep


class FourierMotzkinBackend:
    """The exact backend: cached Fourier-Motzkin elimination.

    Minimisation projects the context onto the objective's variables first
    (through the engine's shared projection cache, so repeated queries over
    the same variables reuse one elimination) and then minimises over the
    much smaller projected system.

    An elimination that blows :data:`~repro.logic.fourier_motzkin.MAX_CONSTRAINTS`
    is counted in ``cap_blowups`` and that one query is answered from the
    generator representation (:class:`~repro.logic.polyhedra.Polyhedron`)
    instead.  Both answers are exact, so the cap never changes a result.
    """

    name = FM_DOMAIN
    #: :meth:`EntailmentEngine.entails_many` pre-projects the context onto
    #: the union of the query variables (one elimination for the batch).
    batch_by_projection = True

    def attach(self, engine: "EntailmentEngine") -> None:
        self.engine = engine

    def is_feasible(self, facts: Sequence[LinExpr], key: FactKey) -> bool:
        try:
            self.engine.project(facts, frozenset(), key)
        except fm.Infeasible:
            return False
        return True

    def minimize(self, objective: LinExpr, facts: Sequence[LinExpr],
                 key: FactKey) -> Coeff:
        """``inf { objective | facts }``; raises ``Infeasible``/``Unbounded``."""
        projected = self.engine.project(
            facts, frozenset(objective.variables()), key)
        self.engine.stats.eliminations += 1
        try:
            _fire_cap_fault()
            return fm.minimize(objective, projected)
        except fm.ConstraintCapExceeded:
            self.engine.stats.cap_blowups += 1
            return Polyhedron.from_facts(projected).minimize(objective)

    def project(self, facts: Sequence[LinExpr],
                keep: FrozenSet[str]) -> Tuple[LinExpr, ...]:
        """Exact projection onto ``keep``; raises ``Infeasible``."""
        self.engine.stats.fm_eliminations += 1
        try:
            _fire_cap_fault()
            return tuple(fm.eliminate_all(facts, keep=sorted(keep)))
        except fm.ConstraintCapExceeded:
            self.engine.stats.cap_blowups += 1
            return Polyhedron.from_facts(facts).project(keep).constraints()

    def assign(self, facts: Sequence[LinExpr], key: FactKey, var: str,
               rhs: LinExpr, low_shift: Coeff,
               high_shift: Coeff) -> Tuple[LinExpr, ...]:
        """Strongest postcondition of ``var := rhs + [low_shift, high_shift]``.

        Projects the renamed system, then returns the *canonical minimal*
        constraint system of the result (the :meth:`Polyhedron.constraints
        <repro.logic.polyhedra.Polyhedron.constraints>` normal form):
        context fact tuples seed base-function atoms and appear verbatim in
        certificates, so they must depend on the region alone, not on how
        the projection was computed.  Raises ``Infeasible`` for unreachable
        results.
        """
        renamed, keep = assign_system(facts, var, rhs, low_shift, high_shift)
        projected = self.engine.project(renamed, keep)
        return canonical_constraints(projected)

    def clear(self) -> None:
        """No backend-private caches (the engine owns them all)."""


def _fire_cap_fault() -> None:
    """The ``fm-cap`` fault-injection site of every elimination.

    Lets tests force a constraint-cap blowup on the cold path without
    crafting a pathological program.  Cheap no-op unless a fault registry
    is installed.
    """
    from repro.service import faults

    faults.fire("fm.eliminate", FM_DOMAIN)


class EntailmentEngine:
    """Caches + fast paths fronting an exact backend."""

    #: Clear a cache wholesale once it grows past this many entries; the
    #: contexts of one program are small, so in practice this only guards
    #: long-running multi-program processes.
    MAX_ENTRIES = 200_000

    def __init__(self, backend: Optional[FourierMotzkinBackend] = None) -> None:
        self.backend = backend if backend is not None else FourierMotzkinBackend()
        self.backend.attach(self)
        self.stats = EntailmentStats()
        self.evictions = 0
        self._entails_cache: Dict[Tuple[FactKey, LinExpr], bool] = {}
        self._glb_cache: Dict[Tuple[FactKey, LinExpr], Optional[Coeff]] = {}
        self._feasible_cache: Dict[FactKey, bool] = {}
        self._projection_cache: Dict[Tuple[FactKey, FrozenSet[str]], object] = {}
        self._assign_cache: Dict[Tuple[FactKey, str, LinExpr, Coeff,
                                       Coeff], object] = {}
        # Per-context interval boxes for the pre-filter tier.  Safe to keep
        # populated (and to share answers through the memo caches) with the
        # pre-filter off: a decided interval answer always equals the exact
        # backend's answer, so cache contents are toggle-independent.
        self._box_cache: Dict[FactKey, IntervalBox] = {}
        # Per-context index for the single-fact fast path: canonical linear
        # part -> smallest canonical constant among the facts.
        self._norm_index: Dict[FactKey, Dict[Tuple, Coeff]] = {}

    # -- maintenance ------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached result (statistics are kept)."""
        self._entails_cache.clear()
        self._glb_cache.clear()
        self._feasible_cache.clear()
        self._projection_cache.clear()
        self._assign_cache.clear()
        self._box_cache.clear()
        self._norm_index.clear()
        self.backend.clear()

    def reset_stats(self) -> None:
        self.stats = EntailmentStats()

    def _guard(self, cache: Dict) -> None:
        if len(cache) > self.MAX_ENTRIES:
            cache.clear()
            self.evictions += 1

    # -- public queries ----------------------------------------------------

    def entails(self, facts: Sequence[LinExpr], query: LinExpr,
                key: Optional[FactKey] = None) -> bool:
        """Whether ``facts |= query >= 0`` over the rationals."""
        if key is None:
            key = frozenset(facts)
        self.stats.queries += 1
        return self._entails_impl(facts, key, query)

    def entails_many(self, facts: Sequence[LinExpr],
                     queries: Sequence[LinExpr],
                     key: Optional[FactKey] = None) -> List[bool]:
        """Batched :meth:`entails`: project the context once for all queries.

        The context is projected onto the union of the query variables a
        single time; every query is then decided against that (much smaller)
        system.  Answers are memoised under the *original* context so later
        point queries hit the cache.
        """
        if key is None:
            key = frozenset(facts)
        results: List[Optional[bool]] = [None] * len(queries)
        pending: List[int] = []
        for index, query in enumerate(queries):
            self.stats.queries += 1
            cached = self._entails_cache.get((key, query))
            if cached is not None:
                self.stats.memo_hits += 1
                results[index] = cached
                continue
            fast = self._fast_entails(facts, key, query)
            if fast is not None:
                self.stats.fast_hits += 1
                self._store_entails(key, query, fast)
                results[index] = fast
                continue
            if active_prefilter():
                verdict = self._box_for(key).entails(query)
                if verdict is not UNDECIDED:
                    self.stats.interval_hits += 1
                    self._store_entails(key, query, verdict)
                    results[index] = verdict
                    continue
            pending.append(index)
        if pending:
            self.stats.misses += len(pending)
            if not self.backend.batch_by_projection:
                # The backend answers point queries cheaply (the test
                # oracle's cached generator representation): no shared
                # projection.
                for index in pending:
                    results[index] = self._entails_impl(facts, key,
                                                        queries[index],
                                                        count=False)
                return results  # type: ignore[return-value]
            union_vars = frozenset(var for index in pending
                                   for var in queries[index].variables())
            try:
                base = self.project(facts, union_vars, key)
            except fm.Infeasible:
                base = None
            if base is None:
                # The context is unsatisfiable: it entails everything.
                for index in pending:
                    self._store_entails(key, queries[index], True)
                    results[index] = True
            else:
                base_key = frozenset(base)
                for index in pending:
                    query = queries[index]
                    answer = self._entails_impl(base, base_key, query,
                                                count=False)
                    self._store_entails(key, query, answer)
                    results[index] = answer
        return results  # type: ignore[return-value]

    def is_feasible(self, facts: Sequence[LinExpr],
                    key: Optional[FactKey] = None) -> bool:
        """Whether the conjunction of ``e >= 0`` facts is satisfiable."""
        if key is None:
            key = frozenset(facts)
        self.stats.queries += 1
        cached = self._feasible_cache.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        if not facts:
            self.stats.fast_hits += 1
            self._feasible_cache[key] = True
            return True
        if active_prefilter():
            verdict = self._box_for(key).is_satisfiable()
            if verdict is not UNDECIDED:
                self.stats.interval_hits += 1
                self._guard(self._feasible_cache)
                self._feasible_cache[key] = verdict
                return verdict
        self.stats.misses += 1
        result = self.backend.is_feasible(facts, key)
        self._guard(self._feasible_cache)
        self._feasible_cache[key] = result
        return result

    def greatest_lower_bound(self, facts: Sequence[LinExpr],
                             expression: LinExpr,
                             key: Optional[FactKey] = None) -> Optional[Coeff]:
        """Largest ``c`` with ``facts |= expression >= c`` (None if none)."""
        if key is None:
            key = frozenset(facts)
        self.stats.queries += 1
        cache_key = (key, expression)
        if cache_key in self._glb_cache:
            self.stats.memo_hits += 1
            return self._glb_cache[cache_key]
        result: Optional[Coeff]
        fast_answered = True
        if expression.is_constant():
            # min over any non-empty feasible set is the constant itself; the
            # unsatisfiable case returns None by convention.
            result = (expression.const_term
                      if self._feasible_quiet(facts, key) else None)
        elif not self._overlaps(facts, expression):
            # Unconstrained variables: unbounded below when feasible, and the
            # infeasible convention is None as well.
            result = None
        else:
            fast_answered = False
            if active_prefilter():
                verdict = self._box_for(key).glb(expression)
                if verdict is not UNDECIDED:
                    self.stats.interval_hits += 1
                    self._guard(self._glb_cache)
                    self._glb_cache[cache_key] = verdict
                    return verdict
            self.stats.misses += 1
            result = self._glb_cold(facts, key, expression)
        if fast_answered:
            self.stats.fast_hits += 1
        self._guard(self._glb_cache)
        self._glb_cache[cache_key] = result
        return result

    def project(self, facts: Sequence[LinExpr], keep: FrozenSet[str],
                key: Optional[FactKey] = None) -> Tuple[LinExpr, ...]:
        """Cached exact projection of ``facts`` onto the ``keep`` variables.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` for
        unsatisfiable systems (also on cache hits).
        """
        if key is None:
            key = frozenset(facts)
        cache_key = (key, keep)
        cached = self._projection_cache.get(cache_key)
        if cached is not None:
            if cached is _INFEASIBLE:
                raise fm.Infeasible()
            return cached  # type: ignore[return-value]
        self.stats.eliminations += 1
        try:
            projected = self.backend.project(facts, keep)
        except fm.Infeasible:
            self._guard(self._projection_cache)
            self._projection_cache[cache_key] = _INFEASIBLE
            raise
        self._guard(self._projection_cache)
        self._projection_cache[cache_key] = projected
        return projected

    # -- internals ---------------------------------------------------------

    def _store_entails(self, key: FactKey, query: LinExpr, result: bool) -> None:
        self._guard(self._entails_cache)
        self._entails_cache[(key, query)] = result

    def _box_for(self, key: FactKey) -> IntervalBox:
        """The (cached) interval box of a context, for the pre-filter tier."""
        box = self._box_cache.get(key)
        if box is None:
            box = IntervalBox.from_facts(key)
            self._guard(self._box_cache)
            self._box_cache[key] = box
        return box

    def _entails_impl(self, facts: Sequence[LinExpr], key: FactKey,
                      query: LinExpr, count: bool = True) -> bool:
        cached = self._entails_cache.get((key, query))
        if cached is not None:
            if count:
                self.stats.memo_hits += 1
            return cached
        fast = self._fast_entails(facts, key, query)
        if fast is not None:
            if count:
                self.stats.fast_hits += 1
            self._store_entails(key, query, fast)
            return fast
        # Interval pre-filter tier: only on counted (top-level) queries --
        # the ``count=False`` calls from :meth:`entails_many` are either
        # already-projected residues or pending queries whose tier checks
        # ran in the batch loop, and both were counted as misses there.
        if count and active_prefilter():
            verdict = self._box_for(key).entails(query)
            if verdict is not UNDECIDED:
                self.stats.interval_hits += 1
                self._store_entails(key, query, verdict)
                return verdict
        if count:
            self.stats.misses += 1
        result = self._entails_cold(facts, key, query)
        self._store_entails(key, query, result)
        return result

    def _entails_cold(self, facts: Sequence[LinExpr], key: FactKey,
                      query: LinExpr) -> bool:
        try:
            lowest = self.backend.minimize(query, facts, key)
        except fm.Infeasible:
            return True
        except fm.Unbounded:
            return False
        return lowest >= 0

    def _glb_cold(self, facts: Sequence[LinExpr], key: FactKey,
                  expression: LinExpr) -> Optional[Coeff]:
        try:
            return self.backend.minimize(expression, facts, key)
        except (fm.Infeasible, fm.Unbounded):
            return None

    def _feasible_quiet(self, facts: Sequence[LinExpr], key: FactKey) -> bool:
        """Feasibility without bumping the top-level query counters."""
        cached = self._feasible_cache.get(key)
        if cached is not None:
            return cached
        result = True if not facts else self.backend.is_feasible(facts, key)
        self._guard(self._feasible_cache)
        self._feasible_cache[key] = result
        return result

    # -- lattice and transfer operations ------------------------------------

    def join(self, facts: Sequence[LinExpr], other_facts: Sequence[LinExpr],
             key: Optional[FactKey] = None,
             other_key: Optional[FactKey] = None) -> List[LinExpr]:
        """The "common facts" join: facts of each side entailed by the other.

        Order is reproducible: ``facts`` first (in order), then the facts
        unique to ``other_facts`` (in order) -- context construction relies
        on this.
        """
        kept = [fact for fact, ok
                in zip(facts, self.entails_many(other_facts, facts, other_key))
                if ok]
        seen = set(kept)
        candidates = [fact for fact in other_facts if fact not in seen]
        kept.extend(fact for fact, ok
                    in zip(candidates,
                           self.entails_many(facts, candidates, key))
                    if ok)
        return kept

    def widen(self, facts: Sequence[LinExpr], newer_facts: Sequence[LinExpr],
              newer_key: Optional[FactKey] = None) -> List[LinExpr]:
        """Standard widening: the facts of ``facts`` still valid in ``newer``."""
        return [fact for fact, ok
                in zip(facts, self.entails_many(newer_facts, facts, newer_key))
                if ok]

    def assign(self, facts: Sequence[LinExpr], var: str, rhs: LinExpr,
               low_shift: Coeff = _ZERO,
               high_shift: Coeff = _ZERO,
               key: Optional[FactKey] = None) -> Tuple[LinExpr, ...]:
        """Strongest postcondition of ``var := rhs + [low_shift, high_shift]``.

        Delegated to the backend (see :meth:`FourierMotzkinBackend.assign`),
        which returns the *canonical minimal* constraint system of the
        result.  Raises :class:`~repro.logic.fourier_motzkin.Infeasible`
        for unreachable results.
        """
        if key is None:
            key = frozenset(facts)
        cache_key = (key, var, rhs, low_shift, high_shift)
        cached = self._assign_cache.get(cache_key)
        if cached is not None:
            if cached is _INFEASIBLE:
                raise fm.Infeasible()
            return cached  # type: ignore[return-value]
        try:
            result = self.backend.assign(facts, key, var, rhs,
                                         low_shift, high_shift)
        except fm.Infeasible:
            self._guard(self._assign_cache)
            self._assign_cache[cache_key] = _INFEASIBLE
            raise
        result = tuple(result)
        self._guard(self._assign_cache)
        self._assign_cache[cache_key] = result
        return result

    # -- syntactic fast paths ----------------------------------------------

    def _overlaps(self, facts: Sequence[LinExpr], query: LinExpr) -> bool:
        query_vars = query.variables()
        for fact in facts:
            for var, _ in fact.coeff_items:
                if var in query_vars:
                    return True
        return False

    def _norm_index_for(self, key: FactKey) -> Dict[Tuple, Coeff]:
        index = self._norm_index.get(key)
        if index is None:
            index = {}
            for fact in key:
                if fact.is_constant():
                    continue
                _, canonical = fact.normalised()
                lin = canonical.coeff_items
                const = canonical.const_term
                current = index.get(lin)
                if current is None or const < current:
                    index[lin] = const
            self._guard(self._norm_index)
            self._norm_index[key] = index
        return index

    def _fast_entails(self, facts: Sequence[LinExpr], key: FactKey,
                      query: LinExpr) -> Optional[bool]:
        """Definite answers that need no elimination; ``None`` = undecided."""
        # Constants: trivially true when non-negative; a negative constant is
        # entailed exactly by the infeasible contexts.
        if query.is_constant():
            if query.const_term >= 0:
                return True
            return not self._feasible_quiet(facts, key)
        # The query is a fact (or a positive multiple of one, possibly with
        # extra slack on the constant): f says lin >= -c_f, the query needs
        # lin >= -c_q, so any fact with c_f <= c_q decides it.
        if query in key:
            return True
        _, canonical = query.normalised()
        best = self._norm_index_for(key).get(canonical.coeff_items)
        if best is not None and canonical.const_term >= best:
            return True
        # No variable in common with the context: the query's variables are
        # unconstrained, so the minimum is -inf unless the context itself is
        # infeasible (in which case everything is entailed).
        if not self._overlaps(facts, query):
            return not self._feasible_quiet(facts, key)
        # Non-negative combination of two facts.
        if 2 <= len(key) <= _PAIR_FAST_PATH_LIMIT:
            if self._two_fact_combination(key, query):
                return True
        return None

    def _two_fact_combination(self, key: FactKey, query: LinExpr) -> bool:
        """Whether ``query = a*f1 + b*f2 + c`` with ``a, b, c >= 0`` exactly.

        Sound but deliberately incomplete: only facts whose support is
        contained in the query's support are considered, so no cancellation
        between the two facts is explored.
        """
        qmap = dict(query.coeff_items)
        qvars = set(qmap)
        candidates = [fact for fact in key
                      if all(var in qvars for var, _ in fact.coeff_items)]
        if len(candidates) < 2:
            return False
        for i, f1 in enumerate(candidates):
            m1 = dict(f1.coeff_items)
            for f2 in candidates[i + 1:]:
                m2 = dict(f2.coeff_items)
                solution = self._solve_pair(qmap, qvars, m1, m2)
                if solution is None:
                    continue
                a, b = solution
                slack = (query.const_term - a * f1.const_term
                         - b * f2.const_term)
                if slack >= 0:
                    return True
        return False

    @staticmethod
    def _solve_pair(qmap: Dict[str, Coeff], qvars: Iterable[str],
                    m1: Dict[str, Coeff],
                    m2: Dict[str, Coeff]) -> Optional[Tuple[Coeff, Coeff]]:
        """Solve ``a*m1 + b*m2 = qmap`` over all query variables, a, b >= 0."""
        variables = list(qvars)
        pivot = None
        for p, v1 in enumerate(variables):
            for v2 in variables[p + 1:]:
                det = (m1.get(v1, _ZERO) * m2.get(v2, _ZERO)
                       - m1.get(v2, _ZERO) * m2.get(v1, _ZERO))
                if det != 0:
                    pivot = (v1, v2, det)
                    break
            if pivot:
                break
        if pivot is None:
            return None
        v1, v2, det = pivot
        q1, q2 = qmap[v1], qmap[v2]
        a = Fraction(q1 * m2.get(v2, _ZERO) - q2 * m2.get(v1, _ZERO), det)
        b = Fraction(m1.get(v1, _ZERO) * q2 - m1.get(v2, _ZERO) * q1, det)
        if a < 0 or b < 0:
            return None
        for var in variables:
            if a * m1.get(var, _ZERO) + b * m2.get(var, _ZERO) != qmap[var]:
                return None
        return a, b


# ---------------------------------------------------------------------------
# The interval pre-filter toggle
# ---------------------------------------------------------------------------
#
# The pre-filter is observational: every answer the interval tier decides
# equals the exact backend's answer, so toggling it changes *which tier*
# answers (and how fast), never *what* is answered.  The tier is therefore
# always on in production; the off switch exists only as a test oracle:
# ``$REPRO_PREFILTER=off`` for a whole process (the CI oracle leg) or a
# :func:`use_prefilter` block (the on/off identity tests).  It is not an
# analyzer option and takes no part in the job hash.

#: The process-wide pre-filter override; ``None`` = process default.
_ACTIVE_PREFILTER: Optional[bool] = None


def resolve_prefilter(value) -> bool:
    """Normalise a pre-filter setting (bool, ``"on"``/``"off"``, ``None``).

    ``None`` resolves to the *active* setting, so an analysis without an
    explicit choice inherits an enclosing :func:`use_prefilter` block or
    the process default.
    """
    if value is None:
        return active_prefilter()
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("on", "1", "true", "yes"):
            return True
        if lowered in ("off", "0", "false", "no"):
            return False
        raise ValueError(f"invalid pre-filter setting {value!r}; "
                         f"expected 'on' or 'off'")
    return bool(value)


def default_prefilter() -> bool:
    """The process-default pre-filter state: ``$REPRO_PREFILTER`` or on."""
    value = os.environ.get(PREFILTER_ENV)
    if value is None or not value.strip():
        return True
    return resolve_prefilter(value)


def active_prefilter() -> bool:
    """Whether the interval tier currently fronts the exact backend."""
    return (_ACTIVE_PREFILTER if _ACTIVE_PREFILTER is not None
            else default_prefilter())


@contextmanager
def use_prefilter(enabled: Optional[bool]) -> Iterator[bool]:
    """Run a block with the pre-filter forced on/off (restored on exit).

    The in-process oracle switch: tests compare an analysis inside
    ``use_prefilter(False)`` with one inside ``use_prefilter(True)``.
    """
    state = resolve_prefilter(enabled)
    global _ACTIVE_PREFILTER
    saved = _ACTIVE_PREFILTER
    _ACTIVE_PREFILTER = state
    try:
        yield state
    finally:
        _ACTIVE_PREFILTER = saved


# ---------------------------------------------------------------------------
# The process-wide engine
# ---------------------------------------------------------------------------

#: The engine every ``Context`` operation uses, created lazily.
_ENGINE: Optional[EntailmentEngine] = None


def get_engine(domain: str = FM_DOMAIN) -> EntailmentEngine:
    """The process-wide engine.

    ``domain`` names the backend, for callers that pass what a job result
    records (:func:`repro.service.jobs.job_domain`); ``"fm"`` is the only
    one.
    """
    if domain != FM_DOMAIN:
        raise ValueError(f"unknown abstract domain {domain!r}; "
                         f"the only one is {FM_DOMAIN!r}")
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = EntailmentEngine()
    return _ENGINE


# -- per-process lifecycle hooks (used by repro.service.scheduler) ----------

def reset_engine() -> EntailmentEngine:
    """Install a brand-new engine and return it.

    Worker processes call this from their initializer: a forked worker
    inherits the parent's engine object, and a fresh instance both drops
    that inherited state and guarantees that nothing the worker computes
    can leak back into (or appear to come from) the parent's caches.
    """
    global _ENGINE
    _ENGINE = EntailmentEngine()
    return _ENGINE


def engine_stats() -> Dict[str, object]:
    """The engine's counters as a dict, including the per-tier breakdown.

    The ``tiers`` entry partitions answered queries by the tier that
    decided them (``memo`` -> ``syntactic`` -> ``interval`` -> ``exact``);
    ``prefilter`` records whether the interval tier is currently active.
    """
    data = get_engine().stats.as_dict()
    data["prefilter"] = active_prefilter()
    return data


def engine_fingerprint() -> Dict[str, object]:
    """Identity + cache occupancy of the engine (for isolation tests)."""
    engine = get_engine()
    return {
        "pid": os.getpid(),
        "engine_id": id(engine),
        "queries": engine.stats.queries,
        "eliminations": engine.stats.eliminations,
        "entails_entries": len(engine._entails_cache),
        "projection_entries": len(engine._projection_cache),
    }


def warm_engine() -> EntailmentEngine:
    """Pay per-process one-time costs up front; return the warm engine.

    Importing the LP stack and exercising one tiny end-to-end query moves
    module-import and first-touch costs out of the first real job, so
    per-job wall times measured in a worker are comparable to a warm
    sequential process.
    """
    import repro.core.solver          # noqa: F401  (scipy import)
    import repro.lang.parser          # noqa: F401

    engine = get_engine()
    x = LinExpr({"x": 1})
    engine.entails((x,), x)
    engine.clear()
    engine.reset_stats()
    return engine
