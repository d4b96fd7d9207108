"""The interval pre-filter tier: deciders, counters, and wiring pins.

Covers the :mod:`repro.logic.intervals` box itself (bounds harvesting,
propagation, witness points, unboundedness certificates -- every decided
answer must equal the exact backend's), the engine's tier accounting
(interval hits never double-count syntactic hits, ``entails_context``'s
subset short circuit stays out of every tier), the ``prefilter`` toggle
(identical answers on and off), the generator-side ``assign`` acceptance
pin (zero Fourier-Motzkin eliminations under the polyhedra domain), and
the ``Context`` error-handling satellites (a genuine ``MemoryError``
propagates out of ``assign``; the constraint cap still degrades to havoc;
``greatest_lower_bound`` answers ``None`` on unreachable contexts).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.logic import fourier_motzkin as fm
from repro.logic.contexts import Context
from repro.logic.entailment import (EntailmentEngine, FourierMotzkinBackend,
                                    get_engine, reset_engine, resolve_prefilter,
                                    use_domain, use_prefilter)
from repro.logic.intervals import UNDECIDED, IntervalBox
from repro.logic.polyhedra import PolyhedraBackend
from repro.utils.linear import LinExpr


def expr(coeffs, const=0) -> LinExpr:
    return LinExpr({var: Fraction(value) for var, value in coeffs.items()},
                   Fraction(const))


X = LinExpr.var("x")
Y = LinExpr.var("y")
N = LinExpr.var("n")


# ---------------------------------------------------------------------------
# The box itself
# ---------------------------------------------------------------------------

class TestBoxConstruction:

    def test_single_variable_facts_become_bounds(self):
        # x >= 1 and -x + 5 >= 0 (x <= 5)
        box = IntervalBox.from_facts([X - LinExpr.const(1),
                                      -X + LinExpr.const(5)])
        assert box.bounds["x"] == (Fraction(1), Fraction(5))
        assert box.exact and not box.infeasible

    def test_crossed_bounds_prove_infeasibility(self):
        box = IntervalBox.from_facts([X - LinExpr.const(3),
                                      -X + LinExpr.const(2)])
        assert box.infeasible

    def test_negative_constant_fact_is_infeasible(self):
        box = IntervalBox.from_facts([LinExpr.const(-1)])
        assert box.infeasible

    def test_multi_variable_facts_break_exactness(self):
        box = IntervalBox.from_facts([X, Y, N - X - Y])
        assert not box.exact
        assert len(box.residual) == 1

    def test_propagation_derives_bounds_from_residual_facts(self):
        # i <= 100 and i + k - 51 >= 0 imply k >= -49.
        i = LinExpr.var("i")
        k = LinExpr.var("k")
        box = IntervalBox.from_facts([-i + LinExpr.const(100),
                                      i + k - LinExpr.const(51)])
        assert box.bounds["k"][0] == Fraction(-49)

    def test_propagation_detects_infeasibility_through_a_chain(self):
        # x >= 10, y >= x (y - x >= 0), y <= 5: crossed after one round.
        box = IntervalBox.from_facts([X - LinExpr.const(10), Y - X,
                                      -Y + LinExpr.const(5)])
        assert box.infeasible

    def test_minimum_is_corner_evaluation(self):
        box = IntervalBox.from_facts([X - LinExpr.const(1),
                                      -X + LinExpr.const(5),
                                      Y - LinExpr.const(2)])
        # min of x - y over [1,5] x [2,inf) is 1 - inf = -inf... but the
        # negative coefficient needs y's *upper* bound: unbounded.
        assert box.minimum(X - Y) is None
        # min of x + y is 1 + 2 = 3.
        assert box.minimum(X + Y) == Fraction(3)


class TestBoxDeciders:

    def test_entails_true_from_bounds(self):
        box = IntervalBox.from_facts([X - LinExpr.const(1)])
        assert box.entails(X) is True

    def test_entails_false_needs_exactness_or_witness(self):
        exact_box = IntervalBox.from_facts([X - LinExpr.const(1)])
        assert exact_box.entails(X - LinExpr.const(2)) is False
        # Witness: x >= 0, y >= 0, n - x - y >= 0; the corner x=0 extends
        # to a genuine point (y=0, n=0), so "x >= 1" is decidedly False.
        witness_box = IntervalBox.from_facts([X, Y, N - X - Y])
        assert witness_box.entails(X - LinExpr.const(1)) is False

    def test_entails_undecided_when_bounds_cannot_answer(self):
        # x <= 5 with residual x + y >= 0: min of y over the region is
        # finite (-5... no: y >= -x >= -5 via propagation) -- pick a truly
        # undecidable shape: two coupled residuals.
        box = IntervalBox.from_facts([X - Y, Y - X + LinExpr.const(1)])
        assert box.entails(X - Y - LinExpr.const(1)) in (False, UNDECIDED)

    def test_infeasible_context_entails_everything(self):
        box = IntervalBox.from_facts([LinExpr.const(-1)])
        assert box.entails(-X) is True
        assert box.is_satisfiable() is False
        assert box.glb(X) is None

    def test_satisfiable_by_witness(self):
        box = IntervalBox.from_facts([X, Y, N - X - Y])
        assert box.is_satisfiable() is True

    def test_glb_exact_box(self):
        box = IntervalBox.from_facts([X - LinExpr.const(2)])
        assert box.glb(X + LinExpr.const(1)) == Fraction(3)
        assert box.glb(-X) is None  # unbounded above => -x unbounded below

    def test_glb_by_witness_corner(self):
        # x >= 0, y >= 0, n - x - y >= 0: glb(x + y) = 0 at the origin,
        # which satisfies the residual fact (n=0).
        box = IntervalBox.from_facts([X, Y, N - X - Y])
        assert box.glb(X + Y) == Fraction(0)

    def test_glb_halfspace_proportional(self):
        # Single fact n - x - y - 1 >= 0, no bounds: glb(2n - 2x - 2y) = 2.
        fact = N - X - Y - LinExpr.const(1)
        box = IntervalBox.from_facts([fact])
        assert box.glb(expr({"n": 2, "x": -2, "y": -2})) == Fraction(2)

    def test_glb_halfspace_ratio_is_exact_and_normal(self):
        # Single fact 2n - 3x - 1 >= 0 (no bounds): a proportional form's
        # glb is const - ratio * (-1), an int when integral.
        box = IntervalBox.from_facts([2 * N - 3 * X - LinExpr.const(1)])
        half = box.glb(expr({"n": 1, "x": Fraction(-3, 2)}))
        assert half == Fraction(1, 2) and type(half) is Fraction
        three = box.glb(expr({"n": 4, "x": -6}) + LinExpr.const(1))
        assert three == 3 and type(three) is int
        # A negative multiple decreases along the fact's own normal.
        assert box.glb(expr({"n": -2, "x": 3})) is None

    def test_glb_halfspace_independent_form_is_unbounded(self):
        # Single fact a + 3b - 4 >= 0; 2a - 5 slides along the boundary:
        # decidedly unbounded (the regression from the bound-mismatch bug).
        a = LinExpr.var("a")
        b = LinExpr.var("b")
        box = IntervalBox.from_facts([a + 3 * b - LinExpr.const(4)])
        assert box.glb(2 * a - LinExpr.const(5)) is None
        assert box.entails(2 * a - LinExpr.const(5)) is False

    def test_glb_coordinate_ray_unboundedness(self):
        # i <= 100, -i - k + 50 >= 0: k can decrease without limit, so
        # i + 2k is unbounded below (witnessed non-empty).
        i = LinExpr.var("i")
        k = LinExpr.var("k")
        box = IntervalBox.from_facts([-i + LinExpr.const(100),
                                      -i - k + LinExpr.const(50)])
        assert box.glb(i + 2 * k) is None

    def test_decided_answers_match_exact_backend_on_fixed_corpus(self):
        """Every decided answer equals the exact one on a curated corpus."""
        systems = [
            [X, Y, N - X - Y],
            [X - LinExpr.const(1), -X + LinExpr.const(5)],
            [N - X - LinExpr.const(1)],
            [X - Y, Y - X + LinExpr.const(1)],
            [-X + LinExpr.const(100), -X - Y + LinExpr.const(50)],
            [LinExpr.const(-1)],
        ]
        queries = [X, -X, X + Y, X - Y, N - X, 2 * X - LinExpr.const(5),
                   X + 2 * Y - LinExpr.const(51)]
        for facts in systems:
            box = IntervalBox.from_facts(facts)
            with use_prefilter(False):
                engine = EntailmentEngine(FourierMotzkinBackend())
                for query in queries:
                    verdict = box.entails(query)
                    if verdict is not UNDECIDED:
                        assert verdict == engine.entails(tuple(facts), query), \
                            (facts, query)
                    value = box.glb(query)
                    if value is not UNDECIDED:
                        assert value == engine.greatest_lower_bound(
                            tuple(facts), query), (facts, query)
                sat = box.is_satisfiable()
                if sat is not UNDECIDED:
                    assert sat == engine.is_feasible(tuple(facts)), facts


# ---------------------------------------------------------------------------
# Engine tier accounting
# ---------------------------------------------------------------------------

class TestTierCounters:

    def make_engine(self) -> EntailmentEngine:
        return EntailmentEngine(FourierMotzkinBackend())

    def test_interval_hit_counted_once(self):
        engine = self.make_engine()
        facts = (X, Y, N - X - Y)
        with use_prefilter(True):
            assert engine.greatest_lower_bound(facts, X + Y) == Fraction(0)
        assert engine.stats.interval_hits == 1
        assert engine.stats.misses == 0
        # Second ask is a memo hit, not another interval hit.
        with use_prefilter(True):
            engine.greatest_lower_bound(facts, X + Y)
        assert engine.stats.interval_hits == 1
        assert engine.stats.memo_hits == 1

    def test_syntactic_hit_not_double_counted_as_interval(self):
        engine = self.make_engine()
        facts = (X - LinExpr.const(1),)
        with use_prefilter(True):
            # The query IS a fact: the syntactic tier answers first.
            assert engine.entails(facts, X - LinExpr.const(1)) is True
        assert engine.stats.fast_hits == 1
        assert engine.stats.interval_hits == 0

    def test_entails_context_subset_path_is_in_no_tier(self):
        stats = get_engine().stats.snapshot()
        sub = Context([X, Y])
        sup = Context([X])
        assert sub.entails_context(sup)
        delta = get_engine().stats.delta(stats)
        assert delta["queries"] == 0
        assert delta["interval_hits"] == 0

    def test_tier_partition_sums_to_queries(self):
        engine = self.make_engine()
        facts = (X, Y, N - X - Y, X - Y)
        queries = [X, X + Y, X - Y - LinExpr.const(3), N - X]
        with use_prefilter(True):
            engine.entails_many(facts, queries)
            engine.is_feasible(facts)
            engine.greatest_lower_bound(facts, X + Y)
        tiers = engine.stats.tiers()
        assert sum(tiers.values()) == engine.stats.queries

    def test_interval_hit_rate_measures_tier_reaching_queries(self):
        stats = self.make_engine().stats
        stats.queries = 10
        stats.memo_hits = 5
        stats.fast_hits = 1
        stats.interval_hits = 3
        stats.misses = 1
        assert stats.interval_hit_rate() == 0.75
        assert stats.as_dict()["tiers"]["interval"] == 3


# ---------------------------------------------------------------------------
# The prefilter toggle
# ---------------------------------------------------------------------------

class TestPrefilterToggle:

    def test_resolve_values(self):
        assert resolve_prefilter(True) is True
        assert resolve_prefilter("on") is True
        assert resolve_prefilter("off") is False
        assert resolve_prefilter(False) is False
        with pytest.raises(ValueError):
            resolve_prefilter("sometimes")

    def test_resolve_none_follows_active_setting(self):
        with use_prefilter(False):
            assert resolve_prefilter(None) is False
        with use_prefilter(True):
            assert resolve_prefilter(None) is True

    def test_answers_identical_on_and_off(self):
        facts = (X, Y, N - X - Y, X - Y)
        queries = [X, -X, X + Y, X - Y - LinExpr.const(3), N - X,
                   2 * X - LinExpr.const(5)]
        for backend in (FourierMotzkinBackend, PolyhedraBackend):
            on_engine = EntailmentEngine(backend())
            off_engine = EntailmentEngine(backend())
            with use_prefilter(True):
                on = [on_engine.entails(facts, q) for q in queries]
                on_glb = [on_engine.greatest_lower_bound(facts, q)
                          for q in queries]
                on_sat = on_engine.is_feasible(facts)
            with use_prefilter(False):
                off = [off_engine.entails(facts, q) for q in queries]
                off_glb = [off_engine.greatest_lower_bound(facts, q)
                           for q in queries]
                off_sat = off_engine.is_feasible(facts)
            assert on == off
            assert on_glb == off_glb
            assert on_sat == off_sat
            assert off_engine.stats.interval_hits == 0

    def test_engine_stats_reports_prefilter_state(self):
        from repro.logic.entailment import engine_stats
        with use_prefilter(False):
            assert engine_stats()["prefilter"] is False
        with use_prefilter(True):
            assert engine_stats()["prefilter"] is True


# ---------------------------------------------------------------------------
# Generator-side assign: the zero-FM acceptance pin
# ---------------------------------------------------------------------------

class TestAssignWithoutElimination:

    def test_polyhedra_assign_never_runs_fourier_motzkin(self):
        engine = reset_engine("polyhedra")
        with use_domain("polyhedra"):
            context = Context([X, Y, N - X - Y])
            context = context.assign("x", X + LinExpr.const(1))
            context = context.assign_interval("y", Y, Fraction(0), Fraction(2))
            context = context.assign("n", N - X)
            assert context.facts
        assert engine.stats.fm_eliminations == 0

    def test_fm_assign_matches_polyhedra_assign(self):
        fm_engine = EntailmentEngine(FourierMotzkinBackend())
        poly_engine = EntailmentEngine(PolyhedraBackend())
        facts = (X, Y, N - X - Y)
        left = fm_engine.assign(facts, "x", X + LinExpr.const(1))
        right = poly_engine.assign(facts, "x", X + LinExpr.const(1))
        assert left == right
        assert fm_engine.stats.fm_eliminations > 0
        assert poly_engine.stats.fm_eliminations == 0


# ---------------------------------------------------------------------------
# Context error handling (the bugfix satellites)
# ---------------------------------------------------------------------------

class TestContextErrorHandling:

    def test_constraint_cap_degrades_to_havoc(self, monkeypatch):
        monkeypatch.setattr(fm, "MAX_CONSTRAINTS", 0)
        reset_engine()
        context = Context([X, Y, N - X - Y])
        result = context.assign("x", X + Y)
        # The cap is a backend resource limit: the variable is havocked,
        # the analysis continues.
        assert not result.is_unreachable
        reset_engine()

    def test_real_memory_error_propagates_from_assign(self, monkeypatch):
        context = Context([X, Y])

        def exploding_assign(*args, **kwargs):
            raise MemoryError("the real thing")

        monkeypatch.setattr(get_engine(), "assign", exploding_assign)
        # A genuine MemoryError is NOT a constraint-cap signal and must not
        # be silently converted into a havoc.
        with pytest.raises(MemoryError):
            context.assign("x", X + Y)
        with pytest.raises(MemoryError):
            context.assign_interval("x", X, Fraction(0), Fraction(1))

    def test_glb_is_none_on_unreachable_context(self):
        context = Context.unreachable_context()
        assert context.greatest_lower_bound(X) is None
        # ... and on a context that *becomes* unsatisfiable.
        contradiction = Context([X - LinExpr.const(3),
                                 -X + LinExpr.const(2)])
        assert contradiction.greatest_lower_bound(X) is None

    def test_glb_on_reachable_context_is_a_certified_constant(self):
        context = Context([X - LinExpr.const(2)])
        assert context.greatest_lower_bound(X) == Fraction(2)
