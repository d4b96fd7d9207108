"""Tests for the cached entailment engine (:mod:`repro.logic.entailment`).

The engine must be a *transparent* cache: for every query the answer has to
equal what a cold call into :mod:`repro.logic.fourier_motzkin` produces,
across memo hits, syntactic fast paths and batched projection.  The tests
therefore cross-check randomized contexts against the uncached ground truth,
and pin down the edge cases (``Unbounded``, ``Infeasible``, the
constraint-cap ``MemoryError`` fallback in ``Context.assign``).
"""

import random
from fractions import Fraction

import pytest

from repro.logic import fourier_motzkin as fm
from repro.logic.contexts import Context
from repro.logic.entailment import EntailmentEngine, get_engine
from repro.utils.linear import LinExpr


def lin(coeffs=None, const=0):
    return LinExpr(coeffs or {}, const)


X = lin({"x": 1})
Y = lin({"y": 1})
Z = lin({"z": 1})


def random_expr(rng, variables, max_coeff=3, max_const=5):
    coeffs = {var: rng.randint(-max_coeff, max_coeff) for var in variables
              if rng.random() < 0.7}
    return LinExpr(coeffs, rng.randint(-max_const, max_const))


class TestCachedEqualsCold:
    """Property-style: cached answers equal cold Fourier-Motzkin answers."""

    def test_randomized_contexts(self):
        rng = random.Random(20260727)
        for trial in range(60):
            variables = ["x", "y", "z"][:rng.randint(1, 3)]
            facts = [random_expr(rng, variables)
                     for _ in range(rng.randint(0, 4))]
            queries = [random_expr(rng, variables) for _ in range(4)]
            engine = EntailmentEngine()
            for query in queries:
                expected = fm.entails(facts, query)
                assert engine.entails(facts, query) is expected, \
                    f"trial {trial}: cold mismatch for {facts} |= {query}"
                # Second ask must come from the memo and agree.
                hits_before = engine.stats.memo_hits
                assert engine.entails(facts, query) is expected
                assert engine.stats.memo_hits == hits_before + 1
            # Batched answers agree with the individual ones.
            fresh = EntailmentEngine()
            assert fresh.entails_many(facts, queries) \
                == [fm.entails(facts, q) for q in queries]

    def test_randomized_lower_bounds(self):
        rng = random.Random(4711)
        for trial in range(40):
            variables = ["x", "y"][:rng.randint(1, 2)]
            facts = [random_expr(rng, variables)
                     for _ in range(rng.randint(0, 3))]
            expression = random_expr(rng, variables)
            expected = fm.greatest_lower_bound(facts, expression)
            engine = EntailmentEngine()
            assert engine.greatest_lower_bound(facts, expression) == expected
            assert engine.greatest_lower_bound(facts, expression) == expected

    def test_randomized_feasibility(self):
        rng = random.Random(99)
        for _ in range(40):
            facts = [random_expr(rng, ["x", "y"]) for _ in range(rng.randint(0, 4))]
            engine = EntailmentEngine()
            assert engine.is_feasible(facts) is fm.is_feasible(facts)

    def test_clear_preserves_answers(self):
        engine = EntailmentEngine()
        facts = [X - 1, 10 - X]
        assert engine.entails(facts, X) is True
        engine.clear()
        assert engine.entails(facts, X) is True


class TestFastPaths:
    def test_literal_fact(self):
        engine = EntailmentEngine()
        assert engine.entails([X - 1], X - 1) is True
        assert engine.stats.fast_hits == 1
        assert engine.stats.eliminations == 0

    def test_scaled_fact_with_slack(self):
        engine = EntailmentEngine()
        # 3x - 3 >= 0 is (x - 1) scaled; 2x - 1 >= 0 is x - 1 scaled + slack.
        assert engine.entails([X - 1], (X - 1) * 3) is True
        assert engine.entails([X - 1], X * 2 - 1) is True
        assert engine.stats.eliminations == 0

    def test_two_fact_combination(self):
        engine = EntailmentEngine()
        # x >= 1 and y >= 2 entail 2x + 3y >= 8 (a=2, b=3, slack 0).
        assert engine.entails([X - 1, Y - 2],
                              X * 2 + Y * 3 - 8) is True
        assert engine.stats.eliminations == 0

    def test_trivial_constant(self):
        engine = EntailmentEngine()
        assert engine.entails([X], lin({}, 5)) is True
        assert engine.stats.eliminations == 0

    def test_no_variable_overlap_is_not_entailed(self):
        engine = EntailmentEngine()
        # A feasible context says nothing about z.
        assert engine.entails([X - 1], Z) is False

    def test_fast_paths_never_contradict_cold_answers(self):
        rng = random.Random(3141)
        for _ in range(50):
            facts = [random_expr(rng, ["x", "y"]) for _ in range(2)]
            scale = rng.randint(1, 4)
            slack = rng.randint(0, 3)
            query = facts[0] * scale + slack
            assert EntailmentEngine().entails(facts, query) \
                is fm.entails(facts, query)


class TestEdgeCases:
    def test_infeasible_context_entails_everything(self):
        engine = EntailmentEngine()
        facts = [X - 1, -X]          # x >= 1 and x <= 0
        assert engine.is_feasible(facts) is False
        assert engine.entails(facts, lin({}, -5)) is True
        assert engine.entails(facts, Y - 100) is True
        # glb convention: None for unsatisfiable contexts.
        assert engine.greatest_lower_bound(facts, X) is None

    def test_unbounded_minimisation(self):
        with pytest.raises(fm.Unbounded):
            fm.minimize(X, [])
        assert EntailmentEngine().greatest_lower_bound([], X) is None
        assert EntailmentEngine().greatest_lower_bound([10 - X], X) is None

    def test_constant_expression_lower_bound(self):
        engine = EntailmentEngine()
        assert engine.greatest_lower_bound([X], lin({}, 7)) == 7
        assert engine.greatest_lower_bound([X - 1, -X], lin({}, 7)) is None

    def test_projection_raises_infeasible_on_cache_hit(self):
        engine = EntailmentEngine()
        facts = (X - 1, -X)
        with pytest.raises(fm.Infeasible):
            engine.project(facts, frozenset())
        with pytest.raises(fm.Infeasible):
            engine.project(facts, frozenset())

    def test_constraint_cap_answers_exactly(self, monkeypatch):
        # Force the constraint cap to blow on every elimination: each
        # capped query is answered from the generator representation, so
        # projections, bounds and strongest posts stay exact (no havoc).
        facts = (X - 1, 10 - X, Y - 2, 20 - X - Y)
        queries = (X - 1, X + Y - 3, Y - 19, 30 - X - 2 * Y)

        def answers(engine):
            return (engine.assign(facts, "x", X + Y),
                    [engine.entails(facts, query) for query in queries],
                    [engine.greatest_lower_bound(facts, query)
                     for query in queries])

        reference = EntailmentEngine()
        expected = answers(reference)
        projection = reference.project(facts, frozenset({"y"}))
        capped = EntailmentEngine()
        with monkeypatch.context() as patch:
            patch.setattr(fm, "MAX_CONSTRAINTS", 0)
            assert answers(capped) == expected
            capped_projection = capped.project(facts, frozenset({"y"}))
        assert capped.stats.cap_blowups > 0
        assert reference.stats.cap_blowups == 0
        # Same set, though not the same representation: the capped
        # projection comes back in the canonical form.
        assert all(fm.entails(capped_projection, fact) for fact in projection)
        assert all(fm.entails(projection, fact) for fact in capped_projection)

    def test_oracle_assign_immune_to_constraint_cap(self, monkeypatch,
                                                    polyhedra_oracle):
        # The oracle's generator-side assign never runs Fourier-Motzkin, so
        # even with the cap at zero its strongest post equals the uncapped
        # FM one, and nothing reaches the cap path.
        context = Context([X - 1, 10 - X, Y - 2])
        reference = context.assign("x", X + Y)
        monkeypatch.setattr(fm, "MAX_CONSTRAINTS", 0)
        with polyhedra_oracle() as engine:
            exact = context.assign("x", X + Y)
        assert set(exact.facts) == set(reference.facts)
        assert engine.stats.cap_blowups == 0

    def test_assign_detects_infeasibility(self):
        context = Context([X - 1])
        # x := x with the impossible extra fact -x - 1 >= 0 conjoined first.
        contradictory = context.add_facts([-X - 1])
        assert not contradictory.is_satisfiable()
        assert contradictory.assign("y", X).is_unreachable or \
            not contradictory.assign("y", X).is_satisfiable()


class TestContextIntegration:
    def test_join_equals_pairwise_entailment(self):
        rng = random.Random(777)
        for _ in range(25):
            left = Context([random_expr(rng, ["x", "y"]) for _ in range(2)])
            right = Context([random_expr(rng, ["x", "y"]) for _ in range(2)])
            joined = left.join(right)
            if left.is_unreachable or right.is_unreachable:
                assert joined == (right if left.is_unreachable else left)
                continue
            expected = [f for f in left.facts if fm.entails(right.facts, f)]
            expected += [f for f in right.facts
                         if f not in expected and fm.entails(left.facts, f)]
            assert set(joined.facts) == {f for f in expected
                                         if not f.is_constant()}

    def test_join_deduplicates_shared_facts(self):
        shared = X - 1
        left = Context([shared, Y - 2])
        right = Context([shared, Y - 3])
        joined = left.join(right)
        assert list(joined.facts).count(shared) == 1

    def test_entails_context_subset_short_circuit(self):
        engine = get_engine()
        big = Context([X - 1, Y - 2, 10 - X])
        small = Context([Y - 2, X - 1])
        misses_before = engine.stats.misses
        assert big.entails_context(small) is True
        assert engine.stats.misses == misses_before

    def test_widen_keeps_still_valid_facts(self):
        older = Context([X - 1, Y - 5])
        newer = Context([X - 2])          # x >= 2 implies x >= 1, not y >= 5
        widened = older.widen(newer)
        assert set(widened.facts) == {X - 1}

    def test_cache_hit_rate_reported(self):
        engine = EntailmentEngine()
        facts = [X - 1, Y]
        for _ in range(5):
            engine.entails(facts, X * 5)
        stats = engine.stats.as_dict()
        assert stats["queries"] == 5
        assert stats["memo_hits"] >= 4
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestProcessEngine:
    """The one process-wide engine and its lifecycle hooks."""

    def test_get_engine_is_stable(self):
        from repro.logic import entailment

        engine = entailment.get_engine()
        assert entailment.get_engine("fm") is engine
        assert isinstance(engine.backend, entailment.FourierMotzkinBackend)

    def test_unknown_domain_raises(self):
        from repro.logic import entailment

        with pytest.raises(ValueError, match="polyhedra"):
            entailment.get_engine("polyhedra")

    def test_reset_engine_installs_a_fresh_engine(self):
        from repro.logic import entailment

        old = entailment.get_engine()
        fresh = entailment.reset_engine()
        assert fresh is not old
        assert entailment.get_engine() is fresh

    def test_queries_agree_with_the_oracle_via_context(self,
                                                       polyhedra_oracle):
        x = LinExpr.var("x")
        gamma = Context([x - 1])                 # x >= 1

        def answers():
            return (gamma.entails(x), gamma.greatest_lower_bound(x),
                    gamma.is_satisfiable())

        fm_answers = answers()
        with polyhedra_oracle() as engine:
            oracle_answers = answers()
        assert engine.stats.queries > 0
        assert fm_answers == oracle_answers == (True, 1, True)

    def test_warm_engine_leaves_no_trace(self):
        from repro.logic import entailment

        entailment.reset_engine()
        warmed = entailment.warm_engine()
        assert warmed is entailment.get_engine()
        assert warmed.stats.queries == 0
        assert not warmed._entails_cache
