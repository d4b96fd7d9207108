"""Unit and property tests for interval atoms, monomials and polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.utils.linear import LinExpr
from repro.utils.polynomials import IntervalAtom, Monomial, Polynomial, atom_product


def diff(coeffs, const=0):
    return LinExpr(coeffs, const)


X_MINUS_Y = diff({"x": 1, "y": -1})
X = diff({"x": 1})
Y = diff({"y": 1})


class TestIntervalAtom:
    def test_evaluate_clamps_at_zero(self):
        atom = IntervalAtom(X_MINUS_Y)
        assert atom.evaluate({"x": 3, "y": 5}) == 0
        assert atom.evaluate({"x": 5, "y": 3}) == 2

    def test_constant_atom_rejected(self):
        with pytest.raises(ValueError):
            IntervalAtom(diff({}, 3))

    def test_interval_rendering(self):
        atom = IntervalAtom(diff({"n": 1, "x": -1}, 9))
        assert str(atom) == "|[x, n + 9]|"

    def test_atom_product_scale(self):
        scale, atom = atom_product(diff({"x": 2}))
        assert scale == 2
        assert atom.diff == X

    def test_atom_product_constant(self):
        value, atom = atom_product(diff({}, -3))
        assert atom is None and value == 0
        value, atom = atom_product(diff({}, 3))
        assert atom is None and value == 3


class TestMonomial:
    def test_one(self):
        assert Monomial.one().is_constant()
        assert Monomial.one().degree() == 0
        assert Monomial.one().evaluate({}) == 1

    def test_degree_counts_powers(self):
        atom = IntervalAtom(X)
        assert Monomial({atom: 2}).degree() == 2

    def test_multiply_merges_factors(self):
        a = Monomial.of_atom(IntervalAtom(X))
        b = Monomial.of_atom(IntervalAtom(Y))
        product = a.multiply(b)
        assert product.degree() == 2
        assert set(product.atoms()) == {IntervalAtom(X), IntervalAtom(Y)}

    def test_evaluate_product(self):
        m = Monomial([IntervalAtom(X), IntervalAtom(Y)])
        assert m.evaluate({"x": 3, "y": 4}) == 12
        assert m.evaluate({"x": -3, "y": 4}) == 0

    def test_substitute_shifts_interval(self):
        m = Monomial.of_atom(IntervalAtom(X))
        coeff, result = m.substitute("x", diff({"x": 1}, -1))
        assert coeff == 1
        assert str(result) == "|[1, x]|"

    def test_substitute_to_constant(self):
        m = Monomial.of_atom(IntervalAtom(X))
        coeff, result = m.substitute("x", diff({}, 5))
        assert coeff == 5 and result.is_constant()

    def test_substitute_negative_constant_gives_zero(self):
        m = Monomial.of_atom(IntervalAtom(X))
        coeff, _ = m.substitute("x", diff({}, -5))
        assert coeff == 0

    def test_variables(self):
        m = Monomial([IntervalAtom(X_MINUS_Y)])
        assert m.variables() == ("x", "y")

    def test_hashable(self):
        assert Monomial.of_atom(IntervalAtom(X)) == Monomial.of_atom(IntervalAtom(X))
        assert len({Monomial.of_atom(IntervalAtom(X)),
                    Monomial.of_atom(IntervalAtom(X))}) == 1


class TestPolynomial:
    def test_zero(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.zero().evaluate({}) == 0

    def test_constant(self):
        assert Polynomial.constant(5).evaluate({}) == 5

    def test_interval_constructor(self):
        poly = Polynomial.interval(diff({"n": 1, "x": -1}), 2)
        assert poly.evaluate({"x": 1, "n": 5}) == 8
        assert poly.evaluate({"x": 6, "n": 5}) == 0

    def test_interval_constructor_scales(self):
        poly = Polynomial.interval(diff({"x": 3}))
        assert poly.evaluate({"x": 2}) == 6

    def test_addition_and_subtraction(self):
        a = Polynomial.interval(X) + Polynomial.constant(1)
        b = a - Polynomial.interval(X)
        assert b == Polynomial.constant(1)

    def test_multiplication(self):
        a = Polynomial.interval(X)
        b = Polynomial.interval(Y) + Polynomial.constant(2)
        product = a * b
        assert product.evaluate({"x": 3, "y": 4}) == 3 * (4 + 2)
        assert product.degree() == 2

    def test_scalar_multiplication(self):
        assert (Polynomial.interval(X) * 3).evaluate({"x": 2}) == 6

    def test_substitution(self):
        poly = Polynomial.interval(X, 2) + Polynomial.constant(1)
        shifted = poly.substitute("x", diff({"x": 1}, 1))
        assert shifted.evaluate({"x": 4}) == 2 * 5 + 1

    def test_coefficient_lookup(self):
        poly = Polynomial.interval(X, Fraction(2, 3))
        monomial = Monomial.of_atom(IntervalAtom(X))
        assert poly.coefficient(monomial) == Fraction(2, 3)

    def test_degree(self):
        quad = Polynomial.interval(X) * Polynomial.interval(X)
        assert quad.degree() == 2

    def test_str_table1_style(self):
        poly = Polynomial.interval(diff({"n": 1, "x": -1}), 2)
        assert str(poly) == "2*|[x, n]|"

    def test_variables(self):
        poly = Polynomial.interval(X) + Polynomial.interval(Y)
        assert poly.variables() == ("x", "y")

    def test_zero_coefficients_dropped(self):
        poly = Polynomial({Monomial.of_atom(IntervalAtom(X)): 0})
        assert poly.is_zero()


# -- property-based tests -------------------------------------------------------

variables = st.sampled_from(["x", "y", "z"])
small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=4)
lin_exprs = st.builds(
    lambda coeffs, const: LinExpr(coeffs, const),
    st.dictionaries(variables, small_fracs, min_size=1, max_size=3),
    small_fracs,
).filter(lambda e: not e.is_constant())
states = st.dictionaries(variables, st.integers(-30, 30), min_size=3, max_size=3)


@given(lin_exprs, states)
def test_interval_polynomial_matches_max_semantics(expr, state):
    poly = Polynomial.interval(expr)
    expected = max(Fraction(0), expr.evaluate(state))
    assert poly.evaluate(state) == expected


@given(lin_exprs, lin_exprs, states)
def test_polynomial_product_is_pointwise(e1, e2, state):
    p1, p2 = Polynomial.interval(e1), Polynomial.interval(e2)
    assert (p1 * p2).evaluate(state) == p1.evaluate(state) * p2.evaluate(state)


@given(lin_exprs, lin_exprs, states)
def test_polynomial_substitution_is_semantic(target, replacement, state):
    poly = Polynomial.interval(target) * 2 + Polynomial.constant(3)
    substituted = poly.substitute("x", replacement)
    new_state = dict(state)
    new_state["x"] = replacement.evaluate(state)
    assert substituted.evaluate(state) == poly.evaluate(new_state)


@given(lin_exprs, states)
def test_monomial_substitution_exactness(expr, state):
    monomial = Monomial([IntervalAtom(LinExpr({"x": 1}))])
    coeff, substituted = monomial.substitute("x", expr)
    new_state = dict(state)
    new_state["x"] = expr.evaluate(state)
    assert coeff * substituted.evaluate(state) == monomial.evaluate(new_state)


# -- interning, cached hashes and the monomial fast path --------------------------

class TestInterning:
    def test_equal_atoms_are_one_object(self):
        assert IntervalAtom(diff({"x": 1})) is IntervalAtom(diff({"x": 1}))
        _, scaled = atom_product(diff({"x": 2}))
        assert scaled is IntervalAtom(X)

    def test_monomial_constructors_agree(self):
        a, b = IntervalAtom(X), IntervalAtom(Y)
        assert Monomial.of_atom(a) is Monomial([a]) is Monomial({a: 1})
        assert Monomial.one() is Monomial() is Monomial({a: 0})
        assert Monomial([a, b]) is Monomial([b, a]) is Monomial({b: 1, a: 1})

    def test_multiply_returns_the_interned_product(self):
        a = Monomial.of_atom(IntervalAtom(X))
        b = Monomial.of_atom(IntervalAtom(Y))
        product = a.multiply(b)
        assert product is b.multiply(a) is a.multiply(b)
        assert product is Monomial([IntervalAtom(X), IntervalAtom(Y)])
        assert a.multiply(Monomial.one()) is a
        assert Monomial.one().multiply(a) is a

    def test_substitute_returns_interned_monomials(self):
        m = Monomial.of_atom(IntervalAtom(X))
        coeff, shifted = m.substitute("x", diff({"x": 1}, -1))
        assert coeff == 1
        assert shifted is Monomial.of_atom(IntervalAtom(diff({"x": 1}, -1)))
        coeff, same = m.substitute("y", diff({"y": 1}, 5))
        assert coeff == 1 and same is m

    def test_equality_survives_a_cleared_table(self):
        from repro.utils.polynomials import clear_polynomial_caches

        before = Monomial.of_atom(IntervalAtom(X_MINUS_Y))
        clear_polynomial_caches()
        after = Monomial.of_atom(IntervalAtom(X_MINUS_Y))
        assert after is not before
        assert after == before and hash(after) == hash(before)
        assert {before: 1}[after] == 1

    def test_pickle_round_trip_reinterns(self):
        import pickle

        m = Monomial({IntervalAtom(X): 2, IntervalAtom(Y): 1})
        assert pickle.loads(pickle.dumps(m)) is m
        poly = Polynomial({m: Fraction(3, 2), Monomial.one(): 1})
        assert pickle.loads(pickle.dumps(poly)) == poly


class TestCachedHash:
    def test_insertion_order_does_not_matter(self):
        a = Monomial.of_atom(IntervalAtom(X))
        b = Monomial.of_atom(IntervalAtom(Y))
        p = Polynomial({a: 1, b: Fraction(-1, 3)})
        q = Polynomial({b: Fraction(-1, 3), a: 1})
        assert p == q and hash(p) == hash(q)

    def test_routes_to_the_same_polynomial_hash_alike(self):
        px, py = Polynomial.interval(X), Polynomial.interval(Y)
        routes = [px * py + 1, py * px + 1, (px + 1) * (py + 1) - px - py,
                  Polynomial.constant(1) + px.times_monomial(
                      Monomial.of_atom(IntervalAtom(Y)))]
        for route in routes:
            assert route == routes[0]
            assert hash(route) == hash(routes[0])
        assert len(set(routes)) == 1

    def test_hash_is_cached(self):
        poly = Polynomial.interval(X) + 2
        assert poly._hash is None
        value = hash(poly)
        assert poly._hash == value == hash(poly)


@given(lin_exprs, lin_exprs, lin_exprs)
def test_times_monomial_equals_generic_product(e1, e2, e3):
    poly = Polynomial.interval(e1) * 3 - Polynomial.interval(e2) + Fraction(1, 2)
    _, atom = atom_product(e3)
    factor = Monomial({atom: 2})
    fast = poly.times_monomial(factor)
    generic = poly * Polynomial.of_monomial(factor)
    assert fast == generic
    assert list(fast.term_items()) == list(generic.term_items())


def _fraction_key(monomial: Monomial):
    """The all-``Fraction`` key that the integral sort keys replace."""
    return (monomial.degree(),
            tuple(((atom.diff.coeff_items, atom.diff.const_term), power)
                  for atom, power in monomial.factors))


@given(st.lists(st.lists(lin_exprs, max_size=2), max_size=10))
def test_integral_sort_keys_keep_the_fraction_order(factor_lists):
    exprs = [expr for factors in factor_lists for expr in factors]
    assert sorted(exprs, key=LinExpr.sort_key) \
        == sorted(exprs, key=lambda e: (e.coeff_items, e.const_term))
    monomials = [Monomial([atom_product(expr)[1] for expr in factors])
                 for factors in factor_lists]
    assert sorted(monomials, key=Monomial.sort_key) \
        == sorted(monomials, key=_fraction_key)
    for expr in exprs:
        key = expr.sort_key()
        assert key == (expr.coeff_items, expr.const_term)
        values = [coeff for _, coeff in key[0]] + [key[1]]
        assert all(type(value) is int for value in values
                   if value.denominator == 1)
