"""Property tests for the integer-first coefficient normal form.

Every exact value the analysis stores is an ``int`` when it is integral and
a ``Fraction`` only when it is not -- never a float, never a bool, never an
integral ``Fraction``.  These tests drive random :class:`LinExpr`,
:class:`AffExpr` and :class:`Polynomial` values through their arithmetic
and compare every result with a reference computed here in plain
``Fraction`` arithmetic, then check each coefficient's type.  A division
written as a bare ``a / b`` over two ints yields a float, which both checks
catch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.constraints import AffExpr, ConstraintSystem
from repro.logic import fourier_motzkin as fm
from repro.logic.intervals import UNDECIDED, IntervalBox
from repro.logic.polyhedra import Polyhedron
from repro.utils.linear import LinExpr
from repro.utils.polynomials import Monomial, Polynomial

VARS = ("x", "y", "z")

#: Ints, integral and proper Fractions, and floats with exact binary values.
values = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.sampled_from([0.5, -1.25, 2.0, 3.0]),
)
nonzero = values.filter(lambda value: value != 0)
coefficient_maps = st.dictionaries(st.sampled_from(VARS), values, max_size=3)
lin_specs = st.tuples(coefficient_maps, values)
states = st.fixed_dictionaries({var: st.one_of(
    st.integers(-5, 8), st.builds(Fraction, st.integers(-9, 9),
                                  st.integers(1, 4))) for var in VARS})

RefLin = Tuple[Dict[str, Fraction], Fraction]


def assert_normal(value) -> None:
    """``value`` is an int, or a Fraction whose denominator is not 1."""
    assert type(value) is int or (type(value) is Fraction
                                  and value.denominator != 1), repr(value)


def ref_lin(spec) -> RefLin:
    coeffs, const = spec
    clean = {var: Fraction(value) for var, value in coeffs.items()
             if value != 0}
    return clean, Fraction(const)


def ref_add(a: RefLin, b: RefLin, sign: int = 1) -> RefLin:
    coeffs = dict(a[0])
    for var, value in b[0].items():
        coeffs[var] = coeffs.get(var, Fraction(0)) + sign * value
    return ({var: value for var, value in coeffs.items() if value != 0},
            a[1] + sign * b[1])


def ref_scale(a: RefLin, factor: Fraction) -> RefLin:
    return ({var: value * factor for var, value in a[0].items()
             if value * factor != 0}, a[1] * factor)


def ref_eval(a: RefLin, state) -> Fraction:
    return a[1] + sum((value * Fraction(state[var])
                       for var, value in a[0].items()), Fraction(0))


def check_lin(expr: LinExpr, reference: RefLin) -> None:
    assert expr.coeffs == reference[0]
    assert expr.const_term == reference[1]
    for _, value in expr.coeff_items:
        assert_normal(value)
    assert_normal(expr.const_term)


@given(lin_specs, lin_specs, values, nonzero, st.sampled_from(VARS), states)
def test_linexpr_arithmetic_matches_fraction_reference(a, b, factor, divisor,
                                                       var, state):
    left, right = LinExpr(*a), LinExpr(*b)
    ref_left, ref_right = ref_lin(a), ref_lin(b)
    check_lin(left, ref_left)
    check_lin(left + right, ref_add(ref_left, ref_right))
    check_lin(left - right, ref_add(ref_left, ref_right, -1))
    check_lin(-left, ref_scale(ref_left, Fraction(-1)))
    check_lin(left * factor, ref_scale(ref_left, Fraction(factor)))
    check_lin(factor * left, ref_scale(ref_left, Fraction(factor)))
    check_lin(left / divisor, ref_scale(ref_left, 1 / Fraction(divisor)))
    # substitute: var := right
    coeff = ref_left[0].get(var, Fraction(0))
    rest = ({name: value for name, value in ref_left[0].items()
             if name != var}, ref_left[1])
    check_lin(left.substitute(var, right),
              ref_add(rest, ref_scale(ref_right, coeff)))
    # normalised: a positive scale times a canonical form
    scale, canonical = left.normalised()
    assert_normal(scale)
    if ref_left[0]:
        lead = abs(ref_left[0][min(ref_left[0])])
        assert scale == lead
        check_lin(canonical, ref_scale(ref_left, 1 / lead))
    else:
        assert scale == 1 and canonical == left
    value = left.evaluate(state)
    assert_normal(value)
    assert value == ref_eval(ref_left, state)


def _columns():
    return ConstraintSystem().new_columns(VARS)


aff_specs = st.tuples(st.dictionaries(st.sampled_from(range(len(VARS))),
                                      values, max_size=3), values)
assignments = st.lists(st.one_of(st.integers(-4, 4), st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 5))),
    min_size=len(VARS), max_size=len(VARS))


def check_aff(expr: AffExpr, reference: RefLin) -> None:
    by_name = {var.name: coeff for var, coeff in expr.term_items()}
    assert by_name == reference[0]
    assert expr.const == reference[1]
    for _, value in expr.term_items():
        assert_normal(value)
    assert_normal(expr.const)


@given(aff_specs, aff_specs, values, assignments)
def test_affexpr_arithmetic_matches_fraction_reference(a, b, factor,
                                                       assignment):
    columns = _columns()

    def build(spec):
        terms, const = spec
        return (AffExpr({columns[i]: value for i, value in terms.items()},
                        const),
                ref_lin(({VARS[i]: value for i, value in terms.items()},
                         const)))

    left, ref_left = build(a)
    right, ref_right = build(b)
    check_aff(left, ref_left)
    check_aff(left + right, ref_add(ref_left, ref_right))
    check_aff(left - right, ref_add(ref_left, ref_right, -1))
    check_aff(-left, ref_scale(ref_left, Fraction(-1)))
    check_aff(left * factor, ref_scale(ref_left, Fraction(factor)))
    check_aff(factor * left, ref_scale(ref_left, Fraction(factor)))
    values_by_var = dict(zip(columns, assignment))
    value = left.evaluate(values_by_var)
    assert_normal(value)
    assert value == ref_eval(ref_left, dict(zip(VARS, assignment)))


#: A polynomial spec: terms of (coefficient, interval differences).
atom_diffs = st.tuples(
    st.dictionaries(st.sampled_from(VARS), nonzero, min_size=1, max_size=2),
    values)
poly_specs = st.lists(st.tuples(values, st.lists(atom_diffs, max_size=2)),
                      max_size=3)


def build_poly(spec) -> Polynomial:
    total = Polynomial.zero()
    for coeff, diffs in spec:
        term = Polynomial.constant(coeff)
        for diff in diffs:
            term = term * Polynomial.interval(LinExpr(*diff))
        total = total + term
    return total


def ref_poly_eval(spec, state) -> Fraction:
    """The polynomial's value computed from its spec in Fractions only."""
    total = Fraction(0)
    for coeff, diffs in spec:
        term = Fraction(coeff)
        for diff in diffs:
            term *= max(Fraction(0), ref_eval(ref_lin(diff), state))
        total += term
    return total


def ref_terms(poly: Polynomial) -> Dict[Monomial, Fraction]:
    return {monomial: Fraction(coeff) for monomial, coeff in poly.term_items()}


def ref_combine(a, b, sign: int = 1) -> Dict[Monomial, Fraction]:
    terms = dict(a)
    for monomial, coeff in b.items():
        terms[monomial] = terms.get(monomial, Fraction(0)) + sign * coeff
    return {monomial: coeff for monomial, coeff in terms.items() if coeff}


def check_poly(poly: Polynomial, reference: Dict[Monomial, Fraction]) -> None:
    assert dict(poly.term_items()) == reference
    for monomial, value in poly.term_items():
        assert_normal(value)
        for atom, _ in monomial.factors:
            for _, coeff in atom.diff.coeff_items:
                assert_normal(coeff)
            assert_normal(atom.diff.const_term)


@settings(max_examples=60, deadline=None)
@given(poly_specs, poly_specs, values, st.sampled_from(VARS), lin_specs,
       states)
def test_polynomial_arithmetic_matches_fraction_reference(a, b, factor, var,
                                                          replacement, state):
    left, right = build_poly(a), build_poly(b)
    ref_left, ref_right = ref_terms(left), ref_terms(right)
    check_poly(left, ref_left)
    assert left.evaluate(state) == ref_poly_eval(a, state)
    check_poly(left + right, ref_combine(ref_left, ref_right))
    check_poly(left - right, ref_combine(ref_left, ref_right, -1))
    check_poly(-left, {m: -c for m, c in ref_left.items()})
    scaled = {m: c * Fraction(factor) for m, c in ref_left.items()
              if c * Fraction(factor)}
    check_poly(left * factor, scaled)
    product: Dict[Monomial, Fraction] = {}
    for mono_a, coeff_a in ref_left.items():
        for mono_b, coeff_b in ref_right.items():
            key = mono_a.multiply(mono_b)
            product[key] = product.get(key, Fraction(0)) + coeff_a * coeff_b
    check_poly(left * right, {m: c for m, c in product.items() if c})
    # substitute var := replacement, checked by value at ``state``.
    rhs = LinExpr(*replacement)
    substituted = left.substitute(var, rhs)
    check_poly(substituted, ref_terms(substituted))
    moved = dict(state)
    moved[var] = ref_eval(ref_lin(replacement), state)
    value = substituted.evaluate(state)
    assert_normal(value)
    assert value == ref_poly_eval(a, moved)
    for result in (left.evaluate(state), (left * right).evaluate(state)):
        assert_normal(result)


fact_specs = st.tuples(
    st.dictionaries(st.sampled_from(VARS[:2]),
                    st.one_of(st.integers(-3, 3),
                              st.builds(Fraction, st.integers(-5, 5),
                                        st.integers(1, 3))),
                    max_size=2),
    st.one_of(st.integers(-6, 6),
              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))))


@settings(max_examples=150, deadline=None)
@given(st.lists(fact_specs, max_size=4), fact_specs)
def test_lower_bounds_are_exact_and_normal(facts, objective):
    """Every backend's greatest lower bound is normal and they agree."""
    context = [LinExpr(*fact) for fact in facts]
    expression = LinExpr(*objective)
    expected = fm.greatest_lower_bound(context, expression)
    try:
        generator_side = Polyhedron.from_facts(context).minimize(expression)
    except (fm.Infeasible, fm.Unbounded):
        generator_side = None
    assert generator_side == expected
    box = IntervalBox.from_facts(context)
    for bounds in box.bounds.values():
        for bound in bounds:
            if bound is not None:
                assert_normal(bound)
    decided = box.glb(expression)
    if decided is not UNDECIDED:
        assert decided == expected
    for value in (expected, generator_side, decided):
        if value is not None and value is not UNDECIDED:
            assert_normal(value)


single_facts = st.lists(st.tuples(
    st.sampled_from(VARS[:2]),
    st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-7, 7),
                                             st.integers(1, 3)))
    .filter(lambda value: value != 0),
    st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9),
                                             st.integers(1, 4)))),
    max_size=4)


@given(single_facts)
def test_interval_bounds_match_fraction_reference(facts):
    """``a*v + c >= 0`` bounds ``v`` by ``-c/a``, exactly and in normal form."""
    lows: Dict[str, Fraction] = {}
    highs: Dict[str, Fraction] = {}
    for var, coeff, const in facts:
        bound = Fraction(-const) / Fraction(coeff)
        if coeff > 0:
            lows[var] = max(lows.get(var, bound), bound)
        else:
            highs[var] = min(highs.get(var, bound), bound)
    box = IntervalBox.from_facts(LinExpr({var: coeff}, const)
                                 for var, coeff, const in facts)
    for var in VARS[:2]:
        low, high = box.bounds.get(var, (None, None))
        assert low == lows.get(var) and high == highs.get(var)
        for bound in (low, high):
            if bound is not None:
                assert_normal(bound)
