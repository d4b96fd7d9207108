"""Oracle for the grouped pair-rewrite generator of :mod:`repro.core.rewrite`.

``reference_atom_rewrites`` below is the pairwise enumeration the grouped
generator replaced, kept verbatim: it forms every difference ``D_A - D_B``
and asks the entailment engine once per shared-variable pair.  The grouped
generator must return the same rewrites -- the same polynomials with the
same term order, the same reasons, the same primary atoms, the same
budget cut -- so the LP it feeds is identical column for column.  It must
also issue at most one query per atom plus one per distinct ordered pair
of linear parts.

The pools are every ``_atom_rewrites`` call of the Table 1 registry (each
program with its own options, plus the polynomial programs cold at degree
2) and of the fuzz corpus, and a few hand-made pools for the edge cases.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest

from repro import analyze_program
from repro.bench.registry import all_benchmarks, polynomial_benchmarks
from repro.core import rewrite
from repro.core.rewrite import RewriteFunction
from repro.logic.contexts import Context
from repro.logic.entailment import get_engine
from repro.utils.linear import LinExpr
from repro.utils.polynomials import (
    IntervalAtom,
    Monomial,
    Polynomial,
    atom_product,
)
from tests.test_program_fuzz import PROGRAM_COUNT, random_program

#: ``generate_rewrites``' default pair budget.
DEFAULT_BUDGET = 3000
BUDGETS = (0, 1, 5, 17, DEFAULT_BUDGET)


# ---------------------------------------------------------------------------
# The reference: the pairwise enumeration, verbatim
# ---------------------------------------------------------------------------

def _share_variable(a: IntervalAtom, b: IntervalAtom) -> bool:
    return bool(set(a.variables()) & set(b.variables()))


def _pair_constant(context: Context, difference: LinExpr,
                   lower_a: Optional[Fraction]) -> Optional[Fraction]:
    """The largest sound ``c`` for the rewrite ``A - B - c`` (None if invalid).

    ``difference`` is the precomputed ``D_A - D_B``; ``lower_a`` is the
    (cached) greatest lower bound of ``D_A`` under the context, or ``None``
    when unbounded below.
    """
    if difference.is_constant():
        gap: Optional[Fraction] = difference.const_term
    else:
        gap = context.greatest_lower_bound(difference)
    if gap is None:
        return None
    if gap <= 0:
        return gap
    # For a positive extraction we additionally need D_A >= c.
    if lower_a is None or lower_a <= 0:
        return Fraction(0)
    return min(gap, lower_a)


def reference_atom_rewrites(context: Context,
                            atoms: Tuple[IntervalAtom, ...],
                            max_pair_rewrites: int
                            ) -> Tuple[List[RewriteFunction],
                                       List[Tuple[Polynomial, object,
                                                  IntervalAtom]]]:
    unit = Monomial.one()
    atom_monomials: Dict[IntervalAtom, Monomial] = {
        atom: Monomial.of_atom(atom) for atom in atoms}
    rewrites: List[RewriteFunction] = []

    # 2. constant extraction from single atoms (cache the lower bounds; they
    #    are reused by the pair rewrites below).
    degree_one: List[Tuple[Polynomial, object, IntervalAtom]] = []
    lower_bounds: Dict[IntervalAtom, Optional[Fraction]] = {}
    for atom in atoms:
        lower = context.greatest_lower_bound(atom.diff)
        lower_bounds[atom] = lower
        if lower is not None and lower > 0:
            poly = Polynomial({atom_monomials[atom]: 1, unit: -lower})
            reason = (lambda a=atom, c=lower: f"{a} >= {c} under context")
            rewrites.append(RewriteFunction(poly, reason))
            degree_one.append((poly, reason, atom))

    # 3. transfers between pairs of atoms.  Pairs differing only by a constant
    #    (the telescoping rewrites of Sec. 7.1) are generated first -- they
    #    need no entailment query and are the ones the derivations rely on --
    #    followed by general shared-variable pairs up to the budget.
    pair_candidates: List[Tuple[int, Fraction, IntervalAtom, IntervalAtom,
                                LinExpr]] = []
    for a in atoms:
        for b in atoms:
            if a is b:
                continue
            difference = a.diff - b.diff
            if difference.is_constant():
                # Smaller shifts first: the telescoping rewrites between
                # neighbouring offsets are the ones every derivation needs.
                pair_candidates.append((0, abs(difference.const_term), a, b,
                                        difference))
            elif _share_variable(a, b):
                pair_candidates.append((1, Fraction(0), a, b, difference))
    pair_candidates.sort(key=lambda item: (item[0], item[1]))
    pair_count = 0
    for _priority, _gap, a, b, difference in pair_candidates:
        if pair_count >= max_pair_rewrites:
            break
        constant = _pair_constant(context, difference, lower_bounds.get(a))
        if constant is None:
            continue
        poly = Polynomial({atom_monomials[a]: 1, atom_monomials[b]: -1,
                           unit: -constant})
        reason = (lambda x=a, y=b, c=constant: f"{x} - {y} >= {c} under context")
        rewrites.append(RewriteFunction(poly, reason))
        degree_one.append((poly, reason, a))
        pair_count += 1
    return rewrites, degree_one


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def _exact_terms(poly: Polynomial):
    """The ordered terms, with each coefficient's type: the LP reads them
    in this order, so equal-as-dicts is not enough."""
    return [(monomial, coeff, type(coeff)) for monomial, coeff
            in poly.term_items()]


def _rendered(result):
    """The rewrites and degree-1 entries in comparable form.  The grouped
    generator's entries also carry a composite pair's chain, which the
    pairwise reference does not compute (``tests/test_lp_reductions.py``
    checks what the chain is used for)."""
    rewrites, degree_one = result
    return ([(_exact_terms(r.polynomial), r.reason) for r in rewrites],
            [(_exact_terms(poly), reason() if callable(reason) else reason,
              atom) for poly, reason, atom, *_chain in degree_one])


def _distinct_group_pairs(atoms) -> int:
    """Ordered pairs of distinct linear parts whose variables meet."""
    groups = {atom.diff.coeff_items for atom in atoms}
    names = {items: {name for name, _ in items} for items in groups}
    return sum(1 for g in groups for h in groups
               if g != h and names[g] & names[h])


def _mismatches(pools, budgets=(None,)) -> List[str]:
    """Pools (and budgets) where the grouped generator differs from the
    reference or issues more queries than its bound allows."""
    engine = get_engine()
    problems = []
    for context, atoms, budget in pools:
        for override in budgets:
            cut = budget if override is None else override
            before = engine.stats.queries
            grouped = rewrite._build_atom_rewrites(context, atoms, cut)
            queries = engine.stats.queries - before
            allowed = len(atoms) + _distinct_group_pairs(atoms)
            if queries > allowed:
                problems.append(f"{len(atoms)} atoms, budget {cut}: "
                                f"{queries} queries > {allowed}")
            if _rendered(grouped) != _rendered(
                    reference_atom_rewrites(context, atoms, cut)):
                problems.append(f"{len(atoms)} atoms, budget {cut}: "
                                f"{[str(a) for a in atoms]}")
    return problems


def _record_pools(runs) -> List[Tuple[Context, Tuple[IntervalAtom, ...], int]]:
    """Every distinct ``_atom_rewrites`` call made by ``runs`` (thunks)."""
    seen = {}
    original = rewrite._atom_rewrites

    def recording(context, atoms, max_pair_rewrites):
        seen.setdefault((context, atoms, max_pair_rewrites), None)
        return original(context, atoms, max_pair_rewrites)

    rewrite._atom_rewrites = recording
    try:
        for run in runs:
            run()
    finally:
        rewrite._atom_rewrites = original
    return list(seen)


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry_pools():
    """The 39 programs with their own options, plus the 9 polynomial
    programs cold at degree 2."""
    runs = [lambda b=bench: analyze_program(b.build(), **b.analyzer_options)
            for bench in all_benchmarks()]
    runs += [lambda b=bench: analyze_program(
                 b.build(), **{**b.analyzer_options, "max_degree": 2,
                               "auto_degree": False})
             for bench in polynomial_benchmarks()]
    pools = _record_pools(runs)
    assert len(pools) >= 100
    return pools


@pytest.fixture(scope="module")
def fuzz_pools():
    rng = random.Random(0x5EED)
    programs = [random_program(rng) for _ in range(PROGRAM_COUNT)]
    return _record_pools(
        [lambda p=program: analyze_program(p, max_degree=1, degree_limit=2)
         for program in programs])


def atom(coeffs, const=0) -> IntervalAtom:
    scale, result = atom_product(LinExpr(coeffs, const))
    assert result is not None
    return result


#: Offsets of two guards, a fractional offset (``2x - 1`` normalises to
#: ``x - 1/2``) and a variable the others do not mention.
HANDMADE_ATOMS = (
    atom({"x": 1}), atom({"x": 1}, -1), atom({"x": 2}, -1), atom({"x": 1}, 2),
    atom({"n": 1, "x": -1}), atom({"n": 1, "x": -1}, -1),
    atom({"n": 1, "x": -1}, Fraction(1, 3)), atom({"n": 1}),
    atom({"y": 1}, -4),
)

HANDMADE_CONTEXTS = {
    "top": Context.top(),
    "loop": Context([LinExpr({"x": 1}, -1), LinExpr({"n": 1, "x": -1}, -2)]),
    "bounded": Context([LinExpr({"x": 1}, -3), LinExpr({"x": -1}, 10),
                        LinExpr({"n": 1}, -5), LinExpr({"y": 1})]),
    "unreachable": Context.unreachable_context(),
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_registry_pools_match_reference(registry_pools):
    assert _mismatches(registry_pools) == []


def test_fuzz_pools_match_reference(fuzz_pools):
    assert fuzz_pools
    assert _mismatches(fuzz_pools, budgets=BUDGETS) == []


@pytest.mark.parametrize("name", sorted(HANDMADE_CONTEXTS))
def test_handmade_pools_match_reference(name):
    context = HANDMADE_CONTEXTS[name]
    pools = [(context, HANDMADE_ATOMS, DEFAULT_BUDGET),
             (context, HANDMADE_ATOMS[::-1], DEFAULT_BUDGET),
             (context, HANDMADE_ATOMS[:1], DEFAULT_BUDGET), (context, (), 5)]
    assert _mismatches(pools, budgets=BUDGETS) == []


def test_fractional_constants_keep_exact_gaps():
    half = atom({"x": 2}, -1)
    assert half.diff.const_term == Fraction(-1, 2)
    context = HANDMADE_CONTEXTS["bounded"]
    rewrites, _ = rewrite._build_atom_rewrites(
        context, (atom({"x": 1}), half), DEFAULT_BUDGET)
    constants = sorted(r.polynomial.constant_value() for r in rewrites)
    # x >= 3 extracts 3 and 5/2; the pair gaps are +1/2 and -1/2.
    assert constants == [Fraction(-3), Fraction(-5, 2), Fraction(-1, 2),
                         Fraction(1, 2)]
    # Coefficients are in normal form: ints when integral, else Fractions.
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for r in rewrites for _, c in r.polynomial.term_items())


def test_unreachable_context_issues_no_query():
    engine = get_engine()
    before = engine.stats.queries
    rewrites, _ = rewrite._build_atom_rewrites(
        Context.unreachable_context(), HANDMADE_ATOMS, DEFAULT_BUDGET)
    assert engine.stats.queries == before
    # Only the constant-difference pairs survive, none extracting.
    assert rewrites and all(r.polynomial.constant_value() >= 0
                            for r in rewrites)


def test_one_query_per_atom_and_group_pair():
    engine = get_engine()
    context = HANDMADE_CONTEXTS["loop"]
    before = engine.stats.queries
    rewrite._build_atom_rewrites(context, HANDMADE_ATOMS, DEFAULT_BUDGET)
    # 9 atoms; of the linear parts x, n - x, n and y, n - x meets x and n
    # (4 ordered pairs), and y meets nobody.
    assert engine.stats.queries - before == 9 + 4
    assert _distinct_group_pairs(HANDMADE_ATOMS) == 4
