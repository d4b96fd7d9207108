"""Rewrite functions: certified non-negative polynomials used by ``Q:Weaken``.

The ``Relax`` rule (paper Fig. 6) lets the analysis replace an annotation
``Q`` by ``Q' = Q - F * u`` where the columns of ``F`` are *rewrite
functions* -- linear combinations of base functions that are provably
non-negative under the current logical context -- and ``u >= 0``.  Rewrite
functions are how constant potential is extracted from interval potential
(e.g. ``|[x, n]| - |[x+1, n]| - 1 >= 0`` when ``x < n``) and how potential is
transferred between related base functions.

Generators implemented here (``c`` denotes a rational constant, ``A``/``B``
interval atoms, ``M`` a base monomial, and ``Gamma`` the logical context):

1. ``M`` itself -- every base function is non-negative, so potential may
   always be *discarded*.  At degree 2 a discard that is a sum of kept
   rewrites is left out: ``A = (A - c) + c * 1`` when the extraction
   ``A - c`` (generator 2) is generated, since the weakening always holds
   the unit ``1 >= 0``, and ``A * X = (A - c) * X + c * X`` when that
   extraction is lifted by ``X`` (generator 4) and ``X >= 0`` is generated
   or itself left out so.
2. ``A - c`` whenever ``Gamma |= D_A >= c`` with ``c > 0`` -- extracts
   constant potential from an interval known to be large.
3. ``A - B - c`` whenever ``Gamma |= D_A - D_B >= c`` and (for ``c > 0``)
   ``Gamma |= D_A >= c`` -- transfers potential between related intervals,
   possibly extracting (``c > 0``) or paying (``c < 0``) constants.  The
   pairs come from the pool's structure: atoms with the same linear part
   differ by a constant and need no query, and one query per ordered pair
   of linear parts that share a variable serves all their atom pairs
   (see :func:`_build_atom_rewrites`).
4. Products ``F * X`` of a degree-1 rewrite function with an atom --
   non-negative because both factors are, covering the polynomial cases
   (e.g. ``|[0,n]|^2`` telescoping).  The lift of a pair
   ``(A_i - A_j - c_ij) * X`` is left out when the lifts of two kept pairs
   ``A_i - A_k - c_ik`` and ``A_k - A_j - c_kj`` with
   ``c_ik + c_kj == c_ij`` add up to it (see :func:`_redundant_pairs`).

A rewrite left out at degree 2 is a non-negative combination of kept ones,
so it adds a column to the LP but no solution: the weakening constrains
the LP only through the cone its rewrites span.  Degree 1 keeps every
rewrite.

This matches the heuristic described in Sec. 7.1 ("for the base function
max(0, n-x) we add the rewrite function max(0,n-x) - max(0,n-x-1) - 1 ...")
while additionally recording, for every generated function, the entailment
that justifies its non-negativity so certificates can be re-checked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.contexts import Context
from repro.utils.linear import LinExpr
from repro.utils.polynomials import (
    IntervalAtom,
    Monomial,
    Polynomial,
    clear_polynomial_caches,
)
from repro.utils.rationals import Coeff, exact


class RewriteFunction:
    """A polynomial provably non-negative under a logical context.

    ``reason`` documents the entailment justifying non-negativity.  Rendering
    these strings for the thousands of generated rewrites dominates the
    generator's cost, while only the handful picked by the LP (plus tests)
    ever read them -- so the constructor also accepts a zero-argument
    callable that is rendered lazily on first access.
    """

    __slots__ = ("polynomial", "_reason")

    def __init__(self, polynomial: Polynomial, reason) -> None:
        self.polynomial = polynomial
        self._reason = reason

    @property
    def reason(self) -> str:
        rendered = self._reason
        if callable(rendered):
            rendered = rendered()
            self._reason = rendered
        return rendered

    def __repr__(self) -> str:
        return f"RewriteFunction({self.polynomial}  [{self.reason}])"


def _atoms_of(monomials: Iterable[Monomial]) -> List[IntervalAtom]:
    atoms: List[IntervalAtom] = []
    seen: Set[IntervalAtom] = set()
    for monomial in monomials:
        for atom in monomial.atoms():
            if atom not in seen:
                seen.add(atom)
                atoms.append(atom)
    return atoms


#: A degree-1 rewrite as :func:`_atom_rewrites` records it for lifting:
#: ``(polynomial, reason, primary atom, partner)``, where ``partner`` is
#: the atom a pair ``A - B - c`` transfers to (``B``) and None for a
#: constant extraction ``A - c``.
DegreeOne = Tuple[Polynomial, object, IntervalAtom, Optional[IntervalAtom]]

#: Memo for :func:`generate_rewrites`; repeated weakenings at the same
#: program point (loop entry/exit, degree retries) ask for identical sets.
_REWRITE_CACHE: Dict[Tuple, List[RewriteFunction]] = {}
_REWRITE_CACHE_LIMIT = 4096


def clear_rewrite_caches() -> None:
    """Drop every process-wide memo the derivation keeps.

    That is the rewrite memos here plus the atom/monomial intern tables and
    the product and substitution memos of :mod:`repro.utils.polynomials`.  Used between
    cold-timing passes (``perfsmoke --escalation``, the benchmark's
    per-analysis reset) and around the test suite's polyhedra oracle: the
    memos embed entailment-derived bounds, so a warm memo would let a
    "cold" run coast on earlier query answers, and a warm table would make
    it partly warm.
    """
    _REWRITE_CACHE.clear()
    _ATOM_REWRITE_CACHE.clear()
    _DISCARD_CACHE.clear()
    clear_polynomial_caches()


def generate_rewrites(context: Context,
                      monomials: Iterable[Monomial],
                      max_degree: int,
                      max_pair_rewrites: int = 3000) -> List[RewriteFunction]:
    """Generate rewrite functions relevant to a weakening between annotations.

    ``monomials`` should be the union of the base functions appearing in the
    stronger and weaker annotations; only atoms occurring there are
    considered, which keeps the LP small (the paper similarly only enriches
    the rewrite set on demand).  Results are memoised: the returned list is
    shared, so callers must not mutate it.
    """
    monomials = frozenset(monomials)
    cache_key = (context, monomials, max_degree, max_pair_rewrites)
    cached = _REWRITE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    result = _generate_rewrites(context, monomials, max_degree,
                                max_pair_rewrites)
    if len(_REWRITE_CACHE) >= _REWRITE_CACHE_LIMIT:
        _REWRITE_CACHE.clear()
    _REWRITE_CACHE[cache_key] = result
    return result


#: Memo for the atom-level rewrites (categories 2 and 3 below).  They depend
#: only on the context and the atom pool -- *not* on the monomial pool or the
#: degree -- and the atom pool is essentially stable across degree escalation
#: (degree-``d+1`` monomials are products of existing atoms).  Caching them
#: is what makes escalation by rebuilding cheap: the degree-2 walk of
#: :mod:`repro.core.pipeline` skips the pairwise-transfer generation the
#: degree-1 walk already did.
_ATOM_REWRITE_CACHE: Dict[Tuple, Tuple[List[RewriteFunction],
                                       List[DegreeOne]]] = {}
_ATOM_REWRITE_CACHE_LIMIT = 4096


def _atom_rewrites(context: Context, atoms: Tuple[IntervalAtom, ...],
                   max_pair_rewrites: int
                   ) -> Tuple[List[RewriteFunction], List[DegreeOne]]:
    """Constant-extraction and pair-transfer rewrites over an atom pool.

    Returns ``(rewrites, degree_one)`` where ``degree_one`` additionally
    records each rewrite's :data:`DegreeOne` entry for the degree-lifting
    products of :func:`_generate_rewrites`.  The returned lists are shared
    memo entries: callers must not mutate them.
    """
    cache_key = (context, atoms, max_pair_rewrites)
    cached = _ATOM_REWRITE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    result = _build_atom_rewrites(context, atoms, max_pair_rewrites)
    if len(_ATOM_REWRITE_CACHE) >= _ATOM_REWRITE_CACHE_LIMIT:
        _ATOM_REWRITE_CACHE.clear()
    _ATOM_REWRITE_CACHE[cache_key] = result
    return result


def _build_atom_rewrites(context: Context, atoms: Tuple[IntervalAtom, ...],
                         max_pair_rewrites: int
                         ) -> Tuple[List[RewriteFunction], List[DegreeOne]]:
    """The unmemoised body of :func:`_atom_rewrites`.

    Pair transfers work on the pool's structure, not on each pair.  Write
    each difference as ``D = L + c`` and group the atoms by their linear
    part ``L`` (the offsets of one guard form one group):

    * inside a group, ``D_A - D_B`` is the constant ``c_A - c_B``, so the
      pair needs no query;
    * across two groups whose variables meet,
      ``glb(D_A - D_B) = glb(L_A - L_B) + c_A - c_B`` exactly (adding a
      constant moves the minimum, and an unbounded one stays unbounded),
      so one query per ordered group pair serves all their atom pairs.

    Pairs are emitted as the pairwise enumeration ordered them: constant
    pairs by increasing shift (ties in pool order), then shared-variable
    pairs in pool order, until ``max_pair_rewrites`` have been emitted.
    """
    unit = Monomial.one()
    monomials = [Monomial.of_atom(atom) for atom in atoms]
    rewrites: List[RewriteFunction] = []
    degree_one: List[DegreeOne] = []

    # 2. constant extraction from single atoms (the lower bounds are reused
    #    by the pair rewrites below).
    lower_bounds: List[Optional[Coeff]] = []
    for atom, monomial in zip(atoms, monomials):
        lower = context.greatest_lower_bound(atom.diff)
        lower_bounds.append(lower)
        if lower is not None and lower > 0:
            poly = Polynomial._raw({monomial: 1, unit: -lower})
            reason = (lambda a=atom, c=lower: f"{a} >= {c} under context")
            rewrites.append(RewriteFunction(poly, reason))
            degree_one.append((poly, reason, atom, None))

    # 3. transfers between pairs of atoms.
    groups: Dict[Tuple, int] = {}
    group_of: List[int] = []
    members: List[List[int]] = []
    offsets = []  # each atom's constant c
    for index, atom in enumerate(atoms):
        diff = atom.diff
        group = groups.setdefault(diff.coeff_items, len(members))
        if group == len(members):
            members.append([])
        members[group].append(index)
        group_of.append(group)
        offsets.append(diff.const_term)

    def constant_of(i: int, gap) -> Coeff:
        """The largest sound ``c`` of ``A_i - A_j - c``, given
        ``gap = glb(D_i - D_j)``."""
        if gap > 0:
            # A positive extraction additionally needs D_A >= c.
            lower = lower_bounds[i]
            gap = 0 if lower is None or lower <= 0 else min(gap, lower)
        return exact(gap)

    def emit(i: int, j: int, constant: Coeff) -> None:
        """Append ``A_i - A_j - constant``."""
        terms = {monomials[i]: 1, monomials[j]: -1}
        if constant:
            terms[unit] = -constant
        poly = Polynomial._raw(terms)
        reason = (lambda x=atoms[i], y=atoms[j], c=constant:
                  f"{x} - {y} >= {c} under context")
        rewrites.append(RewriteFunction(poly, reason))
        degree_one.append((poly, reason, atoms[i], atoms[j]))

    # Constant pairs (the telescoping rewrites of Sec. 7.1) come first and
    # smaller shifts before larger ones: the rewrites between neighbouring
    # offsets are the ones every derivation needs.  (i, j) is unique, so
    # the tuple sort is the stable sort by shift.
    telescoping = []
    for i, group in enumerate(group_of):
        offset = offsets[i]
        for j in members[group]:
            if j != i:
                gap = offset - offsets[j]
                telescoping.append((abs(gap), i, j, gap))
    telescoping.sort()
    remaining = max_pair_rewrites
    for _shift, i, j, gap in telescoping:
        if remaining <= 0:
            break
        emit(i, j, constant_of(i, gap))
        remaining -= 1

    # General pairs of atoms that share a variable, up to the budget.
    linear = [LinExpr(dict(items)) for items in groups]
    names = [frozenset(name for name, _ in items) for items in groups]
    partners = [[j for j, other in enumerate(group_of) if other != group
                 and not names[group].isdisjoint(names[other])]
                for group in range(len(members))]
    floors: Dict[Tuple[int, int], Optional[Coeff]] = {}
    for i, j in ((i, j) for i, group in enumerate(group_of)
                 for j in partners[group]):
        if remaining <= 0:
            break
        key = (group_of[i], group_of[j])
        if key in floors:
            floor = floors[key]
        else:
            floor = floors[key] = context.greatest_lower_bound(
                linear[key[0]] - linear[key[1]])
        if floor is None:
            continue
        emit(i, j, constant_of(i, floor + offsets[i] - offsets[j]))
        remaining -= 1
    return rewrites, degree_one


#: Memo for the category-1 rewrites: ``M >= 0`` depends on ``M`` alone, so
#: one shared function per monomial serves every weakening and degree.
_DISCARD_CACHE: Dict[Monomial, RewriteFunction] = {}
_DISCARD_CACHE_LIMIT = 1 << 16


def _discard_rewrite(monomial: Monomial) -> RewriteFunction:
    rewrite = _DISCARD_CACHE.get(monomial)
    if rewrite is None:
        rewrite = RewriteFunction(Polynomial.of_monomial(monomial),
                                  reason=lambda m=monomial: f"{m} >= 0")
        if len(_DISCARD_CACHE) >= _DISCARD_CACHE_LIMIT:
            _DISCARD_CACHE.clear()
        _DISCARD_CACHE[monomial] = rewrite
    return rewrite


#: Lifted rewrites per weakening.  A lift left out as a sum of kept ones
#: still counts, so the cap cuts where it would with the lift in.
_LIFT_CAP = 2000


def _generate_rewrites(context: Context,
                       monomials: Iterable[Monomial],
                       max_degree: int,
                       max_pair_rewrites: int) -> List[RewriteFunction]:
    pool = sorted(set(monomials), key=lambda m: m.sort_key())
    atoms = _atoms_of(pool)
    # 2.+3. the atom-level rewrites (memoised across degrees/weakenings).
    shared, degree_one = _atom_rewrites(context, tuple(atoms),
                                        max_pair_rewrites)
    if max_degree < 2:
        # 1. every base function may be discarded.
        rewrites = [_discard_rewrite(monomial) for monomial in pool]
        rewrites.extend(shared)
        return rewrites

    # 4. lift degree-1 rewrites to degree 2 by multiplying with atoms (both
    #    factors are non-negative).  Only atoms that actually occur inside
    #    higher-degree monomials of the pool are useful factors, and only
    #    their own rewrites are lifted, which keeps the lifted columns few.
    higher_atoms: Set[IntervalAtom] = set()
    for monomial in pool:
        if monomial.degree() >= 2:
            higher_atoms.update(monomial.atoms())
    factors = [Monomial.of_atom(atom)
               for atom in sorted(higher_atoms, key=lambda a: a.sort_key())]
    lifted = [entry for entry in degree_one if entry[2] in higher_atoms]
    # The cap lifts the first entries with every factor and the next one
    # with the factors left.
    whole = _LIFT_CAP // len(factors) if factors else 0
    full, cut = lifted[:whole], lifted[whole:whole + 1]
    redundant = _redundant_pairs(full)

    # 1. every base function may be discarded, unless the discard is a
    #    sum of kept rewrites.
    extracted = {atom for _p, _r, atom, partner in degree_one
                 if partner is None}
    lifted_extractions = {atom for _p, _r, atom, partner in full
                          if partner is None}
    singles = {monomial.atoms()[0] for monomial in pool
               if monomial.degree() == 1}
    has_unit = Monomial.one() in pool
    rewrites = [_discard_rewrite(monomial) for monomial in pool
                if not _discard_is_sum(monomial, has_unit, singles,
                                       extracted, lifted_extractions)]
    rewrites.extend(shared)
    for position, (poly, reason, _atom, _partner) in enumerate(full + cut):
        if position in redundant:
            continue
        rewrites.extend(RewriteFunction(
            poly.times_monomial(factor),
            reason=lambda r=reason, f=factor:
                f"({r() if callable(r) else r}) * {f}")
            for factor in (factors if position < whole
                           else factors[:_LIFT_CAP - whole * len(factors)]))
    return rewrites


def _redundant_pairs(full: Sequence[DegreeOne]) -> Set[int]:
    """Positions of the pairs in ``full`` whose lifts are sums of kept lifts.

    ``full`` are the degree-1 rewrites lifted by every factor.  The lift
    ``(A_i - A_j - c_ij) * X`` is the sum of ``(A_i - A_k - c_ik) * X``
    and ``(A_k - A_j - c_kj) * X`` when ``c_ik + c_kj == c_ij``: the
    polynomials telescope.  Pairs are visited last emitted first, so wide
    telescoping shifts go before the narrow ones they split into, and a
    left-out pair stops being a witness.  Each left-out pair is thus a sum
    of pairs kept at that moment, and by induction of finally kept ones,
    even around zero-sum cycles such as neighbouring offsets both ways.
    """
    # -c of every pair A_i - A_j - c still kept, and each A_i's partners.
    shifts: Dict[Tuple[IntervalAtom, IntervalAtom], Coeff] = {}
    partners: Dict[IntervalAtom, List[IntervalAtom]] = {}
    for poly, _reason, atom, partner in full:
        if partner is not None:
            shifts[atom, partner] = poly.constant_value()
            partners.setdefault(atom, []).append(partner)
    redundant: Set[int] = set()
    for position in range(len(full) - 1, -1, -1):
        _poly, _reason, i, j = full[position]
        if j is None:
            continue
        shift = shifts[i, j]
        for k in partners[i]:
            first = shifts.get((i, k))
            if first is None:
                continue
            second = shifts.get((k, j))
            if second is not None and first + second == shift:
                del shifts[i, j]
                redundant.add(position)
                break
    return redundant


def _discard_is_sum(monomial: Monomial, has_unit: bool,
                    singles: Set[IntervalAtom],
                    extracted: Set[IntervalAtom],
                    lifted_extractions: Set[IntervalAtom]) -> bool:
    """Whether ``monomial >= 0`` is a sum of kept degree-2 rewrites.

    ``A = (A - c) + c * 1`` when the extraction ``A - c`` is generated and
    the pool holds the unit (a weakening's always does), and
    ``A * X = (A - c) * X + c * X`` when that extraction is lifted by ``X``
    and ``X >= 0`` is generated (``X`` is in ``singles``) or itself such a
    sum.
    """
    atoms = [atom for atom, power in monomial.factors for _ in range(power)]
    if len(atoms) == 1:
        return has_unit and atoms[0] in extracted
    if len(atoms) != 2:
        return False
    first, second = atoms
    return ((first in lifted_extractions and second in singles)
            or (second in lifted_extractions and first in singles))


def applicable_monomials(rewrites: Sequence[RewriteFunction]) -> Set[Monomial]:
    """All monomials mentioned by a collection of rewrite functions."""
    monomials: Set[Monomial] = set()
    for rewrite in rewrites:
        monomials.update(rewrite.polynomial.terms)
    return monomials
