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
   always be *discarded*.
2. ``A - c`` whenever ``Gamma |= D_A >= c`` with ``c > 0`` -- extracts
   constant potential from an interval known to be large.
3. ``A - B - c`` whenever ``Gamma |= D_A - D_B >= c`` and (for ``c > 0``)
   ``Gamma |= D_A >= c`` -- transfers potential between related intervals,
   possibly extracting (``c > 0``) or paying (``c < 0``) constants.  The
   pairs come from the pool's structure: atoms with the same linear part
   differ by a constant and need no query, and one query per ordered pair
   of linear parts that share a variable serves all their atom pairs
   (see :func:`_build_atom_rewrites`).
4. Products ``F * M`` of a degree-1 rewrite function with a base monomial --
   non-negative because both factors are, covering the polynomial cases
   (e.g. ``|[0,n]|^2`` telescoping).

This matches the heuristic described in Sec. 7.1 ("for the base function
max(0, n-x) we add the rewrite function max(0,n-x) - max(0,n-x-1) - 1 ...")
while additionally recording, for every generated function, the entailment
that justifies its non-negativity so certificates can be re-checked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.contexts import Context
from repro.logic.entailment import active_domain
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


#: Memo for :func:`generate_rewrites`; repeated weakenings at the same
#: program point (loop entry/exit, degree retries) ask for identical sets.
_REWRITE_CACHE: Dict[Tuple, List[RewriteFunction]] = {}
_REWRITE_CACHE_LIMIT = 4096


def clear_rewrite_caches() -> None:
    """Drop every process-wide memo the derivation keeps.

    That is the rewrite memos here plus the atom/monomial intern tables and
    the product and substitution memos of :mod:`repro.utils.polynomials`.  Used between
    cold-timing passes (``perfsmoke --compare-domains``, the benchmark's
    per-analysis reset): the memos embed entailment-derived bounds, so a
    warm memo would let one domain's timing leg coast on another's query
    answers, and a warm table would make a "cold" analysis partly warm.
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
    # Keyed by the active abstract domain: both backends are exact (so the
    # entries would agree), but sharing them would let one domain's run
    # silently serve another's queries, defeating per-domain isolation,
    # statistics and timing comparisons.
    cache_key = (active_domain(), context, monomials, max_degree,
                 max_pair_rewrites)
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
                                       List[Tuple[Polynomial, object,
                                                  IntervalAtom]]]] = {}
_ATOM_REWRITE_CACHE_LIMIT = 4096


def _atom_rewrites(context: Context, atoms: Tuple[IntervalAtom, ...],
                   max_pair_rewrites: int
                   ) -> Tuple[List[RewriteFunction],
                              List[Tuple[Polynomial, object, IntervalAtom]]]:
    """Constant-extraction and pair-transfer rewrites over an atom pool.

    Returns ``(rewrites, degree_one)`` where ``degree_one`` additionally
    records ``(polynomial, reason, primary atom)`` for the degree-lifting
    products of :func:`_generate_rewrites`.  The returned lists are shared
    memo entries: callers must not mutate them.
    """
    cache_key = (active_domain(), context, atoms, max_pair_rewrites)
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
                         ) -> Tuple[List[RewriteFunction],
                                    List[Tuple[Polynomial, object,
                                               IntervalAtom]]]:
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
    degree_one: List[Tuple[Polynomial, object, IntervalAtom]] = []

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
            degree_one.append((poly, reason, atom))

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

    def emit(i: int, j: int, gap) -> None:
        """Append ``A_i - A_j - c`` for the largest sound ``c``, given
        ``gap = glb(D_i - D_j)``."""
        if gap > 0:
            # A positive extraction additionally needs D_A >= c.
            lower = lower_bounds[i]
            gap = 0 if lower is None or lower <= 0 else min(gap, lower)
        constant = exact(gap)
        terms = {monomials[i]: 1, monomials[j]: -1}
        if constant:
            terms[unit] = -constant
        poly = Polynomial._raw(terms)
        reason = (lambda x=atoms[i], y=atoms[j], c=constant:
                  f"{x} - {y} >= {c} under context")
        rewrites.append(RewriteFunction(poly, reason))
        degree_one.append((poly, reason, atoms[i]))

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
        emit(i, j, gap)
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
        emit(i, j, floor + offsets[i] - offsets[j])
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


def _generate_rewrites(context: Context,
                       monomials: Iterable[Monomial],
                       max_degree: int,
                       max_pair_rewrites: int) -> List[RewriteFunction]:
    pool = sorted(set(monomials), key=lambda m: m.sort_key())
    atoms = _atoms_of(pool)
    rewrites: List[RewriteFunction] = []

    # 1. every base function may be discarded.
    rewrites.extend(_discard_rewrite(monomial) for monomial in pool)

    # 2.+3. the atom-level rewrites (memoised across degrees/weakenings).
    shared, degree_one = _atom_rewrites(context, tuple(atoms),
                                        max_pair_rewrites)
    rewrites.extend(shared)

    # 4. lift degree-1 rewrites to higher degrees by multiplying with base
    #    monomials (both factors are non-negative).  Only atoms that actually
    #    occur inside higher-degree monomials of the pool are useful factors,
    #    which keeps the number of lifted columns small.
    if max_degree >= 2:
        higher_atoms: Set[IntervalAtom] = set()
        for monomial in pool:
            if monomial.degree() >= 2:
                higher_atoms.update(monomial.atoms())
        factors = [Monomial.of_atom(atom)
                   for atom in sorted(higher_atoms, key=lambda a: a.sort_key())]
        lifted: List[RewriteFunction] = []
        max_lifted = 2000
        for poly, reason, base_atom in degree_one:
            if higher_atoms and base_atom not in higher_atoms:
                continue
            if poly.degree() + 1 > max_degree:
                continue  # every factor is a single atom
            for factor in factors:
                lifted.append(RewriteFunction(
                    poly.times_monomial(factor),
                    reason=lambda r=reason, f=factor:
                        f"({r() if callable(r) else r}) * {f}"))
                if len(lifted) >= max_lifted:
                    break
            if len(lifted) >= max_lifted:
                break
        rewrites.extend(lifted)

    return rewrites


def applicable_monomials(rewrites: Sequence[RewriteFunction]) -> Set[Monomial]:
    """All monomials mentioned by a collection of rewrite functions."""
    monomials: Set[Monomial] = set()
    for rewrite in rewrites:
        monomials.update(rewrite.polynomial.terms)
    return monomials
