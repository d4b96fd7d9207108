"""Exact rational polyhedra: the canonical constraint form and the cap path.

This module implements convex polyhedra in the style of the Apron/PPL
libraries, entirely in exact rational arithmetic (primitive integer
vectors, :class:`fractions.Fraction` only inside a combination) so every
answer is exact (no widening-by-rounding, no floating point anywhere):

* a :class:`Polyhedron` keeps the classic *dual representation*: the
  constraint side (a conjunction of ``e >= 0`` facts) and the generator
  side (lines, rays and vertices of the homogenised cone), converted into
  each other with the double description method (Chernikova's algorithm
  with the Fukuda-Prodon combinatorial adjacency test, which performs the
  redundancy elimination: only extreme rays / facet-defining inequalities
  survive a conversion);
* decision queries (emptiness, entailment, exact minimisation) are answered
  on the generator side -- a linear function is minimised over a polyhedron
  by evaluating it on finitely many generators;
* projection drops coordinates on the generator side (the projection of the
  generators generates the projection) and converts back to a *canonical
  minimal* constraint system: implicit equalities come out as a reduced
  row-echelon basis, inequalities are reduced modulo that basis, normalised
  and sorted.

The Fourier-Motzkin backend (:mod:`repro.logic.entailment`) uses this
module twice: every ``assign`` result is put into the canonical form
(:func:`canonical_constraints`), and a query whose elimination blows the
eliminator's constraint cap is answered here instead.  The test suite
builds a complete polyhedra-backed engine on top of :class:`Polyhedron`
and checks that it agrees with Fourier-Motzkin on every query.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic import fourier_motzkin as fm
from repro.utils.linear import LinExpr
from repro.utils.rationals import Coeff, exact

#: Generator and constraint vectors.  Every stored vector is primitive, so
#: its entries are ints; only intermediate combinations hold Fractions.
Vector = Tuple[Coeff, ...]

_ZERO = 0
_ONE = 1


# ---------------------------------------------------------------------------
# Exact vector helpers
# ---------------------------------------------------------------------------

def _dot(a: Vector, b: Vector) -> Coeff:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def _unit(dim: int, index: int) -> Vector:
    return tuple(_ONE if i == index else _ZERO for i in range(dim))


def _primitive(vector: Sequence[Coeff]) -> Vector:
    """Scale to the unique coprime-integer representative (sign preserved).

    Primitive vectors keep coefficients small across repeated combinations
    and make generator/constraint representatives canonical.
    """
    denominator = lcm(*(value.denominator for value in vector))
    integers = [value.numerator * (denominator // value.denominator)
                for value in vector]
    common = gcd(*integers)
    if common in (0, 1):
        return tuple(integers)
    return tuple(value // common for value in integers)


def _combine(a: Vector, ca: Coeff, b: Vector, cb: Coeff) -> Vector:
    return tuple(ca * x + cb * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# The double description method (Chernikova)
# ---------------------------------------------------------------------------

def double_description(dim: int, constraints: Sequence[Vector]
                       ) -> Tuple[List[Vector], List[Vector]]:
    """Generators ``(lines, rays)`` of ``{y : a . y >= 0 for a in constraints}``.

    Starts from the full space (``dim`` lines, no rays) and adds one
    halfspace at a time.  While a line violates the new constraint the
    lineality is pivoted down; once every line saturates it, rays are split
    by sign and adjacent positive/negative pairs are combined (Chernikova's
    step).  Adjacency uses the Fukuda-Prodon combinatorial test on the
    saturation sets, so only *extreme* rays are ever kept -- this is the
    redundancy elimination that makes conversions canonical.
    """
    lines: List[Vector] = [_unit(dim, i) for i in range(dim)]
    rays: List[Vector] = []
    saturated: List[Set[int]] = []          # per ray: saturated constraint ids
    for index, constraint in enumerate(constraints):
        line_products = [_dot(constraint, line) for line in lines]
        pivot = next((i for i, value in enumerate(line_products) if value != 0),
                     None)
        if pivot is not None:
            # A line leaves the constraint's hyperplane: the lineality drops
            # by one.  Every other generator is shifted along the pivot line
            # into the hyperplane; the pivot line itself survives as the one
            # ray pointing into the halfspace.
            pivot_line = lines.pop(pivot)
            pivot_value = line_products.pop(pivot)
            if pivot_value < 0:
                pivot_line = tuple(-x for x in pivot_line)
                pivot_value = -pivot_value
            lines = [_primitive(_combine(line, _ONE, pivot_line,
                                         Fraction(-value, pivot_value)))
                     if value != 0 else line
                     for line, value in zip(lines, line_products)]
            new_rays: List[Vector] = []
            for ray, sat in zip(rays, saturated):
                value = _dot(constraint, ray)
                if value != 0:
                    ray = _primitive(_combine(ray, _ONE, pivot_line,
                                              Fraction(-value, pivot_value)))
                new_rays.append(ray)
                sat.add(index)
            # The pivot line saturates every earlier constraint (all lines
            # do, inductively) but not this one.
            new_rays.append(pivot_line)
            saturated.append(set(range(index)))
            rays = new_rays
            continue
        products = [_dot(constraint, ray) for ray in rays]
        if all(value >= 0 for value in products):
            for sat, value in zip(saturated, products):
                if value == 0:
                    sat.add(index)
            continue
        positive = [i for i, value in enumerate(products) if value > 0]
        zero = [i for i, value in enumerate(products) if value == 0]
        negative = [i for i, value in enumerate(products) if value < 0]
        next_rays: List[Vector] = [rays[i] for i in positive]
        next_sat: List[Set[int]] = [saturated[i] for i in positive]
        for i in zero:
            next_rays.append(rays[i])
            next_sat.append(saturated[i] | {index})
        for p in positive:
            for n in negative:
                common = saturated[p] & saturated[n]
                if not _adjacent(p, n, common, saturated):
                    continue
                combined = _primitive(_combine(rays[n], products[p],
                                               rays[p], -products[n]))
                next_rays.append(combined)
                next_sat.append(common | {index})
        rays = next_rays
        saturated = next_sat
    return lines, rays


def _adjacent(p: int, n: int, common: Set[int],
              saturated: Sequence[Set[int]]) -> bool:
    """Fukuda-Prodon: extreme-ray pair iff no third ray saturates ``common``."""
    for h, sat in enumerate(saturated):
        if h != p and h != n and common <= sat:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonicalisation of constraint output
# ---------------------------------------------------------------------------

def _row_echelon(rows: List[Vector]) -> List[Vector]:
    """Reduced row-echelon form over the column order (primitive rows)."""
    basis: List[Vector] = []
    width = len(rows[0]) if rows else 0
    work = [list(row) for row in rows]
    pivot_row = 0
    for column in range(width):
        chosen = next((r for r in range(pivot_row, len(work))
                       if work[r][column] != 0), None)
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        lead = work[pivot_row][column]
        work[pivot_row] = [Fraction(value, lead) for value in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][column] != 0:
                factor = work[r][column]
                work[r] = [value - factor * pivot for value, pivot
                           in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    for row in work[:pivot_row]:
        basis.append(_primitive(row))
    return basis


def _reduce_modulo(vector: Vector, basis: Sequence[Vector]) -> Vector:
    """Reduce ``vector`` by the echelon ``basis`` (canonical representative)."""
    values = list(vector)
    for row in basis:
        pivot_col = next(i for i, value in enumerate(row) if value != 0)
        if values[pivot_col] != 0:
            factor = Fraction(values[pivot_col], row[pivot_col])
            values = [value - factor * pivot for value, pivot
                      in zip(values, row)]
    return _primitive(values)


# ---------------------------------------------------------------------------
# The polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    """A closed convex rational polyhedron in generator representation.

    Coordinates are the sorted variable names plus a final homogenising
    coordinate ``t``: the polyhedron is the ``t = 1`` slice of the cone
    spanned by ``lines`` and ``rays``; rays with ``t > 0`` are (scaled)
    vertices, rays with ``t = 0`` are recession directions.
    """

    __slots__ = ("variables", "lines", "rays")

    def __init__(self, variables: Tuple[str, ...], lines: List[Vector],
                 rays: List[Vector]) -> None:
        self.variables = variables
        self.lines = lines
        self.rays = rays

    # -- construction ------------------------------------------------------

    @classmethod
    def from_facts(cls, facts: Iterable[LinExpr]) -> "Polyhedron":
        """The polyhedron ``{x : e(x) >= 0 for every fact e}``."""
        cleaned: List[LinExpr] = []
        infeasible = False
        for fact in facts:
            if fact.is_constant():
                if fact.const_term < 0:
                    infeasible = True
                continue
            _, canonical = fact.normalised()
            cleaned.append(canonical)
        names = sorted({var for fact in cleaned for var in fact.variables()})
        variables = tuple(names)
        dim = len(variables) + 1
        if infeasible:
            return cls(variables, [], [])
        column = {var: i for i, var in enumerate(variables)}
        vectors: List[Vector] = [_unit(dim, dim - 1)]        # t >= 0 first
        for fact in sorted(set(cleaned), key=LinExpr.sort_key):
            row = [_ZERO] * dim
            for var, coeff in fact.coeff_items:
                row[column[var]] = coeff
            row[dim - 1] = fact.const_term
            vectors.append(_primitive(row))
        lines, rays = double_description(dim, vectors)
        return cls(variables, lines, rays)

    # -- basic queries -----------------------------------------------------

    def is_empty(self) -> bool:
        """No generator with a positive homogenising coordinate: no point."""
        return not any(ray[-1] > 0 for ray in self.rays)

    def _objective_vector(self, expression: LinExpr) -> Optional[Vector]:
        """``expression`` as a coordinate vector; None if it mentions an
        unconstrained variable (one this polyhedron says nothing about)."""
        column = {var: i for i, var in enumerate(self.variables)}
        row = [_ZERO] * (len(self.variables) + 1)
        for var, coeff in expression.coeff_items:
            if var not in column:
                return None
            row[column[var]] = coeff
        row[-1] = expression.const_term
        return tuple(row)

    def minimize(self, expression: LinExpr) -> Coeff:
        """``inf { expression(x) | x in self }`` exactly.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` on the empty
        polyhedron and :class:`~repro.logic.fourier_motzkin.Unbounded` when
        the infimum is ``-inf``.
        """
        if self.is_empty():
            raise fm.Infeasible()
        vector = self._objective_vector(expression)
        if vector is None:
            # A variable the polyhedron does not constrain: the value can be
            # pushed to -inf along that free coordinate.
            raise fm.Unbounded()
        linear = vector[:-1] + (_ZERO,)     # drop the constant for directions
        for line in self.lines:
            if _dot(linear, line) != 0:
                raise fm.Unbounded()
        best: Optional[Coeff] = None
        for ray in self.rays:
            value = _dot(linear, ray)
            if ray[-1] == 0:
                if value < 0:
                    raise fm.Unbounded()
                continue
            vertex_value = Fraction(value, ray[-1]) + expression.const_term
            if best is None or vertex_value < best:
                best = vertex_value
        assert best is not None     # non-empty => at least one vertex
        return exact(best)

    def entails(self, fact: LinExpr) -> bool:
        """Whether every point satisfies ``fact >= 0``."""
        try:
            return self.minimize(fact) >= 0
        except fm.Infeasible:
            return True
        except fm.Unbounded:
            return False

    # -- conversions -------------------------------------------------------

    def project(self, keep: Iterable[str]) -> "Polyhedron":
        """Project onto the ``keep`` variables (generator-side: drop columns)."""
        keep_set = set(keep)
        kept = tuple(var for var in self.variables if var in keep_set)
        columns = [i for i, var in enumerate(self.variables)
                   if var in keep_set] + [len(self.variables)]

        def shrink(vector: Vector) -> Vector:
            return tuple(vector[i] for i in columns)

        lines = []
        seen: Set[Vector] = set()
        for line in self.lines:
            small = _primitive(shrink(line))
            if any(value != 0 for value in small) and small not in seen \
                    and tuple(-v for v in small) not in seen:
                seen.add(small)
                lines.append(small)
        rays = []
        seen_rays: Set[Vector] = set()
        for ray in self.rays:
            small = _primitive(shrink(ray))
            if any(value != 0 for value in small) and small not in seen_rays:
                seen_rays.add(small)
                rays.append(small)
        return Polyhedron(kept, lines, rays)

    def constraints(self) -> Tuple[LinExpr, ...]:
        """The canonical minimal constraint system (``e >= 0`` facts).

        Runs the double description method on the polar side: the facets of
        this polyhedron are the extreme rays of the dual cone
        ``{a : a . l = 0, a . r >= 0}``.  Implicit equalities surface as the
        dual cone's lineality and are emitted as a reduced-row-echelon basis
        (each equality as a ``+e``/``-e`` fact pair); inequalities are
        reduced modulo that basis, made primitive and sorted, so equal
        polyhedra yield byte-identical constraint tuples.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` on the empty
        polyhedron (it has no finite constraint representation here).
        """
        if self.is_empty():
            raise fm.Infeasible()
        dim = len(self.variables) + 1
        dual_constraints: List[Vector] = []
        for line in sorted(self.lines):
            dual_constraints.append(line)
            dual_constraints.append(tuple(-value for value in line))
        dual_constraints.extend(sorted(self.rays))
        dual_lines, dual_rays = double_description(dim, dual_constraints)
        basis = _row_echelon(list(dual_lines))
        facts: List[LinExpr] = []
        for row in basis:
            expr = self._expr_from(row)
            if expr is None:
                continue        # t = 0 cannot arise on a non-empty polyhedron
            facts.append(expr)
            facts.append(-expr)
        inequalities: Set[LinExpr] = set()
        for ray in dual_rays:
            reduced = _reduce_modulo(ray, basis)
            expr = self._expr_from(reduced)
            if expr is not None:
                inequalities.add(expr)
        facts.extend(sorted(inequalities, key=LinExpr.sort_key))
        return tuple(facts)

    def _expr_from(self, vector: Vector) -> Optional[LinExpr]:
        coeffs = {var: value for var, value
                  in zip(self.variables, vector[:-1]) if value != 0}
        if not coeffs:
            return None          # the trivial ``t >= 0`` / constant facet
        return LinExpr(coeffs, vector[-1])

    def __repr__(self) -> str:
        if self.is_empty():
            return "Polyhedron(empty)"
        return (f"Polyhedron(vars={list(self.variables)}, "
                f"lines={len(self.lines)}, rays={len(self.rays)})")


# ---------------------------------------------------------------------------
# The canonical constraint form
# ---------------------------------------------------------------------------

def canonical_constraints(facts: Iterable[LinExpr]) -> Tuple[LinExpr, ...]:
    """The canonical minimal constraint system of ``{x : facts}``.

    One primal DD conversion plus one dual conversion; the output is the
    :meth:`Polyhedron.constraints` normal form, which depends only on the
    described *point set* -- representation-producing results
    (``Context.assign``) go through this form, which is what makes context
    fact tuples (and therefore base-function atoms and certificates)
    independent of how a projection was computed (eliminator, cap path,
    pre-filter setting).
    Raises :class:`~repro.logic.fourier_motzkin.Infeasible` when empty.
    """
    return Polyhedron.from_facts(facts).constraints()
