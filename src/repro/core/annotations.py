"""Potential annotations: symbolic-coefficient linear combinations of base functions.

A potential annotation ``Q`` (paper Sec. 4.1) assigns to every base function
(a :class:`~repro.utils.polynomials.Monomial`) a coefficient.  During
constraint generation the coefficients are *symbolic*: affine expressions
over LP variables (:class:`~repro.core.constraints.AffExpr`).  The vector
space structure of annotations (``Q:PIf`` takes weighted sums, ``Q:Tick``
shifts the constant coefficient, ``Q:Assign`` applies an exact substitution)
is implemented directly on this representation.

After the LP has been solved an annotation can be *instantiated* into a
concrete :class:`~repro.utils.polynomials.Polynomial` potential function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.core.constraints import AffExpr, ConstraintSystem, LPVar
from repro.utils.linear import LinExpr
from repro.utils.polynomials import Monomial, Polynomial
from repro.utils.rationals import Coeff, Number, exact

CoeffLike = Union[AffExpr, Number]


def _as_coeff(value: CoeffLike) -> AffExpr:
    if isinstance(value, AffExpr):
        return value
    return AffExpr.constant(value)


class PotentialAnnotation:
    """A map from monomials to symbolic coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, CoeffLike]] = None) -> None:
        clean: Dict[Monomial, AffExpr] = {}
        if terms:
            for monomial, coeff in terms.items():
                expr = _as_coeff(coeff)
                if not expr.is_zero():
                    existing = clean.get(monomial)
                    clean[monomial] = expr if existing is None else existing + expr
        self._terms = clean

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls) -> "PotentialAnnotation":
        return cls()

    @classmethod
    def constant(cls, value: CoeffLike) -> "PotentialAnnotation":
        return cls({Monomial.one(): value})

    @classmethod
    def of_polynomial(cls, polynomial: Polynomial) -> "PotentialAnnotation":
        return cls({monomial: coeff for monomial, coeff in polynomial.terms.items()})

    @classmethod
    def template(cls, system: ConstraintSystem, monomials: Iterable[Monomial],
                 name: str, nonneg: bool = True) -> "PotentialAnnotation":
        """Create a fresh template: one LP variable per base function.

        Non-constant coefficients are declared non-negative (potential
        functions are non-negative linear combinations of non-negative base
        functions); the constant coefficient is non-negative as well, matching
        the implicit ``Q >= 0`` side conditions of the derivation rules at
        junction points.
        """
        terms: Dict[Monomial, AffExpr] = {}
        ordered = sorted(set(monomials), key=lambda m: m.sort_key())
        if Monomial.one() not in ordered:
            ordered.insert(0, Monomial.one())
        for position, monomial in enumerate(ordered):
            label = f"{name}[{monomial}]"
            terms[monomial] = system.new_var(label, nonneg=nonneg)
        return cls(terms)

    # -- accessors -------------------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, AffExpr]:
        return dict(self._terms)

    def coefficient(self, monomial: Monomial) -> AffExpr:
        return self._terms.get(monomial, AffExpr.zero())

    def constant_coefficient(self) -> AffExpr:
        return self.coefficient(Monomial.one())

    def monomials(self) -> Tuple[Monomial, ...]:
        return tuple(sorted(self._terms, key=lambda m: m.sort_key()))

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(monomial.degree() for monomial in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- vector-space operations ----------------------------------------------------------

    def plus(self, other: "PotentialAnnotation") -> "PotentialAnnotation":
        terms: Dict[Monomial, AffExpr] = dict(self._terms)
        for monomial, coeff in other._terms.items():
            existing = terms.get(monomial)
            terms[monomial] = coeff if existing is None else existing + coeff
        return PotentialAnnotation(terms)

    def __add__(self, other: "PotentialAnnotation") -> "PotentialAnnotation":
        return self.plus(other)

    def scale(self, factor: Number) -> "PotentialAnnotation":
        value = exact(factor)
        if value == 0:
            return PotentialAnnotation.zero()
        return PotentialAnnotation(
            {monomial: coeff * value for monomial, coeff in self._terms.items()})

    def add_constant(self, amount: CoeffLike) -> "PotentialAnnotation":
        """``Q + q`` in the paper's notation: shift the constant coefficient."""
        terms = dict(self._terms)
        one = Monomial.one()
        terms[one] = self.coefficient(one) + _as_coeff(amount)
        return PotentialAnnotation(terms)

    def add_polynomial(self, polynomial: Polynomial,
                       scale: CoeffLike = 1) -> "PotentialAnnotation":
        """Add ``scale * polynomial`` (polynomial has rational coefficients)."""
        scale_expr = _as_coeff(scale)
        terms = dict(self._terms)
        for monomial, coeff in polynomial.terms.items():
            contribution = scale_expr * coeff
            existing = terms.get(monomial)
            terms[monomial] = contribution if existing is None else existing + contribution
        return PotentialAnnotation(terms)

    @staticmethod
    def weighted_sum(parts: Sequence[Tuple[Number, "PotentialAnnotation"]]
                     ) -> "PotentialAnnotation":
        """``sum(p_i * Q_i)`` -- used by ``Q:PIf`` and ``Q:Sample``."""
        total = PotentialAnnotation.zero()
        for weight, annotation in parts:
            total = total.plus(annotation.scale(weight))
        return total

    # -- program-state substitution (Q:Assign) -----------------------------------------------

    def substitute(self, var: str, replacement: LinExpr) -> "PotentialAnnotation":
        """Exact ``Q[replacement / var]``: substitute inside every base function."""
        terms: Dict[Monomial, AffExpr] = {}
        for monomial, coeff in self._terms.items():
            scale, new_monomial = monomial.substitute(var, replacement)
            if scale == 0:
                continue
            contribution = coeff if scale == 1 else coeff * scale
            existing = terms.get(new_monomial)
            terms[new_monomial] = contribution if existing is None \
                else existing + contribution
        return PotentialAnnotation(terms)

    def drop_monomials_with_variable(self, var: str,
                                     system: ConstraintSystem,
                                     origin: str = "") -> "PotentialAnnotation":
        """Force coefficients of base functions mentioning ``var`` to zero.

        Used when an assignment cannot be tracked (non-linear right-hand
        side): the continuation potential must not depend on the overwritten
        variable.
        """
        kept: Dict[Monomial, AffExpr] = {}
        for monomial, coeff in self._terms.items():
            if var in monomial.variables():
                system.add_eq(coeff, 0, origin=origin or f"drop[{var}]")
            else:
                kept[monomial] = coeff
        return PotentialAnnotation(kept)

    # -- solution extraction ------------------------------------------------------------------

    def instantiate(self, assignment: Mapping[LPVar, Union[float, Fraction]]
                    ) -> Polynomial:
        """Evaluate the symbolic coefficients under an LP solution."""
        terms: Dict[Monomial, Coeff] = {}
        for monomial, coeff in self._terms.items():
            value = coeff.evaluate(assignment)
            if value != 0:
                terms[monomial] = value
        return Polynomial(terms)

    # -- rendering ---------------------------------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "PotentialAnnotation(0)"
        inner = " + ".join(f"({coeff})*{monomial}"
                           for monomial, coeff in sorted(
                               self._terms.items(), key=lambda kv: kv[0].sort_key()))
        return f"PotentialAnnotation({inner})"
