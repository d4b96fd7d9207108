"""Interval atoms, monomials and polynomials: the base functions of the analysis.

The paper's potential functions are linear combinations of *base functions*
picked among the monomials

    M := 1 | x | M1*M2 | max(0, P)        (Sec. 7.1)

In this implementation a base function is a :class:`Monomial`: a product of
:class:`IntervalAtom` factors, each denoting ``max(0, D)`` for a linear
expression ``D`` over program variables.  The paper's interval notation
``|[L, U]|`` stands for ``max(0, U - L)``; we store the difference ``D`` in a
canonical form and reconstruct the interval notation for printing.

:class:`Polynomial` is a finite linear combination of monomials with exact
rational coefficients, in the normal form of
:func:`~repro.utils.rationals.exact` (``int`` when integral, ``Fraction``
otherwise).  Polynomials are the concrete potential functions (after the LP
has been solved), the rewrite functions used in ``Q:Weaken``, and the symbolic
cost of ``tick`` commands with expression arguments.

Atoms and monomials are *interned*: constructing an atom or monomial equal
to a live one returns that same object, so the tuple and dict comparisons on
the derivation's hot paths short-circuit on identity.  Equality stays
structural, so correctness never depends on interning.  The intern tables
and the product and substitution memos are bounded, and
:func:`clear_polynomial_caches` empties them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.utils.linear import LinExpr, State
from repro.utils.rationals import Coeff, Number, exact, pretty_fraction

#: Intern tables and the monomial product/substitution memos.  Each is
#: emptied when full (a cleared table costs identity hits, not correctness).
_ATOMS: Dict[LinExpr, "IntervalAtom"] = {}
_MONOMIALS: Dict[FrozenSet[Tuple["IntervalAtom", int]], "Monomial"] = {}
_PRODUCTS: Dict[Tuple["Monomial", "Monomial"], "Monomial"] = {}
_SUBSTITUTIONS: Dict[Tuple["Monomial", str, LinExpr],
                     Tuple[Coeff, "Monomial"]] = {}
_INTERN_LIMIT = 1 << 16
_PRODUCT_LIMIT = 1 << 17


def clear_polynomial_caches() -> None:
    """Empty the atom/monomial intern tables and the product and
    substitution memos."""
    _ATOMS.clear()
    _MONOMIALS.clear()
    _PRODUCTS.clear()
    _SUBSTITUTIONS.clear()


class IntervalAtom:
    """``max(0, D)`` for a canonical (scale-normalised) linear expression D.

    Interned: equal differences yield the same atom object.
    """

    __slots__ = ("_diff", "_hash", "_sort_key")

    def __new__(cls, diff: LinExpr) -> "IntervalAtom":
        atom = _ATOMS.get(diff)
        if atom is not None:
            return atom
        if diff.is_constant():
            raise ValueError(
                "constant interval atoms are not allowed; fold them into the "
                "constant monomial instead (use atom_product)")
        atom = object.__new__(cls)
        atom._diff = diff
        atom._hash = hash(("IntervalAtom", diff))
        atom._sort_key = diff.sort_key()
        if len(_ATOMS) >= _INTERN_LIMIT:
            _ATOMS.clear()
        _ATOMS[diff] = atom
        return atom

    def __reduce__(self):
        return IntervalAtom, (self._diff,)

    @property
    def diff(self) -> LinExpr:
        """The linear expression ``D`` such that the atom denotes ``max(0, D)``."""
        return self._diff

    def evaluate(self, state: State) -> Coeff:
        value = self._diff.evaluate(state)
        return value if value > 0 else 0

    def variables(self) -> Tuple[str, ...]:
        return self._diff.variables()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, IntervalAtom):
            return NotImplemented
        return self._diff == other._diff

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple:
        return self._sort_key

    def __repr__(self) -> str:
        return f"IntervalAtom({self._diff})"

    def __str__(self) -> str:
        lower_terms: Dict[str, Coeff] = {}
        upper_terms: Dict[str, Coeff] = {}
        for var, coeff in self._diff.coeffs.items():
            if coeff > 0:
                upper_terms[var] = coeff
            else:
                lower_terms[var] = -coeff
        const = self._diff.const_term
        lower_const = upper_const = 0
        if const >= 0:
            upper_const = const
        else:
            lower_const = -const
        lower = LinExpr(lower_terms, lower_const)
        upper = LinExpr(upper_terms, upper_const)
        return f"|[{lower}, {upper}]|"


AtomTerm = Tuple[Coeff, Optional[IntervalAtom]]


def atom_product(diff: LinExpr) -> AtomTerm:
    """Smart constructor: ``max(0, diff)`` as ``scale * atom`` (or a constant).

    Returns ``(scale, atom)`` with ``scale > 0`` such that
    ``max(0, diff) == scale * max(0, atom.diff)``.  If ``diff`` is constant,
    returns ``(max(0, diff), None)`` meaning the value folds into the constant
    monomial.
    """
    if diff.is_constant():
        value = diff.const_term
        return (value if value > 0 else 0, None)
    scale, canonical = diff.normalised()
    return scale, IntervalAtom(canonical)


class Monomial:
    """A product of interval atoms (the empty product is the constant ``1``).

    Interned: equal factor multisets yield the same monomial object.
    """

    __slots__ = ("_factors", "_hash", "_sort_key", "_str")

    def __new__(cls, factors: Union[None, Iterable[IntervalAtom],
                                    Mapping[IntervalAtom, int]] = None) -> "Monomial":
        counts: Dict[IntervalAtom, int] = {}
        if factors is None:
            pass
        elif isinstance(factors, Mapping):
            for atom, power in factors.items():
                if power < 0:
                    raise ValueError("monomial powers must be non-negative")
                if power:
                    counts[atom] = counts.get(atom, 0) + int(power)
        else:
            for atom in factors:
                counts[atom] = counts.get(atom, 0) + 1
        return _monomial(counts)

    def __reduce__(self):
        return Monomial, (dict(self._factors),)

    # -- constructors -----------------------------------------------------

    @classmethod
    def one(cls) -> "Monomial":
        return cls()

    @classmethod
    def of_atom(cls, atom: IntervalAtom, power: int = 1) -> "Monomial":
        return cls({atom: power})

    # -- accessors ----------------------------------------------------------

    @property
    def factors(self) -> Tuple[Tuple[IntervalAtom, int], ...]:
        return self._factors

    def atoms(self) -> Tuple[IntervalAtom, ...]:
        return tuple(atom for atom, _ in self._factors)

    def degree(self) -> int:
        return sum(power for _, power in self._factors)

    def is_constant(self) -> bool:
        return not self._factors

    def variables(self) -> Tuple[str, ...]:
        names = []
        for atom, _ in self._factors:
            for var in atom.variables():
                if var not in names:
                    names.append(var)
        return tuple(sorted(names))

    # -- algebra ------------------------------------------------------------

    def multiply(self, other: "Monomial") -> "Monomial":
        if not other._factors:
            return self
        key = (self, other)
        product = _PRODUCTS.get(key)
        if product is None:
            counts = dict(self._factors)
            for atom, power in other._factors:
                counts[atom] = counts.get(atom, 0) + power
            product = _monomial(counts)
            if len(_PRODUCTS) >= _PRODUCT_LIMIT:
                _PRODUCTS.clear()
            _PRODUCTS[key] = product
        return product

    def evaluate(self, state: State) -> Coeff:
        result = 1
        for atom, power in self._factors:
            value = atom.evaluate(state)
            if value == 0:
                return 0
            result *= value ** power
        return exact(result)

    def substitute(self, var: str, replacement: LinExpr) -> Tuple[Coeff, "Monomial"]:
        """Exact substitution ``m[replacement / var]`` as ``coeff * monomial``.

        Substituting a linear expression into each ``max(0, D)`` factor yields
        another ``max(0, D')`` which either stays an atom (possibly rescaled)
        or collapses to a constant, so monomials are closed under
        substitution -- this is what makes the ``Q:Assign`` rule exact in this
        implementation (cf. DESIGN.md section 2).
        """
        key = (self, var, replacement)
        result = _SUBSTITUTIONS.get(key)
        if result is None:
            result = self._substitute(var, replacement)
            if len(_SUBSTITUTIONS) >= _PRODUCT_LIMIT:
                _SUBSTITUTIONS.clear()
            _SUBSTITUTIONS[key] = result
        return result

    def _substitute(self, var: str, replacement: LinExpr) -> Tuple[Coeff, "Monomial"]:
        coeff = 1
        counts: Dict[IntervalAtom, int] = {}
        touched = False
        for atom, power in self._factors:
            if atom.diff.coefficient(var) == 0:
                counts[atom] = counts.get(atom, 0) + power
                continue
            touched = True
            new_diff = atom.diff.substitute(var, replacement)
            scale, new_atom = atom_product(new_diff)
            coeff = exact(coeff * scale ** power)
            if coeff == 0:
                return 0, Monomial.one()
            if new_atom is not None:
                counts[new_atom] = counts.get(new_atom, 0) + power
        if not touched:
            return coeff, self
        return coeff, _monomial(counts)

    # -- comparisons / hashing -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple:
        key = self._sort_key
        if key is None:
            key = self._sort_key = (
                self.degree(),
                tuple((atom.sort_key(), power) for atom, power in self._factors))
        return key

    def __repr__(self) -> str:
        return f"Monomial({self})"

    def __str__(self) -> str:
        rendered = self._str
        if rendered is None:
            parts = []
            for atom, power in self._factors:
                if power == 1:
                    parts.append(str(atom))
                else:
                    parts.append(f"{atom}^{power}")
            rendered = self._str = "*".join(parts) if parts else "1"
        return rendered


def _monomial(counts: Dict[IntervalAtom, int]) -> Monomial:
    """The interned monomial with factor multiset ``counts`` (powers > 0)."""
    key = frozenset(counts.items())
    monomial = _MONOMIALS.get(key)
    if monomial is None:
        monomial = object.__new__(Monomial)
        factors = tuple(sorted(counts.items(),
                               key=lambda item: item[0].sort_key()))
        monomial._factors = factors
        monomial._hash = hash(factors)
        monomial._sort_key = None
        monomial._str = None
        if len(_MONOMIALS) >= _INTERN_LIMIT:
            _MONOMIALS.clear()
        _MONOMIALS[key] = monomial
    return monomial


class Polynomial:
    """A finite linear combination of monomials with rational coefficients.

    Immutable; the hash is computed once, order-independently, on first use.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, Number]] = None) -> None:
        clean: Dict[Monomial, Coeff] = {}
        if terms:
            for monomial, coeff in terms.items():
                value = exact(coeff)
                if value != 0:
                    clean[monomial] = value
        self._terms = clean
        self._hash: Optional[int] = None

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Coeff]) -> "Polynomial":
        """Wrap an already-clean term dict (non-zero normal-form values,
        owned)."""
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Number) -> "Polynomial":
        return cls({Monomial.one(): value})

    @classmethod
    def of_monomial(cls, monomial: Monomial, coeff: Number = 1) -> "Polynomial":
        return cls({monomial: coeff})

    @classmethod
    def interval(cls, diff: LinExpr, coeff: Number = 1) -> "Polynomial":
        """The polynomial ``coeff * max(0, diff)``."""
        scale, atom = atom_product(diff)
        value = exact(coeff) * scale
        if atom is None:
            return cls.constant(value)
        return cls({Monomial.of_atom(atom): value})

    # -- accessors -------------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, Coeff]:
        return dict(self._terms)

    def term_items(self):
        """Items view of the term dict (no copy; do not mutate)."""
        return self._terms.items()

    def coefficient(self, monomial: Monomial) -> Coeff:
        return self._terms.get(monomial, 0)

    def monomials(self) -> Tuple[Monomial, ...]:
        return tuple(sorted(self._terms, key=lambda m: m.sort_key()))

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(monomial.degree() for monomial in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(monomial.is_constant() for monomial in self._terms)

    def constant_value(self) -> Coeff:
        return self._terms.get(Monomial.one(), 0)

    def variables(self) -> Tuple[str, ...]:
        names = set()
        for monomial in self._terms:
            names.update(monomial.variables())
        return tuple(sorted(names))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: Union["Polynomial", Number]) -> "Polynomial":
        other_poly = _as_polynomial(other)
        terms = dict(self._terms)
        for monomial, coeff in other_poly._terms.items():
            terms[monomial] = terms.get(monomial, 0) + coeff
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({monomial: -coeff for monomial, coeff in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", Number]) -> "Polynomial":
        return self + (-_as_polynomial(other))

    def __rsub__(self, other: Union["Polynomial", Number]) -> "Polynomial":
        return _as_polynomial(other) + (-self)

    def __mul__(self, other: Union["Polynomial", Number]) -> "Polynomial":
        if isinstance(other, Polynomial):
            terms: Dict[Monomial, Coeff] = {}
            for mono_a, coeff_a in self._terms.items():
                for mono_b, coeff_b in other._terms.items():
                    product = mono_a.multiply(mono_b)
                    terms[product] = terms.get(product, 0) + coeff_a * coeff_b
            return Polynomial(terms)
        factor = exact(other)
        return Polynomial({monomial: coeff * factor for monomial, coeff in self._terms.items()})

    __rmul__ = __mul__

    def times_monomial(self, monomial: Monomial) -> "Polynomial":
        """``self * monomial``: multiplying by one monomial is injective on
        monomials, so the terms map one-to-one and nothing accumulates."""
        return Polynomial._raw({term.multiply(monomial): coeff
                                for term, coeff in self._terms.items()})

    def scale(self, factor: Number) -> "Polynomial":
        return self * factor

    def substitute(self, var: str, replacement: LinExpr) -> "Polynomial":
        terms: Dict[Monomial, Coeff] = {}
        for monomial, coeff in self._terms.items():
            scale, new_monomial = monomial.substitute(var, replacement)
            value = coeff * scale
            if value != 0:
                terms[new_monomial] = terms.get(new_monomial, 0) + value
        return Polynomial(terms)

    def evaluate(self, state: State) -> Coeff:
        total = 0
        for monomial, coeff in self._terms.items():
            total += coeff * monomial.evaluate(state)
        return exact(total)

    # -- comparisons / rendering ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        ordered = sorted(self._terms.items(), key=lambda item: item[0].sort_key(), reverse=True)
        for monomial, coeff in ordered:
            rendered_coeff = pretty_fraction(abs(coeff))
            sign = "-" if coeff < 0 else "+"
            if monomial.is_constant():
                body = rendered_coeff
            elif abs(coeff) == 1:
                body = str(monomial)
            else:
                body = f"{rendered_coeff}*{monomial}"
            if not parts:
                prefix = "-" if coeff < 0 else ""
                parts.append(f"{prefix}{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _as_polynomial(value: Union[Polynomial, Number]) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)
