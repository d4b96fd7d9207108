"""Linear expressions over program variables with exact rational coefficients.

A :class:`LinExpr` represents ``c0 + c1*x1 + ... + cn*xn`` where the ``xi``
are program-variable names.  Coefficients are exact and in the normal form
of :func:`~repro.utils.rationals.exact`: an ``int`` when integral, a
``Fraction`` otherwise (never a float).  Every operator keeps that form,
and division goes through ``Fraction`` so ``int / int`` never yields a
float.  They are the building blocks of

* logical contexts (conjunctions of ``LinExpr >= 0``),
* interval atoms ``max(0, LinExpr)`` used as base functions, and
* guard/assignment expressions after lowering from the AST.

Instances are immutable and hashable so they can serve as dictionary keys.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.utils.rationals import Coeff, Number, exact, pretty_fraction

State = Mapping[str, Union[int, float, Fraction]]


class LinExpr:
    """An immutable linear expression ``constant + sum(coeff_v * v)``."""

    __slots__ = ("_coeffs", "_coeff_map", "_const", "_hash")

    def __init__(self, coeffs: Optional[Mapping[str, Number]] = None,
                 const: Number = 0) -> None:
        clean: Dict[str, Coeff] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                value = exact(coeff)
                if value != 0:
                    clean[str(var)] = value
        self._coeffs: Tuple[Tuple[str, Coeff], ...] = tuple(sorted(clean.items()))
        self._coeff_map: Dict[str, Coeff] = clean
        self._const: Coeff = exact(const)
        self._hash: Optional[int] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "LinExpr":
        """The expression consisting of a single variable."""
        return cls({name: 1})

    @classmethod
    def const(cls, value: Number) -> "LinExpr":
        """A constant expression."""
        return cls({}, value)

    @classmethod
    def zero(cls) -> "LinExpr":
        return cls({}, 0)

    @classmethod
    def _raw(cls, clean: Dict[str, Coeff], const: Coeff) -> "LinExpr":
        """Wrap an already-clean coefficient dict without re-validating it.

        Internal fast path for the arithmetic operators: ``clean`` must map
        variable names to non-zero normal-form values, ``const`` must be in
        normal form, and ``clean`` is owned by the result.
        """
        self = object.__new__(cls)
        self._coeffs = tuple(sorted(clean.items()))
        self._coeff_map = clean
        self._const = const
        self._hash = None
        return self

    # -- accessors --------------------------------------------------------

    @property
    def coeffs(self) -> Dict[str, Coeff]:
        """A fresh dict of the variable coefficients (non-zero only)."""
        return dict(self._coeffs)

    @property
    def coeff_items(self) -> Tuple[Tuple[str, Coeff], ...]:
        """The coefficients as a sorted ``(var, coeff)`` tuple (no copy)."""
        return self._coeffs

    @property
    def const_term(self) -> Coeff:
        return self._const

    def coefficient(self, var: str) -> Coeff:
        return self._coeff_map.get(var, 0)

    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self._const == 0

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        other_expr = _as_linexpr(other)
        coeffs = dict(self._coeff_map)
        for var, coeff in other_expr._coeffs:
            value = coeffs.get(var)
            if value is None:
                coeffs[var] = coeff
                continue
            value = exact(value + coeff)
            if value == 0:
                del coeffs[var]
            else:
                coeffs[var] = value
        return LinExpr._raw(coeffs, exact(self._const + other_expr._const))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw({var: -coeff for var, coeff in self._coeffs},
                            -self._const)

    def __sub__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        return self + (-_as_linexpr(other))

    def __rsub__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        return _as_linexpr(other) + (-self)

    def __mul__(self, scalar: Number) -> "LinExpr":
        factor = exact(scalar)
        if factor == 0:
            return LinExpr.zero()
        return LinExpr._raw({var: exact(coeff * factor)
                             for var, coeff in self._coeffs},
                            exact(self._const * factor))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Number) -> "LinExpr":
        factor = exact(scalar)
        if factor == 0:
            raise ZeroDivisionError("division of a linear expression by zero")
        return self * (Fraction(1) / factor)

    def scale(self, scalar: Number) -> "LinExpr":
        return self * scalar

    # -- substitution and evaluation --------------------------------------

    def substitute(self, var: str, replacement: "LinExpr") -> "LinExpr":
        """Return ``self`` with every occurrence of ``var`` replaced."""
        coeff = self.coefficient(var)
        if coeff == 0:
            return self
        remaining = {name: value for name, value in self._coeffs if name != var}
        base = LinExpr._raw(remaining, self._const)
        return base + replacement * coeff

    def substitute_all(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        result = self
        for var, replacement in mapping.items():
            result = result.substitute(var, replacement)
        return result

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        coeffs: Dict[str, Coeff] = {}
        for var, coeff in self._coeffs:
            target = mapping.get(var, var)
            coeffs[target] = coeffs.get(target, 0) + coeff
        return LinExpr(coeffs, self._const)

    def evaluate(self, state: State) -> Coeff:
        """Evaluate under ``state``; missing variables raise ``KeyError``."""
        total = self._const
        for var, coeff in self._coeffs:
            total += coeff * exact(state[var])
        return exact(total)

    # -- normalisation -----------------------------------------------------

    def normalised(self) -> Tuple[Coeff, "LinExpr"]:
        """Split into ``(scale, canonical)`` with ``scale > 0``.

        Two expressions that are positive multiples of each other share the
        same canonical form -- this makes ``max(0, 2x) == 2 * max(0, x)``
        representable with one interval atom.  Constant expressions return
        scale 1 and themselves.
        """
        if not self._coeffs:
            return 1, self
        lead = self._coeffs[0][1]
        scale = abs(lead)
        if scale == 1:
            return scale, self
        canonical = self / scale
        return scale, canonical

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._coeffs, self._const))
        return self._hash

    def sort_key(self) -> Tuple:
        """``(coeffs, const)``: the normal form keeps the common integral
        comparisons in C."""
        return (self._coeffs, self._const)

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts = []
        for var, coeff in self._coeffs:
            if coeff == 1:
                parts.append(var if not parts else f"+ {var}")
            elif coeff == -1:
                parts.append(f"-{var}" if not parts else f"- {var}")
            else:
                rendered = pretty_fraction(abs(coeff))
                sign = "-" if coeff < 0 else "+"
                if not parts:
                    prefix = "-" if coeff < 0 else ""
                    parts.append(f"{prefix}{rendered}*{var}")
                else:
                    parts.append(f"{sign} {rendered}*{var}")
        if self._const != 0 or not parts:
            rendered = pretty_fraction(abs(self._const))
            if not parts:
                prefix = "-" if self._const < 0 else ""
                parts.append(f"{prefix}{rendered}")
            else:
                sign = "-" if self._const < 0 else "+"
                parts.append(f"{sign} {rendered}")
        return " ".join(parts)


def _as_linexpr(value: Union[LinExpr, Number]) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.const(value)


def linear_combination(terms: Iterable[Tuple[Number, LinExpr]]) -> LinExpr:
    """Return ``sum(coeff * expr)`` over the given pairs."""
    total = LinExpr.zero()
    for coeff, expr in terms:
        total = total + expr * coeff
    return total
