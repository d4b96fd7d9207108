"""Linear constraint system over symbolic potential-annotation coefficients.

During the first phase of the analysis (Sec. 5) the coefficients of potential
annotations are left symbolic; each symbolic coefficient becomes a variable
of a linear program.  This module provides

* :class:`LPVar` -- a single LP variable,
* :class:`AffExpr` -- affine expressions ``const + sum(coeff_i * var_i)`` with
  exact rational coefficients; annotation coefficients are such expressions so
  that rules like ``Q:PIf`` (weighted sums) or ``Q:Tick`` need no fresh
  variables.  Coefficients are in the normal form of
  :func:`~repro.utils.rationals.exact` -- an ``int`` when integral, a
  ``Fraction`` otherwise -- which makes the common integral arithmetic and
  the LP assembly's ``float()`` conversions cheap,
* :class:`ConstraintSystem` -- collects equality and inequality constraints
  and hands them to the LP solver (:mod:`repro.core.solver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.utils.rationals import Coeff, Number, exact, pretty_fraction


@dataclass(frozen=True, eq=False)
class LPVar:
    """One variable of the linear program.

    Instances are created exactly once per variable (by
    :meth:`ConstraintSystem.new_var`), so identity equality/hashing is both
    correct and much faster than field-based hashing -- LPVars key the term
    dicts of every :class:`AffExpr` on the analyzer's hottest path.
    """

    index: int
    name: str
    nonneg: bool = False

    def __str__(self) -> str:
        return self.name


class AffExpr:
    """An affine expression over LP variables with rational coefficients."""

    __slots__ = ("_terms", "_const")

    def __init__(self, terms: Optional[Mapping[LPVar, Number]] = None,
                 const: Number = 0) -> None:
        clean: Dict[LPVar, Coeff] = {}
        if terms:
            for var, coeff in terms.items():
                value = exact(coeff)
                if value != 0:
                    clean[var] = value
        self._terms = clean
        self._const = exact(const)

    # -- constructors -------------------------------------------------------

    @classmethod
    def of_var(cls, var: LPVar) -> "AffExpr":
        return cls({var: 1})

    @classmethod
    def constant(cls, value: Number) -> "AffExpr":
        return cls({}, value)

    @classmethod
    def zero(cls) -> "AffExpr":
        return cls()

    @classmethod
    def _raw(cls, terms: Dict[LPVar, Coeff], const: Coeff) -> "AffExpr":
        """Wrap an already-clean term dict without re-validating it.

        Internal fast path: ``terms`` must map LPVars to non-zero
        normal-form values, ``const`` must be in normal form, and ``terms``
        is owned by the new expression (not copied).
        """
        self = object.__new__(cls)
        self._terms = terms
        self._const = const
        return self

    def with_fresh_terms(self, fresh: Mapping[LPVar, Coeff]) -> "AffExpr":
        """``self`` plus entries on variables it does not mention.

        No accumulation happens: the caller guarantees that ``fresh`` maps
        variables absent from ``self`` to non-zero normal-form values (e.g.
        the fresh multiplier columns of one ``Q:Weaken`` row).
        """
        if not fresh:
            return self
        terms = dict(self._terms)
        terms.update(fresh)
        return AffExpr._raw(terms, self._const)

    # -- accessors -----------------------------------------------------------

    @property
    def terms(self) -> Dict[LPVar, Coeff]:
        return dict(self._terms)

    def term_items(self):
        """Items view of the term dict (no copy; do not mutate)."""
        return self._terms.items()

    @property
    def const(self) -> Coeff:
        return self._const

    def is_constant(self) -> bool:
        return not self._terms

    def is_zero(self) -> bool:
        return not self._terms and self._const == 0

    def variables(self) -> Tuple[LPVar, ...]:
        return tuple(self._terms)

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: Union["AffExpr", Number]) -> "AffExpr":
        other_expr = _as_affexpr(other)
        terms = dict(self._terms)
        for var, coeff in other_expr._terms.items():
            value = terms.get(var)
            if value is None:
                terms[var] = coeff
                continue
            value = exact(value + coeff)
            if value == 0:
                del terms[var]
            else:
                terms[var] = value
        return AffExpr._raw(terms, exact(self._const + other_expr._const))

    __radd__ = __add__

    def __neg__(self) -> "AffExpr":
        return AffExpr._raw({var: -coeff for var, coeff in self._terms.items()},
                            -self._const)

    def __sub__(self, other: Union["AffExpr", Number]) -> "AffExpr":
        return self + (-_as_affexpr(other))

    def __rsub__(self, other: Union["AffExpr", Number]) -> "AffExpr":
        return _as_affexpr(other) + (-self)

    def __mul__(self, scalar: Number) -> "AffExpr":
        factor = exact(scalar)
        if factor == 0:
            return AffExpr._raw({}, 0)
        return AffExpr._raw({var: exact(coeff * factor)
                             for var, coeff in self._terms.items()},
                            exact(self._const * factor))

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[LPVar, Union[float, Fraction]]) -> Coeff:
        # LP solutions are sparse: zero values contribute nothing, so they
        # skip the exact arithmetic.
        total = self._const
        for var, coeff in self._terms.items():
            value = assignment[var]
            if value:
                total += coeff * exact(value)
        return exact(total)

    # -- rendering --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffExpr):
            return NotImplemented
        return self._terms == other._terms and self._const == other._const

    def __hash__(self) -> int:
        return hash((tuple(sorted(((v.index, c) for v, c in self._terms.items()))),
                     self._const))

    def __repr__(self) -> str:
        return f"AffExpr({self})"

    def __str__(self) -> str:
        parts = []
        for var, coeff in sorted(self._terms.items(), key=lambda item: item[0].index):
            if coeff == 1:
                parts.append(str(var))
            else:
                parts.append(f"{pretty_fraction(coeff)}*{var}")
        if self._const != 0 or not parts:
            parts.append(pretty_fraction(self._const))
        return " + ".join(parts)


def _as_affexpr(value: Union[AffExpr, Number]) -> AffExpr:
    if isinstance(value, AffExpr):
        return value
    return AffExpr.constant(value)


@dataclass
class Constraint:
    """``expr == 0`` (kind 'eq') or ``expr >= 0`` (kind 'ge')."""

    expr: AffExpr
    kind: str
    origin: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("eq", "ge"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")


class ConstraintSystem:
    """Accumulates LP variables and linear constraints (append-only)."""

    def __init__(self) -> None:
        self.variables: List[LPVar] = []
        self.constraints: List[Constraint] = []

    # -- variables ------------------------------------------------------------

    def new_var(self, name: str, nonneg: bool = False) -> AffExpr:
        """Create a fresh LP variable and return it wrapped in an expression."""
        var, = self.new_columns([name], nonneg)
        return AffExpr.of_var(var)

    def new_vars(self, count: int, prefix: str, nonneg: bool = False) -> List[AffExpr]:
        return [self.new_var(f"{prefix}_{i}", nonneg) for i in range(count)]

    def new_columns(self, names: Iterable[str], nonneg: bool = False) -> List[LPVar]:
        """Create one fresh LP variable per name, in order, as bare LPVars.

        The bulk form of :meth:`new_var` for callers that place the columns
        into rows themselves (``Q:Weaken`` multipliers).
        """
        start = len(self.variables)
        created = [LPVar(start + offset, name, nonneg)
                   for offset, name in enumerate(names)]
        self.variables.extend(created)
        return created

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    # -- constraints -------------------------------------------------------------

    def add_eq(self, left: Union[AffExpr, Number], right: Union[AffExpr, Number] = 0,
               origin: str = "") -> None:
        """Add ``left == right`` (dropped when trivially true)."""
        if isinstance(left, AffExpr) and not isinstance(right, AffExpr) and right == 0:
            expr = left
        else:
            expr = _as_affexpr(left) - _as_affexpr(right)
        if expr.is_constant():
            if expr.const != 0:
                # Record an obviously infeasible constraint so the solver
                # reports failure instead of silently dropping it.
                self.constraints.append(Constraint(expr, "eq", origin or "contradiction"))
            return
        self.constraints.append(Constraint(expr, "eq", origin))

    def add_ge(self, left: Union[AffExpr, Number], right: Union[AffExpr, Number] = 0,
               origin: str = "") -> None:
        """Add ``left >= right`` (dropped when trivially true)."""
        if isinstance(left, AffExpr) and not isinstance(right, AffExpr) and right == 0:
            expr = left
        else:
            expr = _as_affexpr(left) - _as_affexpr(right)
        if expr.is_constant():
            if expr.const < 0:
                self.constraints.append(Constraint(expr, "ge", origin or "contradiction"))
            return
        self.constraints.append(Constraint(expr, "ge", origin))

    def add_le(self, left: Union[AffExpr, Number], right: Union[AffExpr, Number] = 0,
               origin: str = "") -> None:
        self.add_ge(_as_affexpr(right), _as_affexpr(left), origin)

    # -- statistics / debugging ------------------------------------------------------

    def describe(self) -> str:
        return (f"ConstraintSystem with {self.num_variables} variables and "
                f"{self.num_constraints} constraints")

    def __repr__(self) -> str:
        return self.describe()
