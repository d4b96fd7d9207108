"""A sound, exact per-variable bounds domain: the cheap first tier.

Most entailment queries the analyzer asks on the paper's benchmarks are
decidable from variable *bounds* alone (``x >= 1 && x <= n`` style
contexts dominate).  This module derives an :class:`IntervalBox` -- one
``[low, high]`` interval per variable, exact -- from a
context's facts in a single linear scan, and offers ``entails`` /
``is_satisfiable`` / ``glb`` *deciders* that answer **only when bounds
alone provably give the exact backend's answer** and return
:data:`UNDECIDED` otherwise.

That "decided answers equal the exact answer" discipline is what lets the
:class:`~repro.logic.entailment.EntailmentEngine` front both exact
backends (Fourier-Motzkin and the DD polyhedra) with this tier and still
keep the registry-wide byte-identity invariant: memo caches can be shared
between pre-filter on and off because a decided answer never differs from
the cold one.  Concretely:

* only *single-variable* facts ``a*x + c >= 0`` contribute bounds; the
  box therefore always **contains** the context's region (it is a sound
  over-approximation), and the multi-variable leftovers are kept as the
  ``residual`` facts;
* when every fact is single-variable the box *is* the region
  (``exact``), so interval evaluation is the exact optimum;
* a crossed interval (``low > high``) proves the context infeasible
  outright, since the bounds are consequences of the actual facts;
* a box optimum is attained at a *corner*; when that corner (completed
  with arbitrary in-bounds values for the remaining variables) also
  satisfies every residual fact, it is a genuine point of the region --
  a **witness** that the box optimum is the exact optimum even though
  the box over-approximates.

The decision rules (see each method) use only those facts, so every
decided answer is a theorem about the exact region --
``tests/test_domain_differential.py`` checks this against both exact
backends over randomized systems.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from repro.utils.linear import LinExpr
from repro.utils.rationals import Coeff, exact

#: Sentinel returned by the deciders when bounds alone cannot answer.
#: Distinct from ``None`` because ``glb`` legitimately *decides* ``None``
#: (the engine's "no finite greatest lower bound" convention).
UNDECIDED = object()

#: One bound pair: ``None`` means unbounded in that direction.
Bounds = Tuple[Optional[Coeff], Optional[Coeff]]

#: Bound-propagation rounds over the residual facts.  Chains longer than
#: this stay undecided (sound); the cap keeps construction linear-ish.
_PROPAGATION_ROUNDS = 4


class IntervalBox:
    """Per-variable bounds harvested from ``e >= 0`` facts.

    ``bounds`` maps each mentioned variable to ``(low, high)`` with
    ``None`` for a missing bound.  ``exact`` records that *every* fact was
    single-variable, i.e. the box equals the context's region instead of
    merely containing it; otherwise ``residual`` holds the multi-variable
    facts the box dropped (used for witness-point checks).  ``infeasible``
    records a crossed interval, which proves the *context* (not just the
    box) unsatisfiable.
    """

    __slots__ = ("bounds", "residual", "exact", "infeasible")

    def __init__(self, bounds: Dict[str, Bounds],
                 residual: Tuple[LinExpr, ...], exact: bool,
                 infeasible: bool) -> None:
        self.bounds = bounds
        self.residual = residual
        self.exact = exact
        self.infeasible = infeasible

    # -- construction ------------------------------------------------------

    @classmethod
    def from_facts(cls, facts: Iterable[LinExpr]) -> "IntervalBox":
        """One linear scan: fold every single-variable fact into a bound."""
        bounds: Dict[str, Bounds] = {}
        residual = []
        all_single = True
        infeasible = False
        for fact in facts:
            items = fact.coeff_items
            if not items:
                if fact.const_term < 0:
                    infeasible = True
                continue
            if len(items) != 1:
                all_single = False
                residual.append(fact)
                continue
            (var, coeff), = items
            # a*x + c >= 0  <=>  x >= -c/a (a > 0)  |  x <= -c/a (a < 0).
            value = exact(Fraction(-fact.const_term, coeff))
            low, high = bounds.get(var, (None, None))
            if coeff > 0:
                if low is None or value > low:
                    low = value
            else:
                if high is None or value < high:
                    high = value
            if low is not None and high is not None and low > high:
                infeasible = True
            bounds[var] = (low, high)
        box = cls(bounds, tuple(residual), all_single, infeasible)
        if residual and not infeasible:
            box._propagate()
        return box

    def _propagate(self, rounds: int = _PROPAGATION_ROUNDS) -> None:
        """Tighten the box with bounds implied by the residual facts.

        For a fact ``a_v*v + S >= 0`` (``S`` the rest of the fact) every
        region point satisfies ``a_v*v >= -S >= -max(S)``, so the box
        maximum of ``S`` yields a bound on ``v`` that is a *consequence*
        of the facts -- the tightened box still contains the region, and
        witness completion stays valid because the deciders re-check the
        residual facts pointwise.  A few rounds let bounds flow through
        chains of facts; a crossed result proves the context infeasible.
        """
        for _ in range(rounds):
            changed = False
            for fact in self.residual:
                items = fact.coeff_items
                for var, coeff in items:
                    rest = fact.const_term
                    for other, other_coeff in items:
                        if other == var:
                            continue
                        low, high = self.bounds.get(other, (None, None))
                        bound = high if other_coeff > 0 else low
                        if bound is None:
                            rest = None
                            break
                        rest += other_coeff * bound
                    if rest is None:
                        continue
                    value = exact(Fraction(-rest, coeff))
                    low, high = self.bounds.get(var, (None, None))
                    if coeff > 0:
                        if low is None or value > low:
                            low, changed = value, True
                    else:
                        if high is None or value < high:
                            high, changed = value, True
                    if low is not None and high is not None and low > high:
                        self.infeasible = True
                        return
                    self.bounds[var] = (low, high)
            if not changed:
                return

    # -- interval evaluation -----------------------------------------------

    def minimum(self, expression: LinExpr) -> Optional[Coeff]:
        """Exact minimum of ``expression`` over the box; ``None`` = -inf.

        For a linear function over a product of intervals the minimum is
        attained coordinate-wise: the lower bound where the coefficient is
        positive, the upper bound where it is negative.  A missing bound
        in a needed direction makes the minimum ``-inf``.
        """
        total = expression.const_term
        for var, coeff in expression.coeff_items:
            low, high = self.bounds.get(var, (None, None))
            bound = low if coeff > 0 else high
            if bound is None:
                return None
            total += coeff * bound
        return exact(total)

    # -- witness points ----------------------------------------------------

    def _corner(self, expression: LinExpr) -> Dict[str, Coeff]:
        """The box corner attaining ``minimum(expression)``.

        Only valid when that minimum is finite (every needed bound
        exists); the caller checks.
        """
        point: Dict[str, Coeff] = {}
        for var, coeff in expression.coeff_items:
            low, high = self.bounds.get(var, (None, None))
            point[var] = low if coeff > 0 else high  # type: ignore[assignment]
        return point

    def _witnessed(self, point: Dict[str, Coeff]) -> bool:
        """Whether ``point`` extends to a genuine point of the region.

        Variables not pinned by ``point`` get an in-bounds value chosen
        greedily: the bound that helps the fact being evaluated (upper for
        a positive coefficient, lower for a negative one), else zero
        clamped into the interval.  Any in-bounds choice satisfies every
        single-variable fact by construction; the residual multi-variable
        facts are then evaluated exactly.  ``True`` proves the completed
        point lies in the region, so any box optimum it attains is the
        region's optimum -- the over-approximation gap is closed from the
        inside.  ``False`` only means *this* completion missed: the
        deciders fall back to :data:`UNDECIDED`, never to a wrong answer.
        """
        for fact in self.residual:
            total = fact.const_term
            for var, coeff in fact.coeff_items:
                value = point.get(var)
                if value is None:
                    low, high = self.bounds.get(var, (None, None))
                    preferred = high if coeff > 0 else low
                    if preferred is not None:
                        value = preferred
                    elif low is not None and low > 0:
                        value = low
                    elif high is not None and high < 0:
                        value = high
                    else:
                        value = 0
                    point[var] = value
                total += coeff * value
            if total < 0:
                return False
        return True

    # -- unboundedness certificates ----------------------------------------

    def _halfspace_glb(self, expression: LinExpr):
        """Complete glb decision for a single-fact, bounds-free context.

        When the only residual fact is ``a.x + c >= 0`` and no involved
        variable carries a bound, the region restricted to those
        coordinates is a full halfspace: the minimum of ``expression`` is
        finite iff its linear part is ``ratio * a`` with ``ratio >= 0``
        (then ``const - ratio*c``, attained on the boundary); otherwise a
        direction with ``a.d >= 0`` and ``expression.d < 0`` exists -- a
        free coordinate, the sliding direction of a non-proportional form,
        or ``a`` itself for a negative multiple -- so the glb is the
        engine's unbounded ``None``.  Returns :data:`UNDECIDED` when the
        shape conditions do not hold.
        """
        if len(self.residual) != 1:
            return UNDECIDED
        fact = self.residual[0]
        coeffs = dict(fact.coeff_items)
        involved = set(coeffs)
        involved.update(var for var, _ in expression.coeff_items)
        for var in involved:
            if self.bounds.get(var, (None, None)) != (None, None):
                return UNDECIDED
        # The first (coeff, base) pair; later pairs are compared with it by
        # cross-multiplication, so the ratio is divided out only once.
        first: Optional[Tuple[Coeff, Coeff]] = None
        matched = 0
        for var, coeff in expression.coeff_items:
            base = coeffs.get(var)
            if base is None:
                return None  # free coordinate: unbounded below
            matched += 1
            if first is None:
                first = (coeff, base)
            elif coeff * first[1] != first[0] * base:
                return None  # independent form: slide along the boundary
        if first is None:
            return UNDECIDED  # constant expression: not this tier's call
        if matched != len(coeffs):
            # A fact variable the expression lacks: the forms are
            # independent, so the boundary has a sliding direction.
            return None
        ratio = Fraction(*first)
        if ratio < 0:
            return None  # the fact's own normal is a decreasing ray
        return exact(expression.const_term - ratio * fact.const_term)

    def _unbounded_below(self, expression: LinExpr) -> bool:
        """A coordinate recession ray along which ``expression`` decreases.

        The direction ``-e_v`` (for ``coeff_v > 0``; ``+e_v`` mirrored)
        recedes in every fact when ``v`` has no bound on that side and
        every residual fact's ``v`` coefficient points the right way.  The
        caller must separately establish the region is non-empty before
        concluding the minimum is ``-inf``.
        """
        for var, coeff in expression.coeff_items:
            low, high = self.bounds.get(var, (None, None))
            if (low if coeff > 0 else high) is not None:
                continue
            if all((fcoeff <= 0 if coeff > 0 else fcoeff >= 0)
                   for fact in self.residual
                   for fvar, fcoeff in fact.coeff_items if fvar == var):
                return True
        return False

    # -- deciders ----------------------------------------------------------

    def entails(self, query: LinExpr):
        """``region |= query >= 0``: ``True``/``False`` or :data:`UNDECIDED`.

        * infeasible box => the *context* is unsatisfiable and entails
          everything: decide ``True``;
        * box minimum ``>= 0`` => the region is inside the box, so its
          minimum is at least as large: decide ``True`` (sound even when
          the box over-approximates);
        * box minimum ``< 0`` (or ``-inf``) decides ``False`` when the box
          is ``exact`` (the box minimum *is* the region minimum) or when
          the minimising corner is a witness -- a genuine region point
          where the query goes negative; otherwise the region could still
          avoid the violating corner, so the answer is :data:`UNDECIDED`.
        """
        if self.infeasible:
            return True
        minimum = self.minimum(query)
        if minimum is not None and minimum >= 0:
            return True
        if self.exact:
            return False
        if minimum is not None:
            if self._witnessed(self._corner(query)):
                return False
            return UNDECIDED
        value = self._halfspace_glb(query)
        if value is None:
            return False  # unbounded below over a non-empty halfspace
        if value is not UNDECIDED:
            return value >= 0
        if self._unbounded_below(query) and self._witnessed({}):
            return False
        return UNDECIDED

    def is_satisfiable(self):
        """Feasibility of the context: ``True``/``False`` or :data:`UNDECIDED`.

        An infeasible box proves the context unsatisfiable; an exact box
        (never crossed) is itself a non-empty region; otherwise any
        witness point proves satisfiability.
        """
        if self.infeasible:
            return False
        if self.exact:
            return True
        if self._witnessed({}):
            return True
        return UNDECIDED

    def glb(self, expression: LinExpr):
        """Greatest lower bound of ``expression`` under the context.

        The engine's callers use the *value*, so a merely-sound bound
        would be wrong: decided only when the box minimum provably equals
        the region minimum.  That holds when the box is ``exact``, and
        when the minimising corner is a witness: the box minimum is a
        lower bound on the region's (box contains region) and the witness
        attains it from inside.  An infeasible context decides the
        engine's ``None`` convention.
        """
        if self.infeasible:
            return None
        minimum = self.minimum(expression)
        if self.exact:
            return minimum
        if minimum is None:
            value = self._halfspace_glb(expression)
            if value is not UNDECIDED:
                return value
            if self._unbounded_below(expression) and self._witnessed({}):
                return None  # -inf: no finite greatest lower bound
            return UNDECIDED
        if self._witnessed(self._corner(expression)):
            return minimum
        return UNDECIDED

    def __repr__(self) -> str:
        if self.infeasible:
            return "IntervalBox(infeasible)"
        inner = ", ".join(
            f"{var} in [{low if low is not None else '-inf'}, "
            f"{high if high is not None else 'inf'}]"
            for var, (low, high) in sorted(self.bounds.items()))
        return (f"IntervalBox({inner or 'top'}"
                f"{', exact' if self.exact else ''})")
