"""The polyhedra backend: an independent exact engine used as a test oracle.

Production answers every entailment query through Fourier-Motzkin
elimination (:class:`repro.logic.entailment.FourierMotzkinBackend`).  This
module builds a second, independently implemented exact backend on the
generator representation of :class:`repro.logic.polyhedra.Polyhedron`
(double description / Chernikova), so tests can run single queries or
whole analyses through both and demand identical answers:

* ``tests/test_domain_differential.py`` -- seeded random systems, every
  engine operation;
* ``tests/test_domain_identity.py`` -- every registry program, bound and
  serialised certificate;
* ``tests/test_program_fuzz.py`` -- soundness of fuzzed programs with the
  oracle answering.

:func:`use_polyhedra_engine` (the ``polyhedra_oracle`` fixture) installs a
polyhedra-backed engine as the process-wide engine for one block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, Sequence, Set, Tuple

from repro.core.rewrite import clear_rewrite_caches
from repro.logic import entailment
from repro.logic.entailment import EntailmentEngine
from repro.logic.polyhedra import Polyhedron, Vector, _primitive, _unit
from repro.utils.linear import LinExpr
from repro.utils.rationals import Coeff

_ZERO = 0


def extend(polyhedron: Polyhedron, variables: Iterable[str]) -> Polyhedron:
    """Embed into the space over ``variables`` (a superset of its own).

    New coordinates are unconstrained: each is added as a full line, and
    existing generators get zero entries in the new columns.
    """
    names = sorted(set(variables) | set(polyhedron.variables))
    if tuple(names) == polyhedron.variables:
        return polyhedron
    column = {var: i for i, var in enumerate(polyhedron.variables)}
    dim = len(names) + 1
    positions = [column.get(var) for var in names] \
        + [len(polyhedron.variables)]

    def grow(vector: Vector) -> Vector:
        return tuple(_ZERO if source is None else vector[source]
                     for source in positions)

    lines = [grow(line) for line in polyhedron.lines]
    lines.extend(_unit(dim, i) for i, var in enumerate(names)
                 if var not in column)
    return Polyhedron(tuple(names), lines,
                      [grow(ray) for ray in polyhedron.rays])


def assign(polyhedron: Polyhedron, var: str, rhs: LinExpr,
           low_shift: Coeff = _ZERO, high_shift: Coeff = _ZERO) -> Polyhedron:
    """Image under ``var := rhs + [low_shift, high_shift]`` -- no elimination.

    The affine substitution is applied to the generators directly (the
    image of a polyhedron's generators generates the image), then the
    nondeterministic shift is a Minkowski sum with the segment
    ``[low_shift, high_shift]`` along the ``var`` axis: each vertex splits
    into its two shifted endpoints, recession rays and lines pass through
    the (shift-invariant) linear part unchanged.
    """
    extended = extend(polyhedron, set(rhs.variables()) | {var})
    names = extended.variables
    index = names.index(var)
    column = {name: i for i, name in enumerate(names)}
    coeffs = [(column[name], coeff) for name, coeff in rhs.coeff_items]
    constant = rhs.const_term

    def image(vector: Vector) -> Vector:
        # The homogenising coordinate scales the constant term; for lines
        # and recession rays it is zero, so they map linearly.
        value = sum((coeff * vector[i] for i, coeff in coeffs), _ZERO)
        value += constant * vector[-1]
        return vector[:index] + (value,) + vector[index + 1:]

    lines = []
    seen: Set[Vector] = set()
    for line in extended.lines:
        mapped = _primitive(image(line))
        if any(value != 0 for value in mapped) and mapped not in seen \
                and tuple(-v for v in mapped) not in seen:
            seen.add(mapped)
            lines.append(mapped)
    rays = []
    seen_rays: Set[Vector] = set()
    for ray in extended.rays:
        mapped = image(ray)
        shifts = ({low_shift, high_shift} if ray[-1] > 0 else {_ZERO})
        for shift in shifts:
            shifted = mapped[:index] \
                + (mapped[index] + shift * ray[-1],) \
                + mapped[index + 1:]
            small = _primitive(shifted)
            if any(value != 0 for value in small) \
                    and small not in seen_rays:
                seen_rays.add(small)
                rays.append(small)
    return Polyhedron(names, lines, rays)


class PolyhedraBackend:
    """Adapts :class:`Polyhedron` to the entailment-engine backend interface.

    Decision queries (feasibility, entailment, exact lower bounds) run on
    the generator representation: the polyhedron of a context is built once
    (one Chernikova conversion), cached under the context's fact key, and
    every further query is a generator enumeration.

    Representation-producing operations never touch the Fourier-Motzkin
    eliminator: ``assign`` applies the affine substitution to the cached
    generators and projection drops generator columns.  Both emit the
    canonical constraint normal form (:meth:`Polyhedron.constraints`), the
    same form the FM backend canonicalises its eliminations into, so whole
    analyses must come out byte-identical under either backend.
    """

    name = "polyhedra"
    #: The engine may batch ``entails_many`` through one shared projection;
    #: the polyhedron cache makes that pointless here (queries are cheap
    #: once the polyhedron exists), so answer point-wise instead.
    batch_by_projection = False
    #: Caches are cleared wholesale past this size (mirrors the engine cap).
    MAX_ENTRIES = 50_000

    def __init__(self) -> None:
        self.engine = None
        self._polyhedra: Dict[FrozenSet[LinExpr], Polyhedron] = {}

    def attach(self, engine) -> None:
        self.engine = engine

    def polyhedron_for(self, facts: Sequence[LinExpr],
                       key: FrozenSet[LinExpr]) -> Polyhedron:
        polyhedron = self._polyhedra.get(key)
        if polyhedron is None:
            self.engine.stats.eliminations += 1
            polyhedron = Polyhedron.from_facts(facts)
            if len(self._polyhedra) > self.MAX_ENTRIES:
                self._polyhedra.clear()
            self._polyhedra[key] = polyhedron
        return polyhedron

    def is_feasible(self, facts: Sequence[LinExpr],
                    key: FrozenSet[LinExpr]) -> bool:
        return not self.polyhedron_for(facts, key).is_empty()

    def minimize(self, objective: LinExpr, facts: Sequence[LinExpr],
                 key: FrozenSet[LinExpr]) -> Coeff:
        return self.polyhedron_for(facts, key).minimize(objective)

    def project(self, facts: Sequence[LinExpr],
                keep: FrozenSet[str]) -> Tuple[LinExpr, ...]:
        """Generator-side projection, in the canonical constraint form."""
        self.engine.stats.eliminations += 1
        return Polyhedron.from_facts(facts).project(keep).constraints()

    def assign(self, facts: Sequence[LinExpr], key: FrozenSet[LinExpr],
               var: str, rhs: LinExpr, low_shift: Coeff,
               high_shift: Coeff) -> Tuple[LinExpr, ...]:
        """Strongest postcondition from the generator side -- zero FM work.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` when the
        result is empty (unreachable), like the FM path.
        """
        polyhedron = self.polyhedron_for(facts, key)
        return assign(polyhedron, var, rhs, low_shift,
                      high_shift).constraints()

    def clear(self) -> None:
        self._polyhedra.clear()


@contextmanager
def use_polyhedra_engine() -> Iterator[EntailmentEngine]:
    """Run a block with a fresh polyhedra-backed process-wide engine.

    The rewrite generator's memos are cleared on entry and exit, so
    neither engine's answers reach the other's analyses through them.
    """
    saved = entailment.get_engine()
    engine = EntailmentEngine(PolyhedraBackend())
    clear_rewrite_caches()
    entailment._ENGINE = engine
    try:
        yield engine
    finally:
        entailment._ENGINE = saved
        clear_rewrite_caches()
