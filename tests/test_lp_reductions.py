"""The two exact LP reductions against the unreduced LP, their oracle.

* **Reduced-cost fixing.**  After a solved objective stage, the LP session
  bounds at 0 every column whose reduced cost proves it 0 in every optimum
  of that stage.  Each later stage solved with such bounds must reach the
  objective value of the same stage without them (relative 1e-9), and its
  vector must be feasible for the model without them.  "The same stage"
  fixes each earlier stage at the value it achieved: the stage rows allow
  ``lp_tolerance`` (1e-7) more, and without the column bounds a later
  stage can spend that slack to go up to about 1.2e-7 lower, which the
  column bounds, by design, no longer allow.
* **Cone generators at degree 2.**  ``generate_rewrites`` leaves out the
  lifted pairs and the discards that are sums of kept rewrites.  Its kept
  list must be the full list (rebuilt here as it was before the
  reductions: every discard, the atom-level rewrites and every lift up to
  the cap of 2000 lifts) minus some lifts and discards, each of which
  equals, exactly, a non-negative combination of kept rewrites: a walk of
  kept lifted pairs whose constants add up, or ``A * R = (A - c) * R +
  c * R`` over a kept extraction.  Degree 1 leaves nothing out.  A second
  check needs no witness: on the smallest degree-2 weakening of each
  degree-2 program, a HiGHS feasibility LP per left-out rewrite puts it
  in the cone of the kept ones.

Both run over every LP solve and rewrite generation of the registry
programs (cold at their registry degree, and the degree-2 ones escalating
from degree 1) and of the fuzz corpus.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from repro.bench.registry import all_benchmarks, polynomial_benchmarks
from repro.core import derivation, rewrite
from repro.core.analyzer import AnalyzerConfig, analyze_program
from repro.core.solver import AssembledSystem
from repro.utils.polynomials import Monomial, Polynomial

from lp_capture import capturing_rewrites, capturing_solve

ESCALATING = {"max_degree": 1, "auto_degree": True, "degree_limit": 2}

#: The slack each stage row adds to the value its stage achieved.
LP_TOLERANCE = AnalyzerConfig().lp_tolerance

#: Row and column feasibility of a vector HiGHS returned, absolute.
FEASIBILITY_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Reduced-cost fixing
# ---------------------------------------------------------------------------

def assert_fixing_is_exact(calls: List[tuple]) -> int:
    """Check every captured solve that ran with fixed columns; returns how
    many there were."""
    checked = 0
    assembled: Dict[int, AssembledSystem] = {}
    for number, (system, objective, extra, upper, ours) in enumerate(calls):
        if not np.any(upper == 0.0):
            continue
        where = f"LP {number} ({int(np.sum(upper == 0.0))} fixed columns)"
        assert ours is not None and not isinstance(ours, Exception), where
        full = assembled.setdefault(id(system), AssembledSystem(system))
        exact = full.solve(objective, [(expr, bound - LP_TOLERANCE)
                                       for expr, bound in extra])
        assert exact is not None, f"{where}: unrestricted is infeasible"
        cost = full.objective_vector(objective)
        value, optimum = cost @ ours.values, cost @ exact.values
        assert abs(value - optimum) <= 1e-9 * max(1.0, abs(optimum)), \
            f"{where}: {value!r} vs unrestricted {optimum!r}"
        lp = full.model(objective, extra)
        matrix = csc_array((lp.a_matrix_.value_, lp.a_matrix_.index_,
                            lp.a_matrix_.start_),
                           shape=(lp.num_row_, lp.num_col_))
        rows = matrix @ ours.values
        assert np.all(rows >= np.asarray(lp.row_lower_)
                      - FEASIBILITY_TOLERANCE), where
        assert np.all(rows <= np.asarray(lp.row_upper_)
                      + FEASIBILITY_TOLERANCE), where
        assert np.all(ours.values >= np.asarray(lp.col_lower_)
                      - FEASIBILITY_TOLERANCE), where
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Cone generators at degree 2
# ---------------------------------------------------------------------------

#: A combination: ``(coefficient, polynomial)`` terms.
Combination = List[Tuple[object, Polynomial]]


def unreduced_rewrites(context, monomials, max_degree: int,
                       max_pair_rewrites: int = 3000) -> List[Polynomial]:
    """The rewrites of ``generate_rewrites`` without any left out: every
    discard, the atom-level rewrites, then every degree-1 rewrite of a
    lifted atom times every factor, cut at the cap of 2000 lifts."""
    pool = sorted(set(monomials), key=lambda m: m.sort_key())
    shared, degree_one = rewrite._atom_rewrites(
        context, tuple(rewrite._atoms_of(pool)), max_pair_rewrites)
    rewrites = [Polynomial.of_monomial(monomial) for monomial in pool]
    rewrites.extend(r.polynomial for r in shared)
    if max_degree < 2:
        return rewrites
    higher = {atom for monomial in pool if monomial.degree() >= 2
              for atom in monomial.atoms()}
    factors = [Monomial.of_atom(atom)
               for atom in sorted(higher, key=lambda a: a.sort_key())]
    lifts: List[Polynomial] = []
    for poly, _reason, base_atom, _partner in degree_one:
        if base_atom not in higher:
            continue
        for factor in factors:
            if len(lifts) == 2000:
                return rewrites + lifts
            lifts.append(poly.times_monomial(factor))
    return rewrites + lifts


Edge = Tuple[object, object, object]


def _as_transfer(poly: Polynomial) -> Optional[Tuple[frozenset, Edge]]:
    """``(factor, (X, Y, c))`` when ``poly`` is ``(X - Y - c) * factor``."""
    plus = [m for m, c in poly.term_items() if c == 1 and m.degree() >= 2]
    minus = [m for m, c in poly.term_items() if c == -1 and m.degree() >= 2]
    if len(plus) != 1 or len(minus) != 1:
        return None
    left, right = Counter(dict(plus[0].factors)), Counter(dict(minus[0].factors))
    factor = left & right
    x, y = left - factor, right - factor
    if sum(x.values()) != 1 or sum(y.values()) != 1:
        return None
    factor_monomial = Monomial(dict(factor))
    rest = {m: c for m, c in poly.term_items()
            if m not in (plus[0], minus[0])}
    if set(rest) - {factor_monomial}:
        return None
    return (frozenset(factor.items()),
            (next(iter(x)), next(iter(y)), -rest.get(factor_monomial, 0)))


class KeptCone:
    """Witness search over one generation's kept rewrites."""

    def __init__(self, kept: List[Polynomial]) -> None:
        self.kept = set(kept)
        #: factor -> X -> [(Y, c, lift)] over the kept lifted pairs.
        self.edges: Dict[frozenset, Dict[object, list]] = defaultdict(
            lambda: defaultdict(list))
        for poly in kept:
            parsed = _as_transfer(poly)
            if parsed is not None:
                factor, (x, y, constant) = parsed
                self.edges[factor][x].append((y, constant, poly))

    def combination(self, poly: Polynomial) -> Optional[Combination]:
        """Kept rewrites with non-negative coefficients summing to
        ``poly``, or None when no witness of a known family is found."""
        if poly in self.kept:
            return [(1, poly)]
        terms = list(poly.term_items())
        if len(terms) == 1 and terms[0][1] == 1:
            return self._discard(terms[0][0])
        return self._path(poly)

    def _discard(self, monomial: Monomial) -> Optional[Combination]:
        """``A * R = (A - c) * R + c * R``: a kept extraction of an atom
        ``A`` of the monomial, times the rest ``R``, and ``R >= 0``."""
        for atom in monomial.atoms():
            rest = Monomial(dict(Counter(dict(monomial.factors))
                                 - Counter({atom: 1})))
            for poly in self.kept:
                if poly.coefficient(monomial) != 1 or len(poly.terms) != 2:
                    continue
                constant = -poly.coefficient(rest)
                if constant <= 0:
                    continue
                below = self.combination(Polynomial.of_monomial(rest))
                if below is not None:
                    return [(1, poly)] + [(constant * coeff, part)
                                          for coeff, part in below]
        return None

    def _path(self, poly: Polynomial) -> Optional[Combination]:
        """A walk from X to Y over kept transfers with the same factor
        whose constants add up to ``c``."""
        parsed = _as_transfer(poly)
        if parsed is None:
            return None
        factor, (start, goal, target) = parsed
        edges = self.edges.get(factor, {})
        frontier = [(start, 0, [])]
        seen = {(start, 0)}
        for _ in range(len(edges) + 1):
            following = []
            for node, total, path in frontier:
                for nxt, constant, lift in edges.get(node, ()):
                    reached = total + constant
                    if nxt == goal and reached == target:
                        return [(1, part) for part in path + [lift]]
                    if (nxt, reached) not in seen:
                        seen.add((nxt, reached))
                        following.append((nxt, reached, path + [lift]))
            frontier = following
        return None


def split_generation(args, result) -> Tuple[List[Polynomial],
                                            List[Polynomial]]:
    """``(kept, left out)`` of one captured generation: the kept list must
    be the unreduced list with some rewrites left out, in order."""
    context, monomials, max_degree = args[:3]
    max_pairs = args[3] if len(args) > 3 else 3000  # the default
    full = unreduced_rewrites(context, monomials, max_degree, max_pairs)
    kept = [r.polynomial for r in result]
    position, skipped = 0, []
    for poly in full:
        if position < len(kept) and kept[position] == poly:
            position += 1
        else:
            skipped.append(poly)
    assert position == len(kept), "a kept rewrite is not an unreduced one"
    return kept, skipped


def assert_skipped_rewrites_are_sums(calls: List[tuple]) -> Counter:
    """Check every distinct captured rewrite generation; returns how many
    lifts and discards were left out in total."""
    skipped_total: Counter = Counter()
    seen = set()
    for args, result in calls:
        if id(result) in seen:
            continue
        seen.add(id(result))
        kept, skipped = split_generation(args, result)
        if args[2] < 2:
            assert not skipped, "degree 1 leaves a rewrite out"
            continue
        cone = KeptCone(kept)
        for poly in skipped:
            witness = cone.combination(poly)
            assert witness is not None, f"{poly} is no sum of kept rewrites"
            total = Polynomial.zero()
            for coeff, part in witness:
                assert coeff >= 0 and part in cone.kept
                total = total + part * coeff
            assert total == poly
            skipped_total["discard" if len(poly.terms) == 1
                          else "lift"] += 1
    return skipped_total


class ConeLP:
    """Cone membership over ``kept`` by a HiGHS feasibility LP: is there a
    ``u >= 0`` with ``sum_k u_k kept_k == target``?  One model per kept
    set, one equality row per monomial; each target only moves the rows'
    bounds, so HiGHS starts from the previous basis."""

    def __init__(self, kept: List[Polynomial],
                 targets: List[Polynomial]) -> None:
        self.rows = {monomial: row for row, monomial in enumerate(sorted(
            {m for poly in kept + targets for m in poly.terms},
            key=Monomial.sort_key))}
        entries = [(self.rows[monomial], column, float(coeff))
                   for column, poly in enumerate(kept)
                   for monomial, coeff in poly.term_items()]
        rows, columns, values = zip(*entries)
        self.matrix = csc_array((values, (rows, columns)),
                                shape=(len(self.rows), len(kept)))
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = len(kept)
        lp.num_row_ = lp.a_matrix_.num_row_ = len(self.rows)
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = self.matrix.indptr
        lp.a_matrix_.index_ = self.matrix.indices
        lp.a_matrix_.value_ = self.matrix.data
        lp.col_cost_ = np.zeros(len(kept))
        lp.col_lower_ = np.zeros(len(kept))
        lp.col_upper_ = np.full(len(kept), np.inf)
        lp.row_lower_ = lp.row_upper_ = np.zeros(len(self.rows))
        self.solver = highs._Highs()
        self.solver.setOptionValue("output_flag", False)
        assert self.solver.passModel(lp) != highs.HighsStatus.kError
        self.target = np.zeros(len(self.rows))

    def contains(self, target: Polynomial) -> bool:
        for row in np.flatnonzero(self.target):
            self.solver.changeRowBounds(int(row), 0.0, 0.0)
        self.target[:] = 0.0
        for monomial, coeff in target.term_items():
            row = self.rows[monomial]
            self.target[row] = float(coeff)
            self.solver.changeRowBounds(row, float(coeff), float(coeff))
        self.solver.run()
        if self.solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
            return False
        # Trust the point, not the status.
        point = np.array(self.solver.getSolution().col_value)
        assert np.all(point >= -FEASIBILITY_TOLERANCE)
        assert np.max(np.abs(self.matrix @ point - self.target)) \
            <= FEASIBILITY_TOLERANCE
        return True


def assert_smallest_skips_in_cone(calls: List[tuple]) -> int:
    """On the smallest degree-2 generation that leaves rewrites out, put
    each left-out one in the cone of the kept ones by LP, with no witness;
    returns how many were checked."""
    generations = [split_generation(args, result)
                   for args, result in calls if args[2] >= 2]
    kept, skipped = min((pair for pair in generations if pair[1]),
                        key=lambda pair: len(pair[0]) + len(pair[1]))
    negative_unit = Polynomial.constant(-1)
    cone = ConeLP(kept, skipped + [negative_unit])
    # The LP can say no: -1 is in no cone of non-negative functions.
    assert not cone.contains(negative_unit)
    for poly in skipped:
        assert cone.contains(poly), f"{poly} is outside the kept cone"
    return len(skipped)


# ---------------------------------------------------------------------------
# The corpora
# ---------------------------------------------------------------------------

def _analyze_captured(monkeypatch, program, options):
    solves: List[tuple] = []
    rewrites: List[tuple] = []
    with monkeypatch.context() as patch:
        patch.setattr(AssembledSystem, "solve", capturing_solve(solves))
        patch.setattr(derivation, "generate_rewrites",
                      capturing_rewrites(rewrites))
        result = analyze_program(program, **options)
    assert result.success, result.message
    return result, solves, rewrites


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_registry_cold(bench, monkeypatch):
    result, solves, rewrites = _analyze_captured(
        monkeypatch, bench.build(), bench.analyzer_options)
    assert_fixing_is_exact(solves)
    skipped = assert_skipped_rewrites_are_sums(rewrites)
    if result.degree == 2:
        assert skipped["lift"] > 0 and skipped["discard"] > 0


@pytest.mark.parametrize("bench", polynomial_benchmarks(),
                         ids=lambda b: b.name)
def test_registry_escalating(bench, monkeypatch):
    result, solves, rewrites = _analyze_captured(
        monkeypatch, bench.build(), {**bench.analyzer_options, **ESCALATING})
    assert result.degree == 2
    assert assert_fixing_is_exact(solves) > 0
    skipped = assert_skipped_rewrites_are_sums(rewrites)
    assert skipped["lift"] > 0 and skipped["discard"] > 0
    assert assert_smallest_skips_in_cone(rewrites) > 0
    # The stage record counts every fixed column, those of the last
    # solve's bounds included.
    *_, upper, _point = solves[-1]
    assert result.stats.stages[-1].fixed_columns \
        >= int(np.sum(upper == 0.0)) > 0


def test_fuzz_corpus(fuzz_corpus):
    assert assert_fixing_is_exact(fuzz_corpus.solves) > 0
    skipped = assert_skipped_rewrites_are_sums(fuzz_corpus.rewrites)
    assert skipped["lift"] > 0 and skipped["discard"] > 0
