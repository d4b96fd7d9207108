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
* **Composite telescoping lifts.**  ``generate_rewrites`` leaves out the
  lift of a same-group pair that is the sum of its chain's pairs.  Its
  kept lifts must be the full lift list (rebuilt here as it was before the
  reduction, the cap of 2000 lifts included) minus some lifts, each of
  which equals, exactly, a sum of kept lifts.

Both run over every LP solve and rewrite generation of the registry
programs (cold at their registry degree, and the degree-2 ones escalating
from degree 1) and of the fuzz corpus.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
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
# Composite telescoping lifts
# ---------------------------------------------------------------------------

def unreduced_lifts(context, monomials, max_degree: int,
                    max_pair_rewrites: int = 3000) -> List[Polynomial]:
    """The lifted rewrites of ``generate_rewrites`` without the reduction:
    every degree-1 rewrite of a lifted atom times every factor, cut at the
    cap of 2000."""
    pool = sorted(set(monomials), key=lambda m: m.sort_key())
    _, degree_one = rewrite._atom_rewrites(
        context, tuple(rewrite._atoms_of(pool)), max_pair_rewrites)
    higher = {atom for monomial in pool if monomial.degree() >= 2
              for atom in monomial.atoms()}
    factors = [Monomial.of_atom(atom)
               for atom in sorted(higher, key=lambda a: a.sort_key())]
    lifts: List[Polynomial] = []
    for poly, _reason, base_atom, _chain in degree_one:
        if base_atom not in higher or poly.degree() + 1 > max_degree:
            continue
        for factor in factors:
            lifts.append(poly.times_monomial(factor))
            if len(lifts) >= 2000:
                return lifts
    return lifts


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


def _sum_witness(poly: Polynomial, kept_edges) -> Optional[List[Polynomial]]:
    """Kept lifts summing to ``poly``: a walk from X to Y over kept
    transfers with the same factor whose constants add up to ``c``."""
    parsed = _as_transfer(poly)
    if parsed is None:
        return None
    factor, (start, goal, target) = parsed
    edges = kept_edges.get(factor, {})
    frontier = [(start, 0, [])]
    seen = {(start, 0)}
    for _ in range(len(edges) + 1):
        following = []
        for node, total, path in frontier:
            for nxt, constant, lift in edges.get(node, ()):
                reached = total + constant
                if nxt == goal and reached == target:
                    return path + [lift]
                if (nxt, reached) not in seen:
                    seen.add((nxt, reached))
                    following.append((nxt, reached, path + [lift]))
        frontier = following
    return None


def assert_skipped_lifts_are_sums(calls: List[tuple]) -> int:
    """Check every distinct captured rewrite generation; returns how many
    lifts were left out in total."""
    skipped_total = 0
    seen = set()
    for args, result in calls:
        if id(result) in seen:
            continue
        seen.add(id(result))
        context, monomials, max_degree = args[:3]
        max_pairs = args[3] if len(args) > 3 else 3000  # the default
        if max_degree < 2:
            continue
        full = unreduced_lifts(context, monomials, max_degree, max_pairs)
        # The list is the discards (one per monomial), the atom-level
        # rewrites, then the kept lifts.
        pool = sorted(set(monomials), key=lambda m: m.sort_key())
        shared, _ = rewrite._atom_rewrites(
            context, tuple(rewrite._atoms_of(pool)), max_pairs)
        kept = [r.polynomial for r in result[len(pool) + len(shared):]]
        # Kept is the unreduced list with some lifts left out, in order.
        position, skipped = 0, []
        for lift in full:
            if position < len(kept) and kept[position] == lift:
                position += 1
            else:
                skipped.append(lift)
        assert position == len(kept), "a kept lift is not an unreduced one"
        edges: Dict[frozenset, Dict[object, list]] = defaultdict(
            lambda: defaultdict(list))
        for lift in kept:
            parsed = _as_transfer(lift)
            if parsed is not None:
                factor, (x, y, constant) = parsed
                edges[factor][x].append((y, constant, lift))
        for lift in skipped:
            witness = _sum_witness(lift, edges)
            assert witness is not None, f"{lift} is no sum of kept lifts"
            total = Polynomial.zero()
            for part in witness:
                total = total + part
            assert total == lift
        skipped_total += len(skipped)
    return skipped_total


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
    skipped = assert_skipped_lifts_are_sums(rewrites)
    if result.degree == 2:
        assert skipped > 0


@pytest.mark.parametrize("bench", polynomial_benchmarks(),
                         ids=lambda b: b.name)
def test_registry_escalating(bench, monkeypatch):
    result, solves, rewrites = _analyze_captured(
        monkeypatch, bench.build(), {**bench.analyzer_options, **ESCALATING})
    assert result.degree == 2
    assert assert_fixing_is_exact(solves) > 0
    assert assert_skipped_lifts_are_sums(rewrites) > 0
    # The stage record counts every fixed column, those of the last
    # solve's bounds included.
    *_, upper, _point = solves[-1]
    assert result.stats.stages[-1].fixed_columns \
        >= int(np.sum(upper == 0.0)) > 0


def test_fuzz_corpus(fuzz_corpus):
    assert assert_fixing_is_exact(fuzz_corpus.solves) > 0
    assert assert_skipped_lifts_are_sums(fuzz_corpus.rewrites) > 0
