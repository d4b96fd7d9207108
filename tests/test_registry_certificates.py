"""Registry-wide certificate checks and LP-shape pins.

Every Table 1 program's certificate must pass :func:`check_certificate`.
The polynomial programs run both escalated (degree 1, then the extension
walk to degree 2, as the CLI does by default) and cold at degree 2; each
must give the pinned bound and LP size.  All 30 linear certificates pass the
checker's 1e-6 tolerance.  This is the float checker only: an exact
``Fraction`` recheck of every weakening still has to run and is not
claimed here.
"""

import functools
import re

import pytest

from repro import analyze_program, check_certificate
from repro.bench.registry import (
    get_benchmark,
    linear_benchmarks,
    polynomial_benchmarks,
)

#: (name, bound, lp_variables, lp_constraints) at degree 2.
POLYNOMIAL_SHAPES = [
    ("complex", "6*|[0, m]|*|[0, n]| + |[1, y]| + 3*|[0, n]| + 1", 6489, 1226),
    ("multirace", "2*|[0, m]|*|[0, n]| + 4*|[0, n]|", 4320, 629),
    ("pol04", "2.25*|[1, x]|*|[0, x]| + 3*|[0, x]|", 3618, 364),
    ("pol05", "|[1, x]|*|[0, x]| + |[0, x]|", 3618, 364),
    ("pol06", "|[0, s]|^2 + |[min, s]|", 7153, 1227),
    ("pol07", "0.75*|[1, n]|^2 + 1.25*|[1, n]|", 3716, 374),
    ("rdbub", "3*|[1, n]|*|[0, n]| + 3*|[0, n]|", 3348, 364),
    ("recursive", "0.25*|[l, h]|^2 + 1.25*|[l, h]|", 6886, 1224),
    ("trader", "5*|[0, s]|^2 + 5*|[smin, s]|", 10839, 1853),
]

SCHEDULES = {
    "escalated": {"max_degree": 1, "auto_degree": True, "degree_limit": 2},
    "cold": {"max_degree": 2, "auto_degree": False},
}

#: Linear programs whose certificate fails by a known float-snap residual.
SNAP_FAILURES: set = set()


@functools.lru_cache(maxsize=len(POLYNOMIAL_SHAPES) * len(SCHEDULES))
def _analyze(name: str, schedule: str):
    """One analysis per (program, schedule), shared by the two tests."""
    bench = get_benchmark(name)
    return analyze_program(bench.build(), **{**bench.analyzer_options,
                                             **SCHEDULES[schedule]})


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name, bound, variables, constraints",
                         POLYNOMIAL_SHAPES, ids=[row[0] for row in POLYNOMIAL_SHAPES])
class TestPolynomialRegistry:
    def test_certificate_checks(self, name, bound, variables, constraints,
                                schedule):
        result = _analyze(name, schedule)
        assert result.success, result.message
        assert check_certificate(result.certificate) == []

    def test_bound_and_lp_shape(self, name, bound, variables, constraints,
                                schedule):
        result = _analyze(name, schedule)
        assert result.degree == 2
        assert result.bound.pretty() == bound
        assert (result.lp_variables, result.lp_constraints) \
            == (variables, constraints)


@pytest.mark.parametrize("bench", linear_benchmarks(), ids=lambda b: b.name)
def test_linear_certificates(bench):
    result = analyze_program(bench.build(), **bench.analyzer_options)
    assert result.success, result.message
    problems = check_certificate(result.certificate)
    if bench.name not in SNAP_FAILURES:
        assert problems == []
        return
    assert problems, f"{bench.name} now passes: drop it from SNAP_FAILURES"
    for problem in problems:
        match = re.search(r"combination mismatch at .* \(residual (\S+)\)$",
                          problem)
        assert match, problem
        assert abs(float(match.group(1))) < 2e-6, problem


def test_the_registry_is_covered():
    assert len(linear_benchmarks()) == 30
    assert sorted(bench.name for bench in polynomial_benchmarks()) \
        == sorted(row[0] for row in POLYNOMIAL_SHAPES)
