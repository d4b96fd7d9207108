"""Registry-wide check of the integer-first coefficient normal form.

For every Table 1 program (the degree-2 programs escalating from degree 1,
as the CLI runs them) every exact value the analysis hands on must be an
``int`` or a ``Fraction`` whose denominator is not 1: the coefficients and
constants of every LP row, every rewrite polynomial and every interval
atom's difference, and every coefficient of the bound and of the
certificate's weakening combinations.  The abstract domain and the
interval pre-filter follow the environment, so each test leg checks its
own configuration.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.bench.registry import linear_benchmarks, polynomial_benchmarks
from repro.core.analyzer import AnalyzerConfig
from repro.core.pipeline import AnalysisPipeline

ESCALATED = {"max_degree": 1, "auto_degree": True, "degree_limit": 2}

RUNS = ([(bench, dict(bench.analyzer_options))
         for bench in linear_benchmarks()]
        + [(bench, {**bench.analyzer_options, **ESCALATED})
           for bench in polynomial_benchmarks()])


def _is_normal(value) -> bool:
    return type(value) is int or (type(value) is Fraction
                                  and value.denominator != 1)


class _RecordingPipeline(AnalysisPipeline):
    """Keeps every derived degree system for inspection."""

    def __init__(self, program, config) -> None:
        super().__init__(program, config)
        self.derived = []

    def solve_attempt(self, derived):
        self.derived.append(derived)
        return super().solve_attempt(derived)


def _atom_values(monomial, where):
    for atom, _ in monomial.factors:
        for var, value in atom.diff.coeff_items:
            yield (where, atom, var), value
        yield (where, atom, "constant"), atom.diff.const_term


def _polynomial_values(polynomial, where):
    for monomial, coeff in polynomial.term_items():
        yield (where, monomial), coeff
        yield from _atom_values(monomial, where)


def _values(pipeline, result):
    for derived in pipeline.derived:
        system = derived.builder.system
        for row in system.constraints:
            for var, coeff in row.expr.term_items():
                yield ("row", row.origin, var), coeff
            yield ("row", row.origin, "constant"), row.expr.const
        for step in derived.builder.weakens:
            for rewrite in step.rewrites:
                yield from _polynomial_values(rewrite.polynomial,
                                              ("rewrite", step.origin))
        for monomial in derived.initial.monomials():
            yield from _atom_values(monomial, "template")
    yield from _polynomial_values(result.bound.polynomial, "bound")
    for weakening in result.certificate.weakenings:
        for value, _polynomial, _reason in weakening.combination:
            yield ("multiplier", weakening.origin), value


@pytest.mark.parametrize("bench, options", RUNS,
                         ids=[bench.name for bench, _ in RUNS])
def test_every_exact_value_is_in_normal_form(bench, options):
    pipeline = _RecordingPipeline(bench.build(),
                                  replace(AnalyzerConfig(), **options))
    result = pipeline.run()
    assert result.success, result.message
    assert pipeline.derived
    checked = 0
    for where, value in _values(pipeline, result):
        checked += 1
        assert _is_normal(value), f"{bench.name}: {where} is {value!r}"
    assert checked
