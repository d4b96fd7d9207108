"""Tests of the benchmark's Table 1 bound parser (``paperbound.py``).

Run with ``python3 -m pytest perfbench/paperbound_check.py`` from the repo
root; the ``src`` tree is put on the path here so no install is needed.
The file name does not match ``test_*.py`` on purpose: a plain ``pytest``
from the root does not collect it, and naming it runs it.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from paperbound import (BoundSyntaxError, PAPER_ALIASES, evaluate,  # noqa: E402
                        paper_value, parse_bound)
from repro.bench.registry import all_benchmarks, get_benchmark  # noqa: E402
from repro.core.analyzer import analyze_source  # noqa: E402


def test_every_paper_bound_parses_and_is_positive_on_its_plan():
    benchmarks = all_benchmarks()
    assert len(benchmarks) == 39
    for bench in benchmarks:
        assert parse_bound(bench.paper_bound), bench.name
        for state in bench.simulation.states():
            assert paper_value(bench, state) > 0, (bench.name, state)


def test_aliases_name_only_variables_missing_from_the_plan():
    by_name = {bench.name: bench for bench in all_benchmarks()}
    for name, aliases in PAPER_ALIASES.items():
        state = by_name[name].simulation.states()[0]
        assert not set(aliases) & set(state), name


def test_known_values():
    terms = parse_bound("4.5*|[0, x]|^2 + 7.5*|[0, x]|")
    assert evaluate(terms, {"x": 10}) == Fraction(525)
    assert evaluate(terms, {"x": -3}) == 0
    terms = parse_bound("|[0, k + i + 51]| + 2*|[100, i]|")
    assert evaluate(terms, {"k": 1, "i": 150}) == 202 + 100
    assert evaluate(parse_bound("68.4795*|[0, -n]|"), {"n": -2}) \
        == Fraction("136.959")
    assert evaluate(parse_bound("|[1, y]| + 2*|[0, x]| + 50"),
                    {"x": 1, "y": 3}) == 54


@pytest.mark.parametrize("text", ["", "2*", "|[0, x]", "|[0 x]|", "2 |[0, x]|",
                                  "|[0, x]|^", "|[0, x]| +"])
def test_malformed_bounds_are_rejected(text):
    with pytest.raises((BoundSyntaxError, ValueError)):
        parse_bound(text)


# Quick registry programs whose bounds cover every printed shape: bare
# constants, offsets, a negated interval, a product and a square.
PRETTY_SAMPLES = ("C4B_t19", "cooling", "prnes", "prseq", "pol05", "pol07")


@pytest.mark.parametrize("name", PRETTY_SAMPLES)
def test_pretty_output_parses_back(name):
    bench = get_benchmark(name)
    options = {**bench.analyzer_options, "max_degree": 1, "auto_degree": True,
               "degree_limit": 2}
    bound = analyze_source(bench.source_text(), **options).require_bound()
    terms = parse_bound(bound.pretty())
    for state in bench.simulation.states():
        exact = bound.evaluate(state)
        # pretty() prints at most six decimals, so allow that rounding.
        assert abs(evaluate(terms, state) - exact) \
            <= Fraction(1, 10**5) * max(1, abs(exact)), (name, state)
