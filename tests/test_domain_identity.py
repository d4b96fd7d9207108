"""Registry-wide reproducibility: the polyhedra oracle reproduces every result.

The test suite's polyhedra backend (``tests/polyhedra_oracle.py``) answers
the same exact queries as the production Fourier-Motzkin backend and emits
the same canonical constraint form, so a full analysis must be
*byte-identical* with either engine answering: the same bound string, the
same serialised certificate (every annotated program point, every
weakening context, every rewrite combination).  Any divergence is a
soundness bug in one of the engines.

The AST node counter is process-global, so each analysis rebuilds its
program after resetting the counter; ids are then deterministic per build
and certificates compare byte-for-byte.
"""

from __future__ import annotations

import itertools
import json
from contextlib import nullcontext

import pytest

from repro.bench.registry import all_benchmarks
from repro.core.analyzer import analyze_program
from repro.lang import ast
from repro.logic.entailment import use_prefilter
from repro.service.jobs import bound_payload, certificate_payload


def _analyze(bench):
    """Fresh build (deterministic node ids) + analysis."""
    ast._NODE_COUNTER = itertools.count(1)
    return analyze_program(bench.build(), **bench.analyzer_options)


def _serialised(result):
    """The full externally visible image of a result, as canonical JSON."""
    return json.dumps({
        "success": result.success,
        "degree": result.degree,
        "bound": bound_payload(result.bound) if result.bound else None,
        "pretty": result.bound.pretty() if result.bound else None,
        "lp_variables": result.lp_variables,
        "lp_constraints": result.lp_constraints,
        "certificate": (certificate_payload(result.certificate)
                        if result.certificate else None),
    }, sort_keys=True)


@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=lambda bench: bench.name)
def test_registry_bounds_and_certificates_identical(bench, polyhedra_oracle):
    under_fm = _analyze(bench)
    with polyhedra_oracle():
        under_polyhedra = _analyze(bench)
    assert under_fm.success and under_polyhedra.success, (
        f"{bench.name}: fm={under_fm.message!r} "
        f"polyhedra={under_polyhedra.message!r}")
    left, right = _serialised(under_fm), _serialised(under_polyhedra)
    assert left == right, (
        f"{bench.name}: analysis diverges under the polyhedra oracle\n"
        f"fm:        {left[:400]}\n"
        f"polyhedra: {right[:400]}")


#: Every third benchmark: enough variety (linear, polynomial, recursive)
#: to exercise all tier paths without doubling the tier-1 wall; the whole
#: suite runs with the tier off in the ``$REPRO_PREFILTER=off`` CI leg.
_PREFILTER_SAMPLE = all_benchmarks()[::3]


@pytest.mark.parametrize("domain", ["fm", "polyhedra"])
@pytest.mark.parametrize("bench", _PREFILTER_SAMPLE,
                         ids=lambda bench: bench.name)
def test_prefilter_on_off_identical(bench, domain, polyhedra_oracle):
    """The interval tier is observational: results match bit-for-bit.

    The tier only answers when it provably matches the exact backend, so
    an analysis with the pre-filter enabled must serialise byte-identically
    to one without it -- bounds, LP shape and the full certificate.
    """
    with polyhedra_oracle() if domain == "polyhedra" else nullcontext():
        with use_prefilter(True):
            with_tier = _analyze(bench)
        with use_prefilter(False):
            without_tier = _analyze(bench)
    left, right = _serialised(with_tier), _serialised(without_tier)
    assert left == right, (
        f"{bench.name} [{domain}]: the pre-filter changed the analysis\n"
        f"on:  {left[:400]}\n"
        f"off: {right[:400]}")
