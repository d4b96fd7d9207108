"""Seeded random-program fuzzing: front-end stability + analyzer soundness.

Three properties over a family of randomly generated probabilistic programs
(loops over decremented counters, probabilistic branches, sampled
increments, constant and nested ticks):

* **printer/parser round trip** -- printing a program and re-parsing it is
  stable: the second print is byte-identical to the first, and the
  re-parsed program analyzes to the same bound.  This is what lets the
  service layer ship programs as text with no semantic drift.
* **soundness against the sampler** -- for every generated program the
  analyzer finds a bound for, the bound evaluated at a concrete input
  dominates the empirical mean cost measured by the vectorised executor
  (within confidence bounds): ``bound >= mean - 4 * stderr``.  The sampler
  is an independent implementation of the semantics, so this catches
  unsound derivations rather than mere crashes.
* **checked certificates** -- every bound's certificate passes
  ``check_certificate``, degree-2 escalations included.

The generator is deliberately biased towards programs that terminate with
finite expected cost (decrement-dominant loops) so a healthy fraction
analyzes; programs the analyzer rejects still exercise the round trip.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from repro.core.analyzer import analyze_program
from repro.core.certificates import check_certificate
from repro.lang import builder as B
from repro.lang.distributions import Uniform
from repro.lang.parser import parse_program
from repro.lang.printer import program_to_source
from repro.semantics.sampler import estimate_expected_cost

#: Program count per property (each program is tiny; the suite stays fast).
PROGRAM_COUNT = 60

#: Input valuation used for the soundness comparison.
INPUT_STATE = {"x": 9, "y": 6, "n": 7}

#: Slack multiplier on the sampler's standard error.
CI_MULTIPLIER = 4.0


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

def _random_step(rng: random.Random, var: str):
    """One loop-body statement that decreases ``var`` on average."""
    choice = rng.random()
    if choice < 0.4:
        return B.assign(var, f"{var} - {rng.randint(1, 2)}")
    if choice < 0.7:
        # Biased random walk: p >= 2/3 of stepping down.
        p = rng.choice(("2/3", "3/4", "4/5"))
        return B.prob(p, B.assign(var, f"{var} - 1"),
                      B.assign(var, f"{var} + 1"))
    if choice < 0.85:
        # Sampled decrement with strictly positive mean.
        return B.decr_sample(var, Uniform(1, rng.randint(2, 3)))
    return B.prob("1/2", B.assign(var, f"{var} - 2"),
                  B.assign(var, f"{var} - 1"))


def _random_tick(rng: random.Random):
    if rng.random() < 0.3:
        return B.tick(rng.choice((Fraction(1, 2), Fraction(3, 2), 2, 3)))
    return B.tick(1)


def _random_loop(rng: random.Random, var: str, depth: int = 0):
    body = [_random_step(rng, var), _random_tick(rng)]
    if rng.random() < 0.3:
        body.insert(1, B.prob("1/2", B.tick(1), B.skip()))
    if depth == 0 and rng.random() < 0.25:
        inner_var = "y" if var != "y" else "x"
        body.append(B.assign(inner_var, rng.choice(("3", "x", "n"))))
        body.append(_random_loop(rng, inner_var, depth=1))
    return B.while_(f"{var} > 0", *body)


def random_program(rng: random.Random):
    """A random program over parameters ``x, y, n`` (main procedure only)."""
    statements = []
    loop_count = rng.randint(1, 2)
    variables = rng.sample(("x", "y", "n"), loop_count)
    for var in variables:
        if rng.random() < 0.3:
            statements.append(B.assume(f"{var} >= 0"))
        statements.append(_random_loop(rng, var))
        if rng.random() < 0.3:
            statements.append(_random_tick(rng))
    if rng.random() < 0.2:
        statements.append(B.prob("1/2", B.tick(1), B.skip()))
    return B.program(B.proc("main", ["x", "y", "n"], *statements))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def test_printer_parser_round_trip_is_stable():
    rng = random.Random(0xF22)
    for _ in range(PROGRAM_COUNT):
        program = random_program(rng)
        printed = program_to_source(program)
        reparsed = parse_program(printed)
        assert program_to_source(reparsed) == printed


def test_round_trip_preserves_analysis():
    """Parsing the printed text yields the same bound as the original AST."""
    rng = random.Random(0xB0B)
    analyzed = 0
    for _ in range(PROGRAM_COUNT // 3):
        program = random_program(rng)
        original = analyze_program(program, max_degree=1, degree_limit=2)
        reparsed = analyze_program(parse_program(program_to_source(program)),
                                   max_degree=1, degree_limit=2)
        assert original.success == reparsed.success
        if original.success:
            analyzed += 1
            assert original.bound.pretty() == reparsed.bound.pretty()
    assert analyzed >= 5, "generator produced too few analyzable programs"


def test_bounds_dominate_sampled_means(fuzz_corpus):
    analyzed = 0
    failures: List[str] = []
    for index, (program, result) in enumerate(zip(fuzz_corpus.programs,
                                                  fuzz_corpus.results)):
        if not result.success:
            continue
        analyzed += 1
        stats = estimate_expected_cost(program, dict(INPUT_STATE),
                                       runs=400, seed=index,
                                       max_steps=20_000, engine="auto")
        if stats.unfinished_runs:
            # Truncated runs bias the mean down; the domination check is
            # still valid, but flag pathological generators loudly.
            assert stats.unfinished_runs < stats.runs
        bound_value = result.bound.evaluate_float(INPUT_STATE)
        tolerance = CI_MULTIPLIER * stats.standard_error()
        if bound_value < stats.mean - tolerance:
            failures.append(
                f"program {index}: bound {result.bound.pretty()} = "
                f"{bound_value:.3f} at {INPUT_STATE} < sampled mean "
                f"{stats.mean:.3f} (tolerance {tolerance:.3f})\n"
                f"{program_to_source(program)}")
    assert not failures, "unsound bounds:\n" + "\n".join(failures)
    assert analyzed >= 15, \
        f"generator produced too few analyzable programs ({analyzed})"


def test_certificates_check(fuzz_corpus):
    """Every fuzzed bound's certificate passes the checker, including the
    ones that escalate to degree 2 (the extension walk's evidence)."""
    analyzed = escalated = 0
    failures: List[str] = []
    for index, (program, result) in enumerate(zip(fuzz_corpus.programs,
                                                  fuzz_corpus.results)):
        if not result.success:
            continue
        analyzed += 1
        escalated += result.degree == 2
        problems = check_certificate(result.certificate)
        if problems:
            failures.append(f"program {index}: {problems[0]}\n"
                            f"{program_to_source(program)}")
    assert not failures, "rejected certificates:\n" + "\n".join(failures)
    assert analyzed >= 15 and escalated >= 5, (analyzed, escalated)


def test_soundness_holds_under_polyhedra_domain(polyhedra_oracle):
    """The same soundness property with the polyhedra oracle answering."""
    rng = random.Random(0x5EED)  # same stream: same programs as above
    analyzed = 0
    with polyhedra_oracle():
        for index in range(PROGRAM_COUNT // 3):
            program = random_program(rng)
            result = analyze_program(program, max_degree=1, degree_limit=2)
            if not result.success:
                continue
            analyzed += 1
            stats = estimate_expected_cost(program, dict(INPUT_STATE),
                                           runs=300, seed=index,
                                           max_steps=20_000, engine="auto")
            bound_value = result.bound.evaluate_float(INPUT_STATE)
            tolerance = CI_MULTIPLIER * stats.standard_error()
            assert bound_value >= stats.mean - tolerance, (
                f"program {index} unsound under polyhedra: "
                f"{result.bound.pretty()} = {bound_value:.3f} < "
                f"{stats.mean:.3f}\n{program_to_source(program)}")
    assert analyzed >= 5

# ---------------------------------------------------------------------------
# Lint front-end: crash-freedom, differential soundness, verdict agreement
# ---------------------------------------------------------------------------

def _mutate_source(rng: random.Random, source: str) -> str:
    """One random text edit: lint must survive arbitrary broken input."""
    if not source:
        return source
    kind = rng.randrange(4)
    pos = rng.randrange(len(source))
    if kind == 0:                       # delete a slice
        end = min(len(source), pos + rng.randint(1, 12))
        return source[:pos] + source[end:]
    if kind == 1:                       # truncate
        return source[:pos]
    if kind == 2:                       # insert junk
        junk = "".join(rng.choice("(){};=<>*/+-x0 $#\n")
                       for _ in range(rng.randint(1, 6)))
        return source[:pos] + junk + source[pos:]
    return source[:pos] + rng.choice("}{;*") + source[pos:]  # swap one char


def test_lint_never_crashes_on_fuzzed_sources():
    """lint_source returns diagnostics (often just R001) for ANY input."""
    from repro.lang.analysis import CODES, lint_source

    rng = random.Random(0x11A7)
    linted = 0
    for _ in range(110):
        source = program_to_source(random_program(rng))
        for candidate in [source] + [_mutate_source(rng, source)
                                     for _ in range(4)]:
            diagnostics = lint_source(candidate)
            for diag in diagnostics:
                assert diag.code in CODES
            linted += 1
    assert linted >= 500


def test_lint_clean_programs_never_read_uninitialized():
    """No R101/R102 => the strict-init interpreter never raises.

    The definite-initialization pass under-approximates, so lint silence
    is a *guarantee*; this differential run is the oracle for it.
    """
    from repro.lang.analysis import lint_program
    from repro.lang.errors import UninitializedReadError
    from repro.semantics.interp import Interpreter

    rng = random.Random(0xD1FF)
    checked = 0
    for index in range(PROGRAM_COUNT):
        program = random_program(rng)
        diagnostics = lint_program(program)
        if any(diag.code in ("R101", "R102") for diag in diagnostics):
            continue
        interpreter = Interpreter(program, max_steps=5_000, strict_init=True)
        for seed in range(3):
            try:
                interpreter.run(dict(INPUT_STATE), seed=seed)
            except UninitializedReadError as exc:
                raise AssertionError(
                    f"program {index} lints clean but reads {exc.name!r} "
                    f"uninitialized:\n{program_to_source(program)}")
        checked += 1
    assert checked >= PROGRAM_COUNT // 2


def _vexec_accepts(program, scheduler=None) -> bool:
    from repro.semantics.vexec import VecInterpreter, VectorisationError

    try:
        VecInterpreter(program, scheduler=scheduler)
    except VectorisationError:
        return False
    return True


def _poisoned_programs():
    """Programs hitting each static vectorisation rejection (and near-misses)."""
    import repro.lang.ast as ast_mod

    limit = 1 << 61
    yield B.program(B.proc("main", ["n"], ast_mod.Assign(
        "x", ast_mod.Const(Fraction(limit + 1)))))          # const too large
    yield B.program(B.proc("main", ["n"], ast_mod.Assign(
        "x", ast_mod.Const(Fraction(limit)))))              # boundary: fits
    yield B.program(B.proc("main", ["n"], ast_mod.Assign(
        "x", ast_mod.Const(Fraction(1, 2)))))               # non-integral
    yield B.program(B.proc("main", ["n"],
                           B.tick(Fraction(10 ** 13))))     # accumulator
    yield B.program(B.proc("main", ["n"], B.tick(Fraction(1, 2))))  # scaled ok
    yield B.program(B.proc("main", ["n"], ast_mod.NonDetChoice(
        B.tick(1), B.skip())))                              # needs choice mode


def test_vectorizability_verdict_matches_vexec():
    """Static verdict == dynamic compile outcome: registry, fuzz, poisons."""
    from repro.bench.registry import benchmark_names, get_benchmark
    from repro.lang.analysis import VEC_VALUE_LIMIT, vectorizability_verdict
    from repro.semantics import vexec
    from repro.semantics.interp import Scheduler
    from repro.semantics.sampler import resolve_engine_with_reason

    assert VEC_VALUE_LIMIT == vexec._VALUE_LIMIT  # the drift pin

    programs = []
    for name in benchmark_names():
        benchmark = get_benchmark(name)
        programs.append((name, parse_program(benchmark.source_text())))
        programs.append((f"{name} (simulation)",
                         benchmark.build_for_simulation()))
    rng = random.Random(0xEC)
    for index in range(20):
        programs.append((f"fuzz {index}", random_program(rng)))
    for index, poisoned in enumerate(_poisoned_programs()):
        programs.append((f"poison {index}", poisoned))

    for label, program in programs:
        verdict = vectorizability_verdict(program)
        accepted = _vexec_accepts(program)
        assert verdict.ok == accepted, (
            f"{label}: static verdict {verdict.ok} "
            f"({verdict.reason!r}) != vexec acceptance {accepted}")
        engine, _, reason = resolve_engine_with_reason("auto", program)
        assert engine == ("vec" if accepted else "scalar")
        assert bool(reason) == (not accepted)
        if not verdict.ok:
            assert verdict.reason  # every rejection names its construct

    # An unresolvable scheduler blocks '*' lane-wise on both sides.
    import repro.lang.ast as ast_mod
    star = B.program(B.proc("main", ["n"],
                            ast_mod.NonDetChoice(B.tick(1), B.skip())))
    opaque = Scheduler()
    mode = vexec.VecInterpreter._resolve_choice_mode(opaque)
    assert mode is None
    assert not vectorizability_verdict(star, choice_mode=mode).ok
    assert not _vexec_accepts(star, scheduler=opaque)
