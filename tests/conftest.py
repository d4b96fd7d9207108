"""Shared fixtures: small example programs and the polyhedra test oracle."""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple

import pytest

from repro.lang import builder as B
from repro.lang.distributions import Uniform
from polyhedra_oracle import use_polyhedra_engine


@pytest.fixture
def polyhedra_oracle():
    """The polyhedra test oracle: ``with polyhedra_oracle(): ...`` runs the
    block with a fresh polyhedra-backed engine as the process engine."""
    return use_polyhedra_engine


class FuzzCorpus(NamedTuple):
    """The ``0x5EED`` fuzz programs, their analyses and every LP solved.

    Every program is analysed under ``options``.  ``solves`` holds one ``(system, objective, stage rows, outcome)`` per
    :meth:`AssembledSystem.solve` call; the outcome is the returned vector,
    ``None`` (infeasible) or the raised :class:`SolverError`.
    """

    options: Dict[str, int]
    programs: List[object]
    results: List[object]
    solves: List[tuple]


@pytest.fixture(scope="session")
def fuzz_corpus() -> FuzzCorpus:
    """The ``0x5EED`` fuzz corpus, analysed once per session with every LP
    solve captured."""
    from repro.core.analyzer import analyze_program
    from repro.core.solver import AssembledSystem, SolverError
    from test_program_fuzz import PROGRAM_COUNT, random_program

    corpus = FuzzCorpus({"max_degree": 1, "degree_limit": 2}, [], [], [])
    original = AssembledSystem.solve

    def capture(self, objective=None, extra=()):
        extra = list(extra)
        try:
            values = original(self, objective, extra)
        except SolverError as exc:
            corpus.solves.append((self.system, objective, extra, exc))
            raise
        corpus.solves.append((self.system, objective, extra, values))
        return values

    rng = random.Random(0x5EED)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AssembledSystem, "solve", capture)
        for _ in range(PROGRAM_COUNT):
            program = random_program(rng)
            corpus.programs.append(program)
            corpus.results.append(analyze_program(program, **corpus.options))
    return corpus


@pytest.fixture
def simple_random_walk():
    """The Sec. 3.1 random walk: expected cost 2*x."""
    return B.program(B.proc("main", ["x"],
        B.while_("x > 0",
            B.prob("3/4", B.assign("x", "x - 1"), B.assign("x", "x + 1")),
            B.tick(1))))


@pytest.fixture
def rdwalk_program():
    """Fig. 4 rdwalk: expected cost 2*(n - x)."""
    return B.program(B.proc("main", ["x", "n"],
        B.while_("x < n",
            B.prob("3/4", B.assign("x", "x + 1"), B.assign("x", "x - 1")),
            B.tick(1))))


@pytest.fixture
def race_program():
    """Fig. 2 race: expected cost (2/3)*(t + 9 - h)."""
    return B.program(B.proc("main", ["h", "t"],
        B.while_("h <= t",
            B.assign("t", "t + 1"),
            B.prob("1/2", B.incr_sample("h", Uniform(0, 10)), B.skip()),
            B.tick(1))))


@pytest.fixture
def deterministic_countdown():
    """A deterministic loop: exactly x ticks."""
    return B.program(B.proc("main", ["x"],
        B.while_("x > 0",
            B.assign("x", "x - 1"),
            B.tick(1))))


@pytest.fixture
def geometric_program():
    """A geometric loop: expected cost 2 regardless of input."""
    return B.program(B.proc("main", [],
        B.assign("go", "1"),
        B.while_("go > 0",
            B.prob("1/2", B.assign("go", "0"), B.skip()),
            B.tick(1))))
