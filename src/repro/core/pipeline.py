"""The staged analysis pipeline: prepare once, then derive and solve per degree.

One analysis runs these stages:

1. **prepare** -- program transforms + abstract interpretation.  Degree
   independent; computed exactly once per analysis (:class:`PreparedProgram`).
2. **derive** -- the derivation walk of
   :class:`~repro.core.derivation.DerivationBuilder` at one degree, into a
   fresh :class:`~repro.core.constraints.ConstraintSystem` and
   :class:`~repro.core.specs.SpecContext` (:class:`DegreeSystem`).
3. **solve** -- the iterative LP over a fresh
   :class:`~repro.core.solver.AssembledSystem` and
   :class:`~repro.core.lpsession.LPSession`.

Degree escalation is one rule: when the degree-``d`` LP is infeasible,
stages 2 and 3 run again from scratch at ``d+1``.  Only the prepare products
are kept.  Any other solver outcome (unbounded, a limit, a model error) ends
the run as an ``analysis-error``, which is neither escalated nor cached.  A
cold ``max_degree=2`` run derives degree 2 directly, and an escalating run's
degree-2 attempt builds exactly the same system, so both give the same bound
and certificate.  The rewrite functions of
:mod:`repro.core.rewrite` are memoised across attempts, which is what keeps
a rebuild cheap.  Per-stage wall times and LP sizes are recorded in
:class:`PipelineStats` and threaded through
:class:`~repro.core.analyzer.AnalysisResult` into the service layer and
``BENCH_entailment.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.core.annotations import PotentialAnnotation
from repro.core.basegen import template_monomials_for_procedure
from repro.core.bounds import ExpectedBound
from repro.core.certificates import build_certificate
from repro.core.constraints import AffExpr, ConstraintSystem
from repro.core.derivation import DerivationBuilder
from repro.core.lpsession import LPSession
from repro.core.solver import AssembledSystem, IterativeMinimizer, SolverError
from repro.core.specs import ProcedureSpec, SpecContext
from repro.lang import ast
from repro.lang.errors import AnalysisError
from repro.lang.transform import counter_as_resource, inline_calls, modified_variables
from repro.logic.absint import AbstractInterpreter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import AnalyzerConfig, AnalysisResult


# ---------------------------------------------------------------------------
# Stage statistics
# ---------------------------------------------------------------------------

@dataclass
class DegreeStage:
    """Build/solve statistics of one degree attempt."""

    degree: int
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    variables_total: int = 0
    constraints_total: int = 0
    #: None until the attempt's LP has been solved.
    feasible: Optional[bool] = None
    #: LP solves of this attempt (``repro.core.lpsession``).
    cold_solves: int = 0
    #: Objective stages of this attempt answered without an LP solve
    #: (already optimal at the previous stage's point).
    skipped_solves: int = 0
    #: Columns reduced-cost fixing bounded at 0 for this attempt's later
    #: objective stages (``LPSession.fixed``).
    fixed_columns: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "degree": self.degree,
            "build_seconds": round(self.build_seconds, 4),
            "solve_seconds": round(self.solve_seconds, 4),
            "variables_total": self.variables_total,
            "constraints_total": self.constraints_total,
            "feasible": self.feasible,
            "cold_solves": self.cold_solves,
            "skipped_solves": self.skipped_solves,
            "fixed_columns": self.fixed_columns,
        }


@dataclass
class PipelineStats:
    """Per-stage walls and system sizes of one full analysis."""

    prepare_seconds: float = 0.0
    #: Degrees whose LP was actually solved (the retry schedule).
    attempted_degrees: List[int] = field(default_factory=list)
    #: One entry per derived degree, in attempt order.
    stages: List[DegreeStage] = field(default_factory=list)

    def build_seconds_total(self) -> float:
        return sum(stage.build_seconds for stage in self.stages)

    def solve_seconds_total(self) -> float:
        return sum(stage.solve_seconds for stage in self.stages)

    @property
    def cold_solves(self) -> int:
        return sum(stage.cold_solves for stage in self.stages)

    @property
    def skipped_solves(self) -> int:
        return sum(stage.skipped_solves for stage in self.stages)

    def to_dict(self) -> Dict[str, object]:
        return {
            "prepare_seconds": round(self.prepare_seconds, 4),
            "build_seconds": round(self.build_seconds_total(), 4),
            "solve_seconds": round(self.solve_seconds_total(), 4),
            "attempted_degrees": list(self.attempted_degrees),
            # Always 0: kept so readers that sum warm + cold solves work.
            "warm_solves": 0,
            "cold_solves": self.cold_solves,
            "skipped_solves": self.skipped_solves,
            "stages": [stage.to_dict() for stage in self.stages],
        }


# ---------------------------------------------------------------------------
# Stage products
# ---------------------------------------------------------------------------

@dataclass
class PreparedProgram:
    """The degree-independent products of :meth:`AnalysisPipeline.prepare`."""

    program: ast.Program
    interpreter: AbstractInterpreter
    recursive: List[str]


@dataclass
class DegreeSystem:
    """One degree's derivation (its builder owns the constraint system)."""

    builder: DerivationBuilder
    #: The entry annotation of the main procedure.
    initial: PotentialAnnotation
    stage: DegreeStage


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class AnalysisPipeline:
    """Drives prepare -> (derive -> solve)* over the degree schedule."""

    def __init__(self, program: ast.Program, config: "AnalyzerConfig") -> None:
        self.program = program
        self.config = config
        self.stats = PipelineStats()

    # -- stage 1: prepare (degree independent) ------------------------------

    def prepare(self) -> PreparedProgram:
        """Front-end transforms + abstract interpretation, exactly once."""
        started = time.perf_counter()
        program = self.program
        if self.config.resource_counter:
            program = counter_as_resource(program, self.config.resource_counter)
        if self.config.inline:
            program = inline_calls(program)
        interpreter = AbstractInterpreter(program)
        interpreter.ensure_procedure(program.main)
        recursive = sorted(program.recursive_procedures())
        for name in recursive:
            interpreter.ensure_procedure(name)
        self.stats.prepare_seconds = time.perf_counter() - started
        return PreparedProgram(program, interpreter, recursive)

    # -- stage 2: derive ------------------------------------------------------

    def ensure_degree(self, prepared: PreparedProgram,
                      degree: int) -> DegreeSystem:
        """Derive the degree-``degree`` system from scratch."""
        started = time.perf_counter()
        program = prepared.program
        basegen_config = self.config.basegen(degree)
        system = ConstraintSystem()
        specs = SpecContext()
        builder = DerivationBuilder(program, prepared.interpreter, system,
                                    basegen_config, specs)
        # Specifications for (mutually) recursive procedures.
        for name in prepared.recursive:
            proc = program.procedures[name]
            entry_context = prepared.interpreter.context_before(proc.body)
            monomials = template_monomials_for_procedure(
                proc.body, entry_context, basegen_config)
            pre = PotentialAnnotation.template(system, monomials,
                                               f"spec_{name}", nonneg=True)
            specs.register(ProcedureSpec(
                name=name, pre=pre, post=PotentialAnnotation.zero(),
                modified_variables=modified_variables(program, name)))
        for name in prepared.recursive:
            builder.constrain_specification(name)
        initial = builder.analyze_command(program.main_procedure.body,
                                          PotentialAnnotation.zero())
        stage = DegreeStage(degree=degree,
                            build_seconds=time.perf_counter() - started,
                            variables_total=system.num_variables,
                            constraints_total=system.num_constraints)
        self.stats.stages.append(stage)
        return DegreeSystem(builder, initial, stage)

    # -- stage 3: solve ------------------------------------------------------

    def solve_attempt(self, derived: DegreeSystem) -> "AnalysisResult":
        from repro.core.analyzer import AnalysisResult

        started = time.perf_counter()
        system = derived.builder.system
        stage = derived.stage
        degree = stage.degree
        self.stats.attempted_degrees.append(degree)
        objectives = self._objectives(derived.initial)
        session = LPSession(AssembledSystem(system))
        solver = IterativeMinimizer(system, tolerance=self.config.lp_tolerance)
        failure: Optional[SolverError] = None
        try:
            solution = solver.solve(objectives, session=session)
        except SolverError as exc:
            solution, failure = None, exc
        elapsed = time.perf_counter() - started
        stage.solve_seconds = elapsed
        stage.cold_solves = session.solves
        stage.skipped_solves = session.skipped
        stage.fixed_columns = session.fixed
        if failure is not None:
            # Not a verdict on the program: neither cached nor escalated.
            return AnalysisResult(
                False, None, degree, elapsed,
                system.num_variables, system.num_constraints, None,
                f"{failure} at degree {degree}",
                failure_kind="analysis-error")
        stage.feasible = solution is not None
        if solution is None:
            return AnalysisResult(
                False, None, degree, elapsed,
                system.num_variables, system.num_constraints, None,
                f"the LP is infeasible for degree {degree} "
                "(no bound exists for the chosen base functions)",
                failure_kind="no-bound")
        # The bound is the instantiated entry annotation, every coefficient
        # kept: dropping a small positive one would under-report it.
        bound_poly = derived.initial.instantiate(solution.assignment)
        builder = derived.builder
        certificate = build_certificate(bound_poly, builder.steps,
                                        builder.weakens, solution.assignment)
        return AnalysisResult(True, ExpectedBound(bound_poly), degree, elapsed,
                              system.num_variables, system.num_constraints,
                              certificate, "")

    # -- the driver ----------------------------------------------------------

    def run(self) -> "AnalysisResult":
        """Run the analysis over the configured degree-retry schedule.

        The interval pre-filter tier follows the ambient
        :func:`repro.logic.entailment.active_prefilter` setting: on unless
        the ``$REPRO_PREFILTER=off`` oracle switch or a test's
        ``use_prefilter(False)`` turns it off.
        """
        from dataclasses import replace

        from repro.core.analyzer import AnalysisResult

        started = time.perf_counter()
        config = self.config

        def finalise(result: "AnalysisResult") -> "AnalysisResult":
            return replace(result,
                           total_seconds=time.perf_counter() - started,
                           stats=self.stats)

        try:
            prepared = self.prepare()
        except AnalysisError as exc:
            return finalise(AnalysisResult(
                False, None, config.max_degree, 0.0, 0, 0, None, str(exc),
                failure_kind="analysis-error"))
        except MemoryError as exc:
            # Out of memory: a failure of the environment, not a property
            # of the program, reported as the structured (never cached)
            # ``resource-limit`` kind.
            return finalise(AnalysisResult(
                False, None, config.max_degree, 0.0, 0, 0, None,
                str(exc) or "out of memory", failure_kind="resource-limit"))
        degrees = [config.max_degree]
        if config.auto_degree:
            degrees += list(range(config.max_degree + 1,
                                  config.degree_limit + 1))
        last_failure: Optional[AnalysisResult] = None
        for degree in degrees:
            # A failed attempt's system is discarded, so an error result
            # reports no LP size.
            try:
                result = self.solve_attempt(
                    self.ensure_degree(prepared, degree))
            except AnalysisError as exc:
                return finalise(AnalysisResult(
                    False, None, degree, 0.0, 0, 0, None, str(exc),
                    failure_kind="analysis-error"))
            except MemoryError as exc:
                return finalise(AnalysisResult(
                    False, None, degree, 0.0, 0, 0, None,
                    str(exc) or "out of memory",
                    failure_kind="resource-limit"))
            if result.failure_kind != "no-bound":
                return finalise(result)
            last_failure = result
        assert last_failure is not None
        return finalise(last_failure)

    # -- objective construction ----------------------------------------------

    #: Reference scale and sample count for the objective weights.  The range
    #: is asymmetric because the paper's benchmarks (and inputs in general)
    #: are predominantly non-negative; a small negative tail keeps atoms such
    #: as ``|[n, 0]|`` from being weightless.
    _WEIGHT_SAMPLES = 300
    _WEIGHT_LOW = -250
    _WEIGHT_HIGH = 1000
    _WEIGHT_SEED = 12345

    def _weight_matrix(self, variables: Sequence[str]) -> "np.ndarray":
        """Deterministic pseudo-random reference states, one row per sample.

        The single vectorised ``integers`` call draws the exact same stream
        as per-variable scalar draws, so the reference states themselves are
        reproducible.  The downstream weighting evaluates monomials in
        float64 (rather than exact rationals converted at the end), so
        weights may differ in the last ulp for non-dyadic coefficients
        before ``limit_denominator`` snaps them.
        """
        import numpy as np

        rng = np.random.default_rng(self._WEIGHT_SEED)
        samples = rng.integers(self._WEIGHT_LOW, self._WEIGHT_HIGH + 1,
                               size=(self._WEIGHT_SAMPLES, len(variables)))
        return samples.astype(np.float64)

    def _objectives(self, initial: PotentialAnnotation) -> List[AffExpr]:
        """One weighted objective per degree, highest degree first.

        The LP minimises the bound itself, so each base function is weighted
        by its average magnitude over a set of reference input states (the
        paper weighs larger intervals more for the same reason: the objective
        should reflect how much each base function contributes to the bound's
        value).  Coefficients of higher-degree base functions are minimised
        first, then fixed, following the paper's iterative scheme.  Monomial
        magnitudes are evaluated with NumPy over the whole sample matrix at
        once, caching the shared ``max(0, D)`` atom columns.
        """
        import numpy as np

        variables = sorted({var for monomial in initial.terms
                            for var in monomial.variables()})
        column: Dict[str, int] = {var: i for i, var in enumerate(variables)}
        states = self._weight_matrix(variables) if variables else None
        atom_values: Dict[object, "np.ndarray"] = {}

        def values_of(atom) -> "np.ndarray":
            values = atom_values.get(atom)
            if values is None:
                coeffs = np.zeros(len(variables))
                for var, coeff in atom.diff.coeff_items:
                    coeffs[column[var]] = float(coeff)
                values = np.maximum(0.0, states @ coeffs
                                    + float(atom.diff.const_term))
                atom_values[atom] = values
            return values

        by_degree: Dict[int, AffExpr] = {}
        for monomial, coeff in initial.terms.items():
            degree = monomial.degree()
            if monomial.is_constant() or states is None:
                weight = 1
            else:
                magnitudes = np.ones(self._WEIGHT_SAMPLES)
                for atom, power in monomial.factors:
                    magnitudes = magnitudes * values_of(atom) ** power
                mean = float(magnitudes.sum()) / self._WEIGHT_SAMPLES
                weight = Fraction(max(1.0, mean)).limit_denominator(1000)
            weighted = coeff * weight
            by_degree[degree] = by_degree.get(degree, AffExpr.zero()) + weighted
        return [by_degree[d] for d in sorted(by_degree, reverse=True)]
