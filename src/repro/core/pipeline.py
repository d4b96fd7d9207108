"""The staged, incremental analysis pipeline (degree-escalation reuse).

The analyzer used to rebuild *everything* per degree retry: front-end
transforms, abstract interpretation, templates, the whole
:class:`~repro.core.constraints.ConstraintSystem` and the LP assembly.  The
pipeline splits one analysis into explicit stages with a persistent
:class:`AnalysisState`:

1. **prepare** -- program transforms + abstract interpretation.  Degree
   independent; computed exactly once per analysis.
2. **templates / derive** -- the base derivation at degree 1 (the journaled
   walk of :class:`~repro.core.derivation.DerivationBuilder`), then one
   append-only *extension* walk per further degree: templates grow
   monotonically (new monomials get new LP variables, old ones keep
   theirs), existing constraint rows are kept verbatim and only gain
   entries in the new columns, and only the constraints mentioning new
   variables are emitted.
3. **solve** -- the iterative LP over an :class:`~repro.core.solver.
   AssembledSystem` that is *grown in place* across escalations instead of
   being re-translated.

Every analysis at degree ``d`` builds its system through the same staged
construction (base degree, then extensions up to ``d``) whether or not the
intermediate degrees are solved.  Consequence: an escalating run
(``max_degree=1`` failing, retrying at 2) and a cold ``max_degree=2`` run
produce *byte-identical* constraint systems, hence byte-identical bounds
and certificates -- the escalating run simply reuses the work it already
did.  Per-stage wall times and variable/constraint deltas are recorded in
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
from repro.core.solver import AssembledSystem, IterativeMinimizer, LPSolution
from repro.core.specs import ProcedureSpec, SpecContext
from repro.lang import ast
from repro.lang.errors import AnalysisError
from repro.lang.transform import counter_as_resource, inline_calls, modified_variables
from repro.logic.absint import AbstractInterpreter
from repro.utils.polynomials import Polynomial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import AnalyzerConfig, AnalysisResult


# ---------------------------------------------------------------------------
# Stage statistics
# ---------------------------------------------------------------------------

@dataclass
class DegreeStage:
    """Build/solve statistics of one degree stage of the pipeline."""

    degree: int
    #: Whether this stage was built from scratch ("base") or appended onto
    #: the previous degree's system ("extend").
    kind: str = "base"
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    variables_added: int = 0
    constraints_added: int = 0
    #: Rows of earlier degrees that gained entries in new columns.
    constraints_extended: int = 0
    #: Rows of earlier degrees kept verbatim (no new entries at all).
    constraints_reused: int = 0
    variables_total: int = 0
    constraints_total: int = 0
    solved: bool = False
    feasible: Optional[bool] = None
    #: LP solves of this stage's attempt (``repro.core.lpsession``).
    cold_solves: int = 0
    #: Objective stages of this attempt answered without an LP solve
    #: (already optimal at the previous stage's point).
    skipped_solves: int = 0

    def reuse_ratio(self) -> Optional[float]:
        """Fraction of this stage's system carried over from earlier degrees."""
        if self.kind != "extend":
            return None
        total = self.variables_total + self.constraints_total
        if total == 0:
            return None
        carried = (self.variables_total - self.variables_added) \
            + self.constraints_reused + self.constraints_extended
        return round(carried / total, 4)

    def to_dict(self) -> Dict[str, object]:
        return {
            "degree": self.degree,
            "kind": self.kind,
            "build_seconds": round(self.build_seconds, 4),
            "solve_seconds": round(self.solve_seconds, 4),
            "variables_added": self.variables_added,
            "constraints_added": self.constraints_added,
            "constraints_extended": self.constraints_extended,
            "constraints_reused": self.constraints_reused,
            "variables_total": self.variables_total,
            "constraints_total": self.constraints_total,
            "solved": self.solved,
            "feasible": self.feasible,
            "reuse_ratio": self.reuse_ratio(),
            "cold_solves": self.cold_solves,
            "skipped_solves": self.skipped_solves,
        }


@dataclass
class PipelineStats:
    """Per-stage walls and system deltas of one full analysis."""

    prepare_seconds: float = 0.0
    #: Degrees whose LP was actually solved (the retry schedule).
    attempted_degrees: List[int] = field(default_factory=list)
    #: One entry per *constructed* degree (superset of the attempted ones:
    #: a cold ``max_degree=2`` run constructs degree 1 without solving it).
    stages: List[DegreeStage] = field(default_factory=list)

    @property
    def escalation_reuse_ratio(self) -> Optional[float]:
        """Reuse ratio of the last extension stage (None for single-degree runs)."""
        for stage in reversed(self.stages):
            ratio = stage.reuse_ratio()
            if ratio is not None:
                return ratio
        return None

    def stage_for(self, degree: int) -> Optional[DegreeStage]:
        for stage in self.stages:
            if stage.degree == degree:
                return stage
        return None

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
            "escalation_reuse_ratio": self.escalation_reuse_ratio,
            # Always 0: kept so readers that sum warm + cold solves work.
            "warm_solves": 0,
            "cold_solves": self.cold_solves,
            "skipped_solves": self.skipped_solves,
            "stages": [stage.to_dict() for stage in self.stages],
        }


# ---------------------------------------------------------------------------
# Persistent analysis state
# ---------------------------------------------------------------------------

@dataclass
class AnalysisState:
    """Everything the pipeline keeps alive across degree escalations."""

    program: ast.Program
    interpreter: AbstractInterpreter
    recursive: List[str]
    system: ConstraintSystem
    specs: SpecContext
    builder: Optional[DerivationBuilder] = None
    #: The entry annotation of the main procedure (merged across degrees).
    initial: Optional[PotentialAnnotation] = None
    #: LP assembly grown in place; created lazily at the first solve.
    assembled: Optional[AssembledSystem] = None
    #: LP session over ``assembled`` (same lifetime): it survives objective
    #: stages and degree escalations.
    session: Optional[LPSession] = None
    built_degree: Optional[int] = None


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class AnalysisPipeline:
    """Drives prepare -> (templates/derive)* -> solve with state reuse."""

    def __init__(self, program: ast.Program, config: "AnalyzerConfig") -> None:
        self.program = program
        self.config = config
        self.stats = PipelineStats()

    # -- stage 1: prepare (degree independent) ------------------------------

    def prepare(self) -> AnalysisState:
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
        return AnalysisState(program=program, interpreter=interpreter,
                             recursive=recursive, system=ConstraintSystem(),
                             specs=SpecContext())

    # -- stages 2+3: templates + derivation ---------------------------------

    def ensure_degree(self, state: AnalysisState, degree: int) -> None:
        """Construct (incrementally) the system for ``degree``.

        The system is always built through the same stage sequence --
        base degree first, then one extension per further degree -- so the
        result is independent of which intermediate degrees were solved.
        """
        if state.built_degree is None:
            self._build_base(state, min(degree, 1))
        while state.built_degree < degree:
            self._extend(state, state.built_degree + 1)

    def _build_base(self, state: AnalysisState, degree: int) -> None:
        started = time.perf_counter()
        program = state.program
        basegen_config = self.config.basegen(degree)
        builder = DerivationBuilder(program, state.interpreter, state.system,
                                    basegen_config, state.specs)
        state.builder = builder
        # Specifications for (mutually) recursive procedures.
        for name in state.recursive:
            proc = program.procedures[name]
            entry_context = state.interpreter.context_before(proc.body)
            monomials = template_monomials_for_procedure(
                proc.body, entry_context, basegen_config)
            pre = PotentialAnnotation.template(state.system, monomials,
                                               f"spec_{name}", nonneg=True)
            state.specs.register(ProcedureSpec(
                name=name, pre=pre, post=PotentialAnnotation.zero(),
                modified_variables=modified_variables(program, name)))
        for name in state.recursive:
            builder.constrain_specification(name)
        state.initial = builder.analyze_command(program.main_procedure.body,
                                                PotentialAnnotation.zero())
        state.built_degree = degree
        self.stats.stages.append(DegreeStage(
            degree=degree, kind="base",
            build_seconds=time.perf_counter() - started,
            variables_added=state.system.num_variables,
            constraints_added=state.system.num_constraints,
            variables_total=state.system.num_variables,
            constraints_total=state.system.num_constraints))

    def _extend(self, state: AnalysisState, degree: int) -> None:
        started = time.perf_counter()
        program = state.program
        system = state.system
        builder = state.builder
        basegen_config = self.config.basegen(degree)
        system.begin_extension()
        builder.begin_extension(basegen_config)
        # Grow the spec templates first (mirroring the base registration
        # order), then replay the procedure obligations and the main body.
        for name in state.recursive:
            proc = program.procedures[name]
            entry_context = state.interpreter.context_before(proc.body)
            monomials = template_monomials_for_procedure(
                proc.body, entry_context, basegen_config)
            spec = state.specs.lookup(name)
            merged, delta = PotentialAnnotation.extend_template(
                system, spec.pre, monomials, f"spec_{name}", nonneg=True)
            spec.pre = merged
            builder.register_spec_delta(name, delta)
        for name in state.recursive:
            builder.extend_specification(name)
        # The main body's continuation is the zero annotation at every
        # degree (as in the base walk), so its full post and its delta are
        # both zero: ``post == base_post + dpost``.
        state.initial, _ = builder.extend_command(
            program.main_procedure.body, PotentialAnnotation.zero(),
            PotentialAnnotation.zero())
        builder.end_extension()
        extension = system.end_extension()
        if state.assembled is not None:
            state.assembled.extend(extension)
        state.built_degree = degree
        self.stats.stages.append(DegreeStage(
            degree=degree, kind="extend",
            build_seconds=time.perf_counter() - started,
            variables_added=system.num_variables - extension.base_variables,
            constraints_added=system.num_constraints - extension.base_constraints,
            constraints_extended=extension.constraints_extended,
            constraints_reused=(extension.base_constraints
                                - extension.constraints_extended),
            variables_total=system.num_variables,
            constraints_total=system.num_constraints))

    # -- stage 4: solve ------------------------------------------------------

    def solve_attempt(self, state: AnalysisState, degree: int) -> "AnalysisResult":
        from repro.core.analyzer import AnalysisResult

        started = time.perf_counter()
        system = state.system
        stage = self.stats.stage_for(degree)
        self.stats.attempted_degrees.append(degree)
        objectives = self._objectives(state.initial)
        if state.assembled is None:
            state.assembled = AssembledSystem(system)
        if state.session is None:
            state.session = LPSession(state.assembled)
        solves_before = state.session.solves
        skipped_before = state.session.skipped
        solver = IterativeMinimizer(system, tolerance=self.config.lp_tolerance)
        solution = solver.solve(objectives, session=state.session)
        elapsed = time.perf_counter() - started
        if stage is not None:
            stage.solve_seconds = elapsed
            stage.solved = True
            stage.feasible = solution is not None
            stage.cold_solves = state.session.solves - solves_before
            stage.skipped_solves = state.session.skipped - skipped_before
        if solution is None:
            return AnalysisResult(
                False, None, degree, elapsed,
                system.num_variables, system.num_constraints, None,
                f"the LP is infeasible for degree {degree} "
                "(no bound exists for the chosen base functions)",
                failure_kind="no-bound")
        bound_poly = self._extract_bound(state.initial, solution)
        builder = state.builder
        certificate = build_certificate(bound_poly, builder.steps,
                                        builder.weakens, solution.assignment)
        return AnalysisResult(True, ExpectedBound(bound_poly), degree, elapsed,
                              system.num_variables, system.num_constraints,
                              certificate, "")

    # -- the driver ----------------------------------------------------------

    def run(self) -> "AnalysisResult":
        """Run the analysis over the configured degree-retry schedule.

        The whole run executes with the configured abstract domain active
        (:func:`repro.logic.entailment.use_domain`), so every ``Context``
        operation -- from abstract interpretation to the rewrite-side
        entailment checks -- is answered by the selected backend.  The
        interval pre-filter tier follows the ambient
        :func:`repro.logic.entailment.active_prefilter` setting: on unless
        the ``$REPRO_PREFILTER=off`` oracle switch or a test's
        ``use_prefilter(False)`` turns it off.
        """
        from repro.core.analyzer import AnalysisResult
        from repro.logic.entailment import resolve_domain, use_domain

        try:
            domain = resolve_domain(self.config.domain)
        except ValueError as exc:
            return AnalysisResult(
                False, None, self.config.max_degree, 0.0, 0, 0, None,
                str(exc), failure_kind="analysis-error", stats=self.stats)
        with use_domain(domain):
            return self._run_attempts()

    def _run_attempts(self) -> "AnalysisResult":
        from dataclasses import replace

        from repro.core.analyzer import AnalysisResult

        started = time.perf_counter()
        config = self.config

        def finalise(result: "AnalysisResult") -> "AnalysisResult":
            return replace(result,
                           total_seconds=time.perf_counter() - started,
                           stats=self.stats)

        try:
            state = self.prepare()
        except AnalysisError as exc:
            return finalise(AnalysisResult(
                False, None, config.max_degree, 0.0, 0, 0, None, str(exc),
                failure_kind="analysis-error"))
        except MemoryError as exc:
            # The eliminator's constraint cap (ConstraintCapExceeded) on a
            # query with no local fallback: a *resource* failure of this
            # backend, not a property of the program.  Reported as the
            # structured ``resource-limit`` kind so the service layer can
            # retry under the cap-free polyhedra backend.
            return finalise(AnalysisResult(
                False, None, config.max_degree, 0.0, 0, 0, None,
                str(exc) or "constraint cap exceeded",
                failure_kind="resource-limit"))
        degrees = [config.max_degree]
        if config.auto_degree:
            degrees += list(range(config.max_degree + 1,
                                  config.degree_limit + 1))
        last_failure: Optional[AnalysisResult] = None
        for degree in degrees:
            try:
                self.ensure_degree(state, degree)
                result = self.solve_attempt(state, degree)
            except AnalysisError as exc:
                return finalise(AnalysisResult(
                    False, None, degree, 0.0,
                    state.system.num_variables, state.system.num_constraints,
                    None, str(exc), failure_kind="analysis-error"))
            except MemoryError as exc:
                return finalise(AnalysisResult(
                    False, None, degree, 0.0,
                    state.system.num_variables, state.system.num_constraints,
                    None, str(exc) or "constraint cap exceeded",
                    failure_kind="resource-limit"))
            if result.success:
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
                weight = Fraction(1)
            else:
                magnitudes = np.ones(self._WEIGHT_SAMPLES)
                for atom, power in monomial.factors:
                    magnitudes = magnitudes * values_of(atom) ** power
                mean = float(magnitudes.sum()) / self._WEIGHT_SAMPLES
                weight = Fraction(max(1.0, mean)).limit_denominator(1000)
            weighted = coeff * weight
            by_degree[degree] = by_degree.get(degree, AffExpr.zero()) + weighted
        return [by_degree[d] for d in sorted(by_degree, reverse=True)]

    # -- bound extraction -----------------------------------------------------

    def _extract_bound(self, initial: PotentialAnnotation,
                       solution: LPSolution) -> Polynomial:
        polynomial = initial.instantiate(solution.assignment)
        cleaned = {monomial: coeff for monomial, coeff in polynomial.terms.items()
                   if abs(float(coeff)) > self.config.coefficient_epsilon}
        return Polynomial(cleaned)
