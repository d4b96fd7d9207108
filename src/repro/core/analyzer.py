"""The top-level expected-cost analyzer (the Python "Absynth").

:class:`ExpectedCostAnalyzer` wires the pipeline of the paper together
(see :mod:`repro.core.pipeline` for the staged implementation):

1. *prepare*: resource-counter lowering, inlining of non-recursive calls
   (:mod:`repro.lang.transform`) and abstract interpretation
   (:mod:`repro.logic.absint`) -- degree independent, computed once;
2. *templates + derivation*: loop-invariant/branch-join/procedure templates
   plus the derivation rules of Fig. 6 (:mod:`repro.core.derivation`);
3. *LP solving* with the iterative degree-by-degree objective
   (:mod:`repro.core.solver`);
4. *bound extraction* and certificate construction
   (:mod:`repro.core.bounds`, :mod:`repro.core.certificates`).

If no bound exists within the chosen maximal degree the analyzer can
optionally retry with a higher degree (``auto_degree``), mirroring how users
drive Absynth by specifying a maximal degree.  A retry derives and solves
the higher degree from scratch, reusing only the prepared program, so an
escalated run builds the same system as a cold run at that degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, TYPE_CHECKING

from repro.core.basegen import BaseGenConfig
from repro.core.bounds import ExpectedBound
from repro.core.certificates import Certificate
from repro.lang import ast
from repro.lang.errors import NoBoundFoundError
from repro.utils.linear import LinExpr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import PipelineStats
    from repro.lang.analysis import Diagnostic


@dataclass
class AnalyzerConfig:
    """User-facing knobs of the analysis."""

    #: Maximal degree of the inferred polynomial bound.
    max_degree: int = 1
    #: Retry with higher degrees (up to ``degree_limit``) when no bound is found.
    auto_degree: bool = True
    degree_limit: int = 2
    #: Inline non-recursive procedure calls before the analysis.
    inline: bool = True
    #: Interpret this global variable as the resource counter (``cost``).
    resource_counter: Optional[str] = None
    #: Extra interval atoms (``max(0, expr)``) supplied by the user as hints.
    hint_atoms: Tuple[LinExpr, ...] = ()
    #: Base-function heuristic limits (see :class:`BaseGenConfig`).
    atom_limit: int = 40
    monomial_limit: int = 600
    max_offsets: int = 16
    #: LP tolerance used when fixing intermediate objectives.
    lp_tolerance: float = 1e-7
    #: Run the static lint passes (:mod:`repro.lang.analysis`) before the
    #: derivation.  Diagnostics are attached to the result in every case;
    #: error-severity diagnostics abort the analysis with
    #: ``failure_kind="lint-error"``.  For accepted programs the gate is
    #: observe-only: bounds and certificates are byte-identical to a run
    #: without it.
    preflight: bool = False

    def basegen(self, degree: int) -> BaseGenConfig:
        return BaseGenConfig(max_degree=degree,
                             max_offsets=self.max_offsets,
                             atom_limit=self.atom_limit,
                             monomial_limit=self.monomial_limit,
                             hint_atoms=tuple(self.hint_atoms))


@dataclass
class AnalysisResult:
    """Outcome of one analysis run.

    ``time_seconds`` is the wall time of the attempt that produced this
    result (the successful degree, or the last failed one);
    ``total_seconds`` covers the whole analysis including preparation and
    earlier failed attempts.  ``stats`` carries the per-stage breakdown
    (:class:`~repro.core.pipeline.PipelineStats`).
    """

    success: bool
    bound: Optional[ExpectedBound]
    degree: int
    time_seconds: float
    lp_variables: int
    lp_constraints: int
    certificate: Optional[Certificate] = None
    message: str = ""
    #: ``""`` on success; ``"no-bound"`` when the LP is infeasible for every
    #: attempted degree; ``"analysis-error"`` when the derivation could not
    #: even be set up (lowering failures, unsupported constructs, ...) or
    #: HiGHS ended an LP with neither an optimum nor an infeasibility proof;
    #: ``"resource-limit"`` when the process ran out of memory -- a failure
    #: of the environment, not the program, so it is never cached.
    #: Front ends map these to distinct exit codes.
    failure_kind: str = ""
    total_seconds: float = 0.0
    stats: Optional["PipelineStats"] = None
    #: Lint diagnostics from the pre-flight gate (empty unless
    #: ``AnalyzerConfig.preflight`` was enabled).
    diagnostics: Tuple["Diagnostic", ...] = ()

    def require_bound(self) -> ExpectedBound:
        if not self.success or self.bound is None:
            raise NoBoundFoundError(self.message or "no bound was found")
        return self.bound

    def __repr__(self) -> str:
        if self.success and self.bound is not None:
            return (f"AnalysisResult(bound={self.bound.pretty()!r}, "
                    f"degree={self.degree}, time={self.time_seconds:.3f}s)")
        return f"AnalysisResult(failure: {self.message!r})"


class ExpectedCostAnalyzer:
    """Derives upper bounds on the expected resource usage of a program."""

    def __init__(self, program: ast.Program,
                 config: Optional[AnalyzerConfig] = None, **overrides) -> None:
        self.program = program
        base = config if config is not None else AnalyzerConfig()
        if overrides:
            base = replace(base, **overrides)
        self.config = base

    # -- public API ----------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        """Run the staged pipeline, escalating the degree on an infeasible LP.

        With ``preflight`` enabled the lint passes run first: error-severity
        diagnostics stop the analysis (``failure_kind="lint-error"``);
        otherwise the diagnostics ride along on the result and the pipeline
        runs exactly as without the gate.
        """
        from repro.core.pipeline import AnalysisPipeline

        diagnostics: Tuple["Diagnostic", ...] = ()
        if self.config.preflight:
            import time

            from repro.lang.analysis import lint_program

            # The resource counter is zero-initialized by convention, so
            # counter updates such as ``cost = cost + s`` are not
            # uninitialized reads.
            initial = set(self.program.main_procedure.params)
            if self.config.resource_counter:
                initial.add(self.config.resource_counter)
            start = time.perf_counter()
            diagnostics = tuple(lint_program(self.program,
                                             initial_state=initial))
            elapsed = time.perf_counter() - start
            errors = [diag for diag in diagnostics
                      if diag.severity == "error"]
            if errors:
                return AnalysisResult(
                    success=False, bound=None, degree=0,
                    time_seconds=elapsed, lp_variables=0, lp_constraints=0,
                    message="pre-flight lint rejected the program: "
                            + errors[0].format(),
                    failure_kind="lint-error", total_seconds=elapsed,
                    diagnostics=diagnostics)
        result = AnalysisPipeline(self.program, self.config).run()
        if diagnostics:
            result.diagnostics = diagnostics
        return result


def analyze_program(program: ast.Program, **options) -> AnalysisResult:
    """Convenience wrapper: ``analyze_program(prog, max_degree=2, ...)``."""
    return ExpectedCostAnalyzer(program, **options).analyze()


def analyze_source(source: str, **options) -> AnalysisResult:
    """Parse concrete syntax and analyze it: the pure batch entry point.

    A module-level function of picklable inputs (source text + keyword
    options) and a picklable :class:`AnalysisResult`, so it can be shipped
    to worker processes by :mod:`repro.service.scheduler` as-is.
    :class:`~repro.lang.errors.ParseError` propagates to the caller.
    """
    from repro.lang.parser import parse_program

    return ExpectedCostAnalyzer(parse_program(source), **options).analyze()
