"""Analysis jobs: picklable units of work with canonical content hashes.

An :class:`AnalysisJob` wraps one parse→analyze→bound request as plain data
(program source text + analyzer options), so it can be

* shipped to a worker process by :mod:`repro.service.scheduler` (everything
  is picklable, no AST or engine state crosses the process boundary), and
* content-addressed by :attr:`AnalysisJob.job_hash` so the persistent store
  (:mod:`repro.service.store`) can serve unchanged programs without
  re-analyzing them.

The hash covers the *canonical* program text (whitespace-normalised), the
analyzer options that affect the result (degree, resource counter, hints,
solver tolerances) and a schema version, so any change to the result format
invalidates old cache records wholesale.

:class:`JobResult` is the JSON-able mirror of
:class:`repro.core.analyzer.AnalysisResult`: the bound is serialised term by
term with exact rational coefficients (so the parent process can rebuild an
evaluable :class:`~repro.core.bounds.ExpectedBound`), and the certificate is
flattened to its annotated points and weakening evidence.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analyzer import AnalysisResult, AnalyzerConfig, analyze_source
from repro.core.bounds import ExpectedBound
from repro.core.certificates import Certificate
from repro.lang.errors import ParseError
from repro.logic.entailment import FM_DOMAIN
from repro.utils.linear import LinExpr
from repro.utils.polynomials import IntervalAtom, Monomial, Polynomial

#: Bump when the JobResult/record layout changes: old store records become
#: cache misses instead of being misread.
#: v2: per-stage pipeline statistics (attempted degrees, escalation reuse)
#: and the per-attempt/total timing split.
#: v3: the abstract-domain backend (``domain`` option) participates in the
#: job hash and results record the domain that produced them, so the store
#: can never serve one backend's results to the other.
#: v4: supervision provenance (``attempts``, ``degraded``, ``fault_events``)
#: and a record checksum written by the store; a Fourier-Motzkin constraint
#: cap blowup is the structured ``resource-limit`` status instead of a raw
#: error.
#: v5: the LP solver selector (``solver`` option) is stamped into every job
#: like ``domain`` was in v3.
#: v6: results carry the pre-flight lint diagnostics (``diagnostics``, a
#: list of :meth:`repro.lang.analysis.Diagnostic.to_dict` records) and the
#: pre-flight gate's ``lint-error`` status joins the cacheable set (lint is
#: a deterministic function of the job content).
#: v7: the interval pre-filter setting (``prefilter`` option) is stamped
#: into every job like ``domain``/``solver``.
#: v8: ``solver`` and ``prefilter`` are gone from the options and the hash
#: (one LP path; the interval tier is always on outside the test oracle),
#: so equivalent configurations share one cache key.  Option keys that are
#: not :class:`~repro.core.analyzer.AnalyzerConfig` fields are rejected.
#: v9: degree escalation replays the main body against the zero
#: continuation (it used the degree-``d`` pre-annotation), so degree-2
#: certificates change; v8 ones record ``loop-exit`` weakenings the
#: certificate checker rejects and must not be served.
#: v10: the pipeline record gains ``skipped_solves``, and an objective
#: stage that is already optimal at the previous stage's point keeps that
#: point instead of re-solving, so certificates change wherever a final
#: stage is skipped; v9 records read as misses.
#: v11: degree escalation rebuilds each degree from scratch, so the
#: pipeline record drops ``escalation_reuse_ratio`` and the per-stage
#: ``kind``/``reuse_ratio``/``*_added``/``constraints_extended``/
#: ``constraints_reused``/``solved`` keys, and degree-2 certificates change
#: (the LP columns are in a new order); v10 records read as misses.
#: v12: the ``domain`` option and ``JobResult.domain`` are gone (one
#: exact entailment backend), so jobs no longer carry a stamped domain and
#: v11 records read as misses.
#: v13: degree 2 leaves out the lifted rewrites that are sums of kept ones,
#: and later objective stages run with columns fixed by reduced cost, so a
#: certificate of either degree can come from another optimal vertex with
#: other multipliers (bounds are unchanged); the pipeline record's stages
#: gain ``fixed_columns``.  v12 records read as misses.
SCHEMA_VERSION = 13

#: Statuses a job can end in.  ``ok``/``no-bound``/``parse-error`` are
#: deterministic outcomes of the job's content and therefore cacheable;
#: ``analysis-error`` and ``resource-limit`` may be environment-dependent
#: (e.g. running out of memory) and ``timeout``/``cancelled``/``error``
#: describe the run, not the job.
CACHEABLE_STATUSES = frozenset({"ok", "no-bound", "parse-error",
                                "lint-error"})


def canonical_source(source: str) -> str:
    """Whitespace-normalised program text (the hashed representation).

    Trailing whitespace, ``\\r`` line endings and leading/trailing blank
    lines never change the parsed program, so they do not change the hash.
    """
    lines = [line.rstrip() for line in source.replace("\r\n", "\n").split("\n")]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def _jsonable_option(value: object) -> object:
    """Deterministic JSON image of one analyzer option value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return f"fraction:{value}"
    if isinstance(value, (list, tuple)):
        return [_jsonable_option(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable_option(value[key]) for key in sorted(value)}
    # LinExpr hints and other rich values have deterministic reprs.
    return f"repr:{value!r}"


#: The option keys a job may carry: the analyzer's own configuration.
_CONFIG_FIELDS = frozenset(item.name for item in fields(AnalyzerConfig))


@dataclass(frozen=True)
class AnalysisJob:
    """One self-contained analysis request (picklable, content-addressed)."""

    name: str
    source: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def create(cls, name: str, source: str,
               options: Optional[Dict[str, object]] = None) -> "AnalysisJob":
        """Build a job from its name, source text and analyzer options.

        Option keys must be :class:`~repro.core.analyzer.AnalyzerConfig`
        fields; any other key raises ``ValueError`` naming it, so front
        ends answer a bad request instead of running a job that fails.
        """
        merged = dict(options or {})
        unknown = sorted(set(merged) - _CONFIG_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown analyzer option {unknown[0]!r} (known: "
                f"{', '.join(sorted(_CONFIG_FIELDS))})")
        items = tuple(sorted(merged.items()))
        return cls(name=name, source=source, options=items)

    @property
    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    @property
    def job_hash(self) -> str:
        """Canonical content hash: source + options + schema version."""
        payload = json.dumps({
            "schema": SCHEMA_VERSION,
            "source": canonical_source(self.source),
            "options": {name: _jsonable_option(value)
                        for name, value in self.options},
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def job_from_file(path: str, options: Optional[Dict[str, object]] = None,
                  name: Optional[str] = None) -> AnalysisJob:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return AnalysisJob.create(name or path, source, options)


def job_from_benchmark(benchmark) -> AnalysisJob:
    """Turn a registry :class:`~repro.bench.registry.BenchmarkProgram` into a job.

    The program AST is printed back to concrete syntax (a bound-preserving
    round trip, see ``tests/test_parser_printer.py``) so the job carries only
    text and the worker parses it afresh.
    """
    return AnalysisJob.create(benchmark.name, benchmark.source_text(),
                              benchmark.analyzer_options)


# ---------------------------------------------------------------------------
# Result serialisation
# ---------------------------------------------------------------------------

def _linexpr_payload(expr: LinExpr) -> Dict[str, object]:
    return {"coeffs": {var: str(coeff) for var, coeff in expr.coeff_items},
            "const": str(expr.const_term)}


def _linexpr_from_payload(payload: Dict[str, object]) -> LinExpr:
    coeffs = {var: Fraction(coeff) for var, coeff in payload["coeffs"].items()}
    return LinExpr(coeffs, Fraction(payload["const"]))


def bound_payload(bound: ExpectedBound) -> Dict[str, object]:
    """Exact, JSON-able image of a bound (reconstructible via :func:`bound_from_payload`)."""
    terms = []
    for monomial in bound.polynomial.monomials():
        coeff = bound.polynomial.coefficient(monomial)
        factors = [{"power": power, **_linexpr_payload(atom.diff)}
                   for atom, power in monomial.factors]
        terms.append({"coeff": str(coeff), "factors": factors})
    return {"pretty": bound.pretty(), "terms": terms}


def bound_from_payload(payload: Dict[str, object]) -> ExpectedBound:
    terms: Dict[Monomial, Fraction] = {}
    for term in payload["terms"]:
        counts = {IntervalAtom(_linexpr_from_payload(factor)): factor["power"]
                  for factor in term["factors"]}
        terms[Monomial(counts)] = Fraction(term["coeff"])
    return ExpectedBound(Polynomial(terms))


def certificate_payload(certificate: Certificate) -> Dict[str, object]:
    """JSON image of a derivation certificate (annotated points + weakenings).

    This keeps the machine-checkable *evidence* attached to every stored
    result: the instantiated annotation at every program point and, per
    weakening, the non-negative combination of rewrite functions justifying
    it.  Polynomials are rendered in the Table-1 syntax, which rounds
    inexact coefficients to 6 digits.  Stored certificates are *unchecked*:
    no service code calls :func:`repro.core.certificates.check_certificate`
    (only ``repro analyze --certificate`` does), until the check becomes a
    gate on ``ok`` results (ROADMAP item 1(d)).
    """
    return {
        "bound": str(certificate.bound),
        "points": [{
            "node_id": point.node_id,
            "rule": point.rule,
            "description": point.description,
            "pre": str(point.pre),
            "post": str(point.post),
        } for point in certificate.points],
        "weakenings": [{
            "origin": evidence.origin,
            "context": [str(fact) for fact in evidence.context.facts],
            "stronger": str(evidence.stronger),
            "weaker": str(evidence.weaker),
            "combination": [{
                "multiplier": str(value),
                "rewrite": str(poly),
                "reason": reason,
            } for value, poly, reason in evidence.combination],
        } for evidence in certificate.weakenings],
    }


@dataclass
class JobResult:
    """JSON-able outcome of one job (what workers return and the store keeps)."""

    name: str
    job_hash: str
    status: str                      # ok | no-bound | analysis-error |
                                     # resource-limit | parse-error |
                                     # lint-error | error | timeout |
                                     # cancelled
    wall_seconds: float = 0.0
    degree: int = 0
    bound: Optional[Dict[str, object]] = None
    lp_variables: int = 0
    lp_constraints: int = 0
    message: str = ""
    certificate: Optional[Dict[str, object]] = None
    engine: Dict[str, int] = field(default_factory=dict)
    worker_pid: int = 0
    #: Per-stage pipeline breakdown (attempted degrees, per-degree build/solve
    #: walls, escalation reuse ratio) -- see
    #: :meth:`repro.core.pipeline.PipelineStats.to_dict`.
    pipeline: Dict[str, object] = field(default_factory=dict)
    #: How many executions this result took, counting the first (schema v4).
    #: 1 for the common no-fault path; >1 records pool-rebuild resubmissions
    #: and degradation-ladder reruns.
    attempts: int = 1
    #: Degradation provenance (schema v4): empty for first-class results;
    #: otherwise ``{"kind": "degree-fallback", "from": 2, "to": 1,
    #: "reason": "timeout"}``.
    degraded: Dict[str, object] = field(default_factory=dict)
    #: Faults that fired while producing this result (schema v4): a list of
    #: ``{"site", "kind", "key", ...}`` dicts, injected ones from
    #: :mod:`repro.service.faults` and real ones observed by the scheduler
    #: (e.g. ``worker-lost``, ``store-write-error``).
    fault_events: List[Dict[str, object]] = field(default_factory=list)
    #: Pre-flight lint diagnostics (schema v6): ``Diagnostic.to_dict()``
    #: records, present only when the job ran with ``preflight`` enabled.
    diagnostics: List[Dict[str, object]] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.status == "ok"

    @property
    def cacheable(self) -> bool:
        """Whether this result is a property of the job (worth caching).

        Degree-fallback results are excluded even when their status is
        cacheable: they were produced under a *reduced* degree limit because
        the environment timed the job out, so a healthier run could do
        better.
        """
        if self.degraded.get("kind") == "degree-fallback":
            return False
        return self.status in CACHEABLE_STATUSES

    @property
    def bound_pretty(self) -> Optional[str]:
        return self.bound["pretty"] if self.bound else None

    def expected_bound(self) -> Optional[ExpectedBound]:
        """Rebuild the evaluable bound object (None for unsuccessful jobs)."""
        return bound_from_payload(self.bound) if self.bound else None

    def to_record(self) -> Dict[str, object]:
        record = asdict(self)
        record["schema"] = SCHEMA_VERSION
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "JobResult":
        fields = {name: record[name] for name in (
            "name", "job_hash", "status", "wall_seconds", "degree", "bound",
            "lp_variables", "lp_constraints", "message", "certificate",
            "engine", "worker_pid", "pipeline", "attempts",
            "degraded", "fault_events", "diagnostics")}
        return cls(**fields)


def result_from_analysis(job: AnalysisJob, analysis: AnalysisResult,
                         wall_seconds: float,
                         engine_delta: Optional[Dict[str, int]] = None
                         ) -> JobResult:
    """Flatten an in-process :class:`AnalysisResult` into a :class:`JobResult`."""
    import os

    status = "ok" if analysis.success else (analysis.failure_kind or "analysis-error")
    return JobResult(
        name=job.name,
        job_hash=job.job_hash,
        status=status,
        wall_seconds=round(wall_seconds, 4),
        degree=analysis.degree,
        bound=bound_payload(analysis.bound) if analysis.bound else None,
        lp_variables=analysis.lp_variables,
        lp_constraints=analysis.lp_constraints,
        message=analysis.message,
        certificate=(certificate_payload(analysis.certificate)
                     if analysis.certificate else None),
        engine=dict(engine_delta or {}),
        worker_pid=os.getpid(),
        pipeline=analysis.stats.to_dict() if analysis.stats else {},
        diagnostics=[diag.to_dict() for diag in analysis.diagnostics],
    )


def job_domain(job: AnalysisJob) -> str:
    """The entailment backend every job runs under: Fourier-Motzkin.

    Kept for callers that name the engine whose statistics they record
    (``get_engine(job_domain(job))``).
    """
    return FM_DOMAIN


def run_job(job: AnalysisJob) -> JobResult:
    """Execute one job in this process (the scheduler's worker entry point).

    Never raises for job-content problems: parse errors and analysis
    failures come back as structured statuses.  Only genuinely
    unexpected exceptions are folded into an ``error`` result so a bad job
    cannot take the worker down.
    """
    import os

    from repro.logic.entailment import get_engine
    from repro.service import faults

    start = time.perf_counter()
    try:
        engine = get_engine()
        before = engine.stats.snapshot()
        analysis = analyze_source(job.source, **job.options_dict)
    except ParseError as exc:
        return JobResult(name=job.name, job_hash=job.job_hash,
                         status="parse-error",
                         wall_seconds=round(time.perf_counter() - start, 4),
                         message=str(exc), worker_pid=os.getpid(),
                         fault_events=faults.drain_events())
    except Exception as exc:  # noqa: BLE001 -- workers must survive bad jobs
        return JobResult(name=job.name, job_hash=job.job_hash, status="error",
                         wall_seconds=round(time.perf_counter() - start, 4),
                         message=f"{type(exc).__name__}: {exc}",
                         worker_pid=os.getpid(),
                         fault_events=faults.drain_events())
    wall = time.perf_counter() - start
    result = result_from_analysis(job, analysis, wall,
                                  engine.stats.delta(before))
    result.fault_events = faults.drain_events()
    return result
