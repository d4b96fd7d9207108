"""Regenerate Table 1: inferred bound, measured error and analysis time.

For every benchmark the harness

1. runs the analyzer and records the inferred bound and the analysis time
   (the paper's "Expected bound" and "Time(s)" columns),
2. simulates the program over the benchmark's input sweep and compares the
   bound's value with the measured expected cost (the "Error(%)" column --
   the mean relative gap between bound and measurement over the sweep),
3. renders the rows grouped into linear and polynomial programs, exactly as
   the paper's table is split.

The absolute numbers differ from the paper (different machine, LP solver,
RNG, scaled-down simulation sizes, and reconstructed program texts for the
benchmarks whose sources are not printed in the paper); EXPERIMENTS.md
records the side-by-side comparison.

With ``--workers N`` the analysis phase runs through the
:mod:`repro.service` scheduler: benchmarks are converted to content-hashed
jobs and fanned out over ``N`` worker processes (the per-benchmark analysis
is self-contained, so the suite parallelises across cores), while the
simulation sweep stays in the parent process.  Bounds are byte-identical to
a sequential run -- the analysis is deterministic and results come back in
input order.

Command line::

    python -m repro.bench.table1 [--group linear|polynomial|all] [--quick]
                                 [--csv out.csv] [--names rdwalk race ...]
                                 [--workers N]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.registry import (
    BenchmarkProgram,
    get_benchmark,
    select_benchmarks,
)
from repro.bench.reporting import format_float, format_percentage, render_table, rows_to_csv
from repro.core.analyzer import analyze_program
from repro.semantics.sampler import (estimate_expected_cost, relative_error,
                                     spawn_seeds)


@dataclass
class Table1Row:
    """One evaluated benchmark."""

    name: str
    category: str
    bound: Optional[str]
    paper_bound: str
    error_percent: float
    paper_error: Optional[str]
    analysis_seconds: float
    paper_seconds: Optional[float]
    success: bool
    source: str
    measurements: List[Tuple[Dict[str, int], float, float]] = field(default_factory=list)
    message: str = ""
    #: "" on success; otherwise the failure class ("no-bound",
    #: "analysis-error", ...) used to pick the process exit code.
    failure_kind: str = ""

    @property
    def status(self) -> str:
        return "ok" if self.success else (self.failure_kind or "analysis-error")

    def as_table_row(self) -> Sequence[object]:
        return (
            self.name,
            self.bound if self.success else f"<none: {self.message[:30]}>",
            format_percentage(self.error_percent),
            format_float(self.analysis_seconds),
            self.paper_bound,
            self.paper_error if self.paper_error is not None else "",
            format_float(self.paper_seconds) if self.paper_seconds is not None else "",
        )


TABLE_HEADERS = ("Program", "Expected bound (this repro)", "Error(%)", "Time(s)",
                 "Paper bound", "Paper err(%)", "Paper time(s)")


def _measure_error(benchmark: BenchmarkProgram, bound,
                   runs: Optional[int], seed: int
                   ) -> Tuple[float, List[Tuple[Dict[str, int], float, float]]]:
    """Simulate the benchmark's input sweep against an evaluable bound.

    ``bound`` is anything with ``evaluate(state)`` -- the in-process
    :class:`~repro.core.bounds.ExpectedBound` or one reconstructed from a
    scheduler/store record.
    """
    # Simulate the program whose tick count measures the analysed
    # resource (resource-counter benchmarks are lowered to ticks).
    simulated = benchmark.build_for_simulation()
    plan = benchmark.simulation
    measurements: List[Tuple[Dict[str, int], float, float]] = []
    pairs = []
    states = plan.states()
    seeds = spawn_seeds(seed, len(states))
    for state, run_seed in zip(states, seeds):
        stats = estimate_expected_cost(
            simulated, state, runs=runs if runs is not None else plan.runs,
            seed=run_seed, max_steps=plan.max_steps)
        bound_value = float(bound.evaluate(state))
        measurements.append((state, stats.mean, bound_value))
        pairs.append((bound_value, stats.mean))
    errors = [relative_error(bound_value, mean) for bound_value, mean in pairs
              if mean == mean]
    error = sum(errors) / len(errors) if errors else float("nan")
    return error, measurements


def evaluate_benchmark(benchmark: BenchmarkProgram,
                       runs: Optional[int] = None,
                       simulate: bool = True,
                       seed: int = 0) -> Table1Row:
    """Analyze + (optionally) simulate one benchmark."""
    program = benchmark.build()
    start = time.perf_counter()
    result = analyze_program(program, **benchmark.analyzer_options)
    analysis_seconds = time.perf_counter() - start

    error = float("nan")
    measurements: List[Tuple[Dict[str, int], float, float]] = []
    if simulate and result.success and benchmark.simulation is not None:
        error, measurements = _measure_error(benchmark, result.bound, runs, seed)

    return Table1Row(
        name=benchmark.name,
        category=benchmark.category,
        bound=result.bound.pretty() if result.success else None,
        paper_bound=benchmark.paper_bound,
        error_percent=error,
        paper_error=benchmark.paper_error_percent,
        analysis_seconds=analysis_seconds,
        paper_seconds=benchmark.paper_time_seconds,
        success=result.success,
        source=benchmark.source,
        measurements=measurements,
        message=result.message,
        failure_kind=result.failure_kind,
    )


def evaluate_parallel(benchmarks: Sequence[BenchmarkProgram], workers: int,
                      runs: Optional[int] = None, simulate: bool = True,
                      seed: int = 0, store=None) -> List[Table1Row]:
    """Analyze ``benchmarks`` through the service scheduler, then simulate.

    Analyses fan out over ``workers`` processes (0 = inline through the same
    job pipeline); the simulation sweep runs in the parent against bounds
    reconstructed from the job results.  Per-benchmark analysis time is the
    wall time measured inside the worker.
    """
    from repro.service.jobs import job_from_benchmark
    from repro.service.scheduler import run_jobs

    jobs = [job_from_benchmark(benchmark) for benchmark in benchmarks]
    results = run_jobs(jobs, workers=workers, store=store)
    rows = []
    for benchmark, result in zip(benchmarks, results):
        bound = result.expected_bound()
        error = float("nan")
        measurements: List[Tuple[Dict[str, int], float, float]] = []
        if simulate and bound is not None and benchmark.simulation is not None:
            error, measurements = _measure_error(benchmark, bound, runs, seed)
        rows.append(Table1Row(
            name=benchmark.name,
            category=benchmark.category,
            bound=result.bound_pretty,
            paper_bound=benchmark.paper_bound,
            error_percent=error,
            paper_error=benchmark.paper_error_percent,
            analysis_seconds=result.wall_seconds,
            paper_seconds=benchmark.paper_time_seconds,
            success=result.success,
            source=benchmark.source,
            measurements=measurements,
            message=result.message,
            failure_kind="" if result.success else result.status,
        ))
    return rows


def select_group(group: str = "all",
                 names: Optional[Sequence[str]] = None) -> List[BenchmarkProgram]:
    if names:
        # Explicit names keep their given order (unlike select_benchmarks,
        # which returns registry order) -- callers rely on it.
        return [get_benchmark(name) for name in names]
    return select_benchmarks([f"@{group}"])


def run_table1(group: str = "all", names: Optional[Sequence[str]] = None,
               runs: Optional[int] = None, simulate: bool = True,
               seed: int = 0, workers: Optional[int] = None,
               store=None) -> List[Table1Row]:
    """Evaluate a group of benchmarks and return the rows.

    ``workers=None`` keeps the classic in-process path; any integer routes
    the analyses through the service scheduler (0 = inline jobs, N >= 1 = a
    pool of N processes) with identical bounds either way.
    """
    benchmarks = select_group(group, names)
    if workers is not None:
        return evaluate_parallel(benchmarks, workers, runs=runs,
                                 simulate=simulate, seed=seed, store=store)
    return [evaluate_benchmark(b, runs=runs, simulate=simulate, seed=seed)
            for b in benchmarks]


def render_rows(rows: Sequence[Table1Row]) -> str:
    """Render the rows as the paper does: linear programs first, then polynomial."""
    chunks = []
    for category, title in (("linear", "Linear programs"),
                            ("polynomial", "Polynomial programs")):
        selected = [row for row in rows if row.category == category]
        if not selected:
            continue
        chunks.append(render_table(TABLE_HEADERS,
                                   [row.as_table_row() for row in selected],
                                   title=title))
    return "\n\n".join(chunks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate Table 1 of the paper")
    parser.add_argument("--group", choices=("all", "linear", "polynomial"), default="all")
    parser.add_argument("--names", nargs="*", default=None,
                        help="evaluate only these benchmarks")
    parser.add_argument("--runs", type=int, default=None,
                        help="override the number of simulation runs per input")
    parser.add_argument("--quick", action="store_true",
                        help="use few simulation runs (fast smoke run)")
    parser.add_argument("--no-simulation", action="store_true",
                        help="skip the simulation (bounds and times only)")
    parser.add_argument("--csv", default=None, help="also write the rows to a CSV file")
    parser.add_argument("--workers", type=int, default=None,
                        help="run the analyses through the service scheduler "
                             "with this many worker processes (0 = inline)")
    args = parser.parse_args(argv)

    runs = args.runs
    if args.quick and runs is None:
        runs = 50
    rows = run_table1(group=args.group, names=args.names, runs=runs,
                      simulate=not args.no_simulation, workers=args.workers)
    print(render_rows(rows))
    failures = [row.name for row in rows if not row.success]
    if failures:
        print(f"\nbenchmarks without a bound: {failures}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(TABLE_HEADERS,
                                     [row.as_table_row() for row in rows]))
        print(f"\nwrote {args.csv}")
    from repro.exitcodes import exit_code_for_statuses

    return exit_code_for_statuses(row.status for row in rows)


if __name__ == "__main__":
    raise SystemExit(main())
