"""Command-line front end (the Python counterpart of the ``absynth`` binary).

Usage::

    absynth-py analyze program.imp [--degree 2] [--counter cost] [--certificate]
    absynth-py simulate program.imp --input x=100 n=500 [--runs 1000]
    absynth-py sample program.imp|benchmark --input x=100 [--engine vec] [--runs 10000]
    absynth-py figures [--figure 8|appendix] [--engine vec] [--runs N]
    absynth-py bench [--group linear|polynomial|all] [--quick] [--workers N]
    absynth-py batch DIR|FILE|@group|name... [--workers N] [--cache-dir DIR]
    absynth-py serve [--workers N] [--cache-dir DIR]
    absynth-py serve --async [--port P] [--queue-limit N] [--hot-cache-size N]
    absynth-py store stats [--cache-dir DIR] [--json]
    absynth-py store prune [--max-age AGE] [--max-bytes SIZE]
    absynth-py lint program.imp|@all|name... [--strict] [--json]
    absynth-py list [--lint]

``analyze`` parses a program in the concrete syntax (see
:mod:`repro.lang.parser`), runs the expected-cost analysis and prints the
bound; ``simulate`` estimates the expected cost by sampling; ``sample`` is
the batch-scale sampling surface (scalar or vectorised engine, registry
benchmarks accepted by name, unfinished-run accounting); ``figures``
regenerates the Figure 8 / Appendix F data series; ``bench`` regenerates
Table 1; ``batch`` fans a set of programs out over the
:mod:`repro.service` scheduler with the persistent result cache; ``serve``
runs the line-oriented JSON analysis service on stdin/stdout, or -- with
``--async`` -- the concurrent TCP gateway (request coalescing, tiered
cache, backpressure; see :mod:`repro.service.gateway`); ``store`` inspects
and prunes the shared on-disk result cache.

Exit codes are distinct per failure class so scripts can tell them apart:
``0`` success, ``2`` parse error, ``3`` no bound found (the LP is
infeasible for every attempted degree), ``4`` the analysis could not be set
up (lowering/derivation failure), ``5`` certificate validation failed,
``6`` a service could not start (gateway address already in use), ``7``
lint diagnostics at the failing severity (errors, plus warnings under
``lint --strict``), and ``1`` for anything else (timeouts, cancelled jobs,
internal errors).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.bench.registry import benchmark_names
from repro.core.analyzer import analyze_program
from repro.logic.entailment import available_domains
from repro.core.certificates import check_certificate
from repro.exitcodes import (EXIT_ANALYSIS_ERROR, EXIT_CERTIFICATE_ERROR,
                             EXIT_FAILURE, EXIT_NO_BOUND, EXIT_OK,
                             EXIT_PARSE_ERROR, STATUS_EXIT,
                             exit_code_for_statuses)
from repro.lang.errors import ParseError
from repro.lang.parser import parse_program
from repro.semantics.sampler import estimate_expected_cost


def _parse_assignments(pairs: Sequence[str]) -> Dict[str, int]:
    state: Dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"invalid input assignment {pair!r}; expected name=value")
        name, _, value = pair.partition("=")
        state[name.strip()] = int(value)
    return state


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        program = _load_program(args.program)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    options = {"max_degree": args.degree, "auto_degree": not args.no_auto_degree,
               "domain": args.domain}
    if args.counter:
        options["resource_counter"] = args.counter
    if args.degree_limit is not None:
        options["degree_limit"] = args.degree_limit
    result = analyze_program(program, **options)
    if not result.success:
        print(f"no bound found: {result.message}")
        return STATUS_EXIT.get(result.failure_kind or "analysis-error",
                               EXIT_FAILURE)
    print(f"expected cost bound: {result.bound}")
    attempted = result.stats.attempted_degrees if result.stats else [result.degree]
    print(f"degree: {result.degree} (attempted {attempted})   "
          f"time: {result.time_seconds:.3f}s attempt / "
          f"{result.total_seconds:.3f}s total   "
          f"LP size: {result.lp_variables} variables / {result.lp_constraints} constraints")
    if args.certificate:
        problems = check_certificate(result.certificate)
        if problems:
            print("certificate check FAILED:")
            for problem in problems[:10]:
                print(f"  - {problem}")
            return EXIT_CERTIFICATE_ERROR
        print(f"certificate check passed "
              f"({len(result.certificate.points)} annotated program points, "
              f"{len(result.certificate.weakenings)} weakenings)")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        program = _load_program(args.program)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    state = _parse_assignments(args.input or [])
    from repro.semantics.vexec import VectorisationError, VexecRangeError

    try:
        stats = estimate_expected_cost(
            program, state, runs=args.runs, seed=args.seed,
            engine=getattr(args, "engine", "scalar"))
    except (VectorisationError, VexecRangeError) as exc:
        print(f"vectorised engine cannot run {args.program}: {exc} "
              f"(use --engine scalar or auto)", file=sys.stderr)
        return EXIT_FAILURE
    _print_statistics(stats)
    return EXIT_OK


def _print_statistics(stats) -> None:
    print(f"runs: {stats.runs}   mean cost: {stats.mean:.3f}   std: {stats.std:.3f}")
    print(f"min/q1/median/q3/max: {stats.minimum:.1f} / {stats.first_quartile:.1f} / "
          f"{stats.median:.1f} / {stats.third_quartile:.1f} / {stats.maximum:.1f}")
    if stats.unfinished_runs:
        print(f"unfinished runs (step budget exceeded): {stats.unfinished_runs}")


def _resolve_sample_target(target: str):
    """A program path or a registry benchmark name -> (program, label).

    Benchmarks resolve to their *simulation* variant, whose tick count
    measures the analysed resource.
    """
    if os.path.isfile(target):
        return _load_program(target), target
    from repro.bench.registry import get_benchmark

    try:
        benchmark = get_benchmark(target)
    except KeyError:
        raise SystemExit(
            f"{target!r} is neither a program file nor a known benchmark "
            f"(see 'absynth-py list')")
    return benchmark.build_for_simulation(), benchmark.name


def _cmd_sample(args: argparse.Namespace) -> int:
    from repro.semantics.vexec import VectorisationError, VexecRangeError

    try:
        program, label = _resolve_sample_target(args.program)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    state = _parse_assignments(args.input or [])
    try:
        stats = estimate_expected_cost(
            program, state, runs=args.runs, seed=args.seed,
            max_steps=args.max_steps, engine=args.engine,
            batch_size=args.batch_size)
    except (VectorisationError, VexecRangeError) as exc:
        print(f"vectorised engine cannot run {label}: {exc} "
              f"(use --engine scalar or auto)", file=sys.stderr)
        return EXIT_FAILURE
    fallback = " (fallback from auto)" \
        if args.engine == "auto" and stats.engine == "scalar" else ""
    print(f"{label}: engine={stats.engine}{fallback}")
    if stats.fallback_reason:
        print(f"  fallback reason: {stats.fallback_reason}")
    _print_statistics(stats)
    return EXIT_OK


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import figures

    forwarded: List[str] = ["--figure", args.figure, "--engine", args.engine,
                            "--seed", str(args.seed)]
    if args.runs is not None:
        forwarded.extend(["--runs", str(args.runs)])
    if args.names:
        forwarded.extend(["--names", *args.names])
    return figures.main(forwarded)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import table1

    forwarded: List[str] = ["--group", args.group]
    if args.quick:
        forwarded.append("--quick")
    if args.no_simulation:
        forwarded.append("--no-simulation")
    if args.names:
        forwarded.extend(["--names", *args.names])
    if args.workers is not None:
        forwarded.extend(["--workers", str(args.workers)])
    if args.domain is not None:
        forwarded.extend(["--domain", args.domain])
    return table1.main(forwarded)


def _lint_text(source: str, counter: Optional[str] = None,
               main: Optional[str] = None):
    """Lint one source text, seeding the resource counter as initialized.

    The counter variable (``analyzer_options['resource_counter']`` for
    registry benchmarks, ``--counter`` for files) is zero-initialized by
    convention, so ``cost = cost + s`` must not read as uninitialized.
    """
    from repro.lang.analysis import lint_source

    initial = None
    if counter:
        try:
            program = parse_program(source, main=main)
            initial = set(program.main_procedure.params) | {counter}
        except ParseError:
            initial = None   # lint_source will report the R001 itself
    return lint_source(source, main=main, initial_state=initial)


def _collect_lint_targets(targets: Sequence[str],
                          counter: Optional[str] = None):
    """Resolve lint targets to ``(name, source, resource_counter)`` triples.

    Accepts the same shapes as ``batch``: directories of ``.imp`` files,
    single files, and registry selectors (``@all``, names, globs).
    Registry benchmarks lint the same printed source text the service
    layer hashes, with their own ``resource_counter`` option.
    """
    from repro.bench.registry import select_benchmarks

    triples = []
    registry_selectors: List[str] = []
    for target in targets:
        if os.path.isdir(target):
            entries = sorted(entry for entry in os.listdir(target)
                             if entry.endswith(".imp"))
            if not entries:
                raise SystemExit(f"no .imp programs under {target!r}")
            for entry in entries:
                path = os.path.join(target, entry)
                with open(path, "r", encoding="utf-8") as handle:
                    triples.append((path, handle.read(), counter))
        elif os.path.isfile(target):
            with open(target, "r", encoding="utf-8") as handle:
                triples.append((target, handle.read(), counter))
        else:
            registry_selectors.append(target)
    if registry_selectors:
        try:
            benchmarks = select_benchmarks(registry_selectors)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0] if exc.args else exc))
        for benchmark in benchmarks:
            bench_counter = benchmark.analyzer_options.get("resource_counter")
            triples.append((benchmark.name, benchmark.source_text(),
                            bench_counter))
    return triples


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lang.analysis import severity_counts

    triples = _collect_lint_targets(args.targets, counter=args.counter)
    if not triples:
        raise SystemExit("nothing to lint")
    statuses: List[str] = []
    reports: List[Dict[str, object]] = []
    for name, source, counter in triples:
        diagnostics = _lint_text(source, counter=counter)
        counts = severity_counts(diagnostics)
        if any(diag.code == "R001" for diag in diagnostics):
            status = "parse-error"
        elif counts["error"]:
            status = "lint-error"
        elif args.strict and counts["warning"]:
            status = "lint-error"
        else:
            status = "ok"
        statuses.append(status)
        if args.json:
            reports.append({
                "name": name,
                "status": status,
                "counts": counts,
                "diagnostics": [diag.to_dict() for diag in diagnostics],
            })
            continue
        if not diagnostics:
            if not args.quiet:
                print(f"{name}: clean")
            continue
        print(f"{name}: {counts['error']} errors, "
              f"{counts['warning']} warnings, {counts['info']} info")
        for diag in diagnostics:
            print(f"  {diag.format()}")
    if args.json:
        json.dump({"schema": 1, "strict": bool(args.strict),
                   "targets": reports}, sys.stdout, indent=1, sort_keys=True)
        print()
    return exit_code_for_statuses(statuses)


def _cmd_list(args: argparse.Namespace) -> int:
    # Stable, plainly sorted output so scripts can diff/bisect the listing.
    names = sorted(benchmark_names())
    if not getattr(args, "lint", False):
        for name in names:
            print(name)
        return EXIT_OK
    from repro.bench.registry import get_benchmark
    from repro.lang.analysis import severity_counts

    for name in names:
        benchmark = get_benchmark(name)
        diagnostics = _lint_text(
            benchmark.source_text(),
            counter=benchmark.analyzer_options.get("resource_counter"))
        if not diagnostics:
            summary = "clean"
        else:
            counts = severity_counts(diagnostics)
            summary = " ".join(f"{severity}:{count}"
                               for severity, count in counts.items() if count)
        print(f"{name}\t{summary}")
    return EXIT_OK


# -- repro.service front ends -------------------------------------------------

def _make_store(args: argparse.Namespace):
    from repro.service.store import ResultStore

    if getattr(args, "no_cache", False):
        return None
    return ResultStore(args.cache_dir)


def _collect_batch_jobs(targets: Sequence[str],
                        extra_options: Optional[Dict[str, object]] = None):
    """Resolve batch targets (directories, files, registry selectors) to jobs.

    ``extra_options`` (e.g. ``--degree-limit``) are merged over each job's
    own analyzer options; they participate in the job hash, so cached
    results never alias across different option values.
    """
    from repro.bench.registry import select_benchmarks
    from repro.service.jobs import AnalysisJob, job_from_benchmark, job_from_file

    jobs = []
    registry_selectors: List[str] = []
    for target in targets:
        if os.path.isdir(target):
            entries = sorted(entry for entry in os.listdir(target)
                             if entry.endswith(".imp"))
            if not entries:
                raise SystemExit(f"no .imp programs under {target!r}")
            for entry in entries:
                path = os.path.join(target, entry)
                jobs.append(job_from_file(path, name=os.path.splitext(entry)[0]))
        elif os.path.isfile(target):
            name = os.path.splitext(os.path.basename(target))[0]
            jobs.append(job_from_file(target, name=name))
        else:
            registry_selectors.append(target)
    if registry_selectors:
        try:
            benchmarks = select_benchmarks(registry_selectors)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0] if exc.args else exc))
        jobs.extend(job_from_benchmark(benchmark) for benchmark in benchmarks)
    if extra_options:
        try:
            jobs = [AnalysisJob.create(job.name, job.source,
                                       {**job.options_dict, **extra_options})
                    for job in jobs]
        except ValueError as exc:
            raise SystemExit(f"bad batch options: {exc}")
    return jobs


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.bench.reporting import render_table
    from repro.service.retry import RetryPolicy
    from repro.service.scheduler import SchedulerConfig, run_batch

    extra_options: Dict[str, object] = {}
    if args.degree_limit is not None:
        extra_options["degree_limit"] = args.degree_limit
    if args.domain is not None:
        # Part of every job's content hash: results computed under one
        # abstract domain are never served to the other.
        extra_options["domain"] = args.domain
    jobs = _collect_batch_jobs(args.targets, extra_options)
    if not jobs:
        raise SystemExit("nothing to analyze")
    store = _make_store(args)
    retry = None
    if args.retry_budget is not None:
        retry = RetryPolicy(budget=args.retry_budget)
    report = run_batch(jobs, SchedulerConfig(
        workers=args.workers, timeout=args.timeout, store=store,
        refresh=args.refresh, retry=retry, degrade=not args.no_degrade))

    rows = []
    for outcome in report.outcomes:
        result = outcome.result
        rows.append((result.name, result.status,
                     result.bound_pretty or f"<{result.message[:40]}>",
                     f"{result.wall_seconds:.3f}",
                     "store" if outcome.cached else "computed"))
    if not args.quiet:
        print(render_table(("program", "status", "bound", "time(s)", "from"),
                           rows, title=f"batch: {len(jobs)} jobs, "
                                       f"{args.workers} workers"))
        print(f"\nwall {report.wall_seconds:.2f}s; {report.executed} executed, "
              f"{report.cache_hits} served from store "
              f"({report.cache_hit_rate():.0%} hit rate)")
        if report.retries or report.degraded or report.fault_events:
            print(f"supervision: {report.retries} retries, "
                  f"{len(report.degraded)} degraded results, "
                  f"{report.fault_events} fault events recorded")
        if store is not None:
            quarantined = store.stats.quarantined
            note = f", {quarantined} corrupt records quarantined" \
                if quarantined else ""
            print(f"cache: {store.root} "
                  f"({store.stats.writes} records written{note})")
    if args.json:
        payload = {
            "wall_seconds": report.wall_seconds,
            "workers": report.workers,
            "cache_hits": report.cache_hits,
            "results": [outcome.result.to_record()
                        for outcome in report.outcomes],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        if not args.quiet:
            print(f"wrote {args.json}")
    return exit_code_for_statuses(result.status for result in report.results)


def _cmd_serve(args: argparse.Namespace) -> int:
    default_options: Dict[str, object] = {}
    if args.degree_limit is not None:
        default_options["degree_limit"] = args.degree_limit
    if args.domain is not None:
        default_options["domain"] = args.domain
    if args.async_gateway:
        from repro.service import gateway
        from repro.service.retry import RetryPolicy

        retry = None
        if args.retry_budget is not None:
            retry = RetryPolicy(budget=args.retry_budget)
        return gateway.run_gateway(
            store=_make_store(args), workers=args.workers,
            host=args.host if args.host is not None else gateway.DEFAULT_HOST,
            port=args.port if args.port is not None else gateway.DEFAULT_PORT,
            queue_limit=(args.queue_limit if args.queue_limit is not None
                         else gateway.DEFAULT_QUEUE_LIMIT),
            hot_cache_size=(args.hot_cache_size
                            if args.hot_cache_size is not None
                            else gateway.DEFAULT_HOT_CACHE_SIZE),
            default_options=default_options,
            timeout=args.timeout, retry=retry)
    from repro.service.server import serve_stdio

    return serve_stdio(store=_make_store(args), workers=args.workers,
                       default_options=default_options)


def _parse_age(text: str) -> float:
    """A human age -- ``90``, ``45s``, ``30m``, ``12h``, ``7d`` -- in seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    text = text.strip().lower()
    scale = units.get(text[-1:], None)
    digits = text[:-1] if scale is not None else text
    try:
        value = float(digits)
    except ValueError:
        raise SystemExit(f"invalid age {text!r}; expected e.g. 90, 30m, "
                         f"12h or 7d")
    return value * (scale if scale is not None else 1.0)


def _parse_size(text: str) -> int:
    """A human size -- ``4096``, ``64K``, ``100M``, ``2G`` -- in bytes."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = text.strip().lower()
    scale = units.get(text[-1:], None)
    digits = text[:-1] if scale is not None else text
    try:
        value = float(digits)
    except ValueError:
        raise SystemExit(f"invalid size {text!r}; expected e.g. 4096, "
                         f"64K, 100M or 2G")
    return int(value * (scale if scale is not None else 1))


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.service.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.store_command == "stats":
        payload = store.disk_stats()
        if args.json:
            json.dump(payload, sys.stdout, indent=1, sort_keys=True)
            print()
            return EXIT_OK
        print(f"store root: {payload['root']}")
        print(f"records: {payload['entries']} "
              f"({payload['total_bytes']} bytes)")
        print(f"quarantined: {payload['quarantine_records']} "
              f"({payload['quarantine_bytes']} bytes)")
        if payload["entries"]:
            print(f"record age: {payload['newest_age_seconds']:.0f}s newest, "
                  f"{payload['oldest_age_seconds']:.0f}s oldest")
        session = payload["session"]
        total = session["hits"] + session["misses"]
        if total:
            print(f"this session: {session['hits']}/{total} hits "
                  f"({session['hits'] / total:.0%})")
        return EXIT_OK
    # prune
    if args.max_age is None and args.max_bytes is None:
        raise SystemExit("prune needs --max-age and/or --max-bytes "
                         "(nothing to evict by)")
    max_age = _parse_age(args.max_age) if args.max_age is not None else None
    max_bytes = _parse_size(args.max_bytes) \
        if args.max_bytes is not None else None
    report = store.prune(max_age_seconds=max_age, max_total_bytes=max_bytes)
    print(f"pruned {report.removed} records ({report.bytes_freed} bytes), "
          f"{report.kept} kept")
    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absynth-py",
        description="Expected-cost bound analysis for probabilistic programs "
                    "(reproduction of PLDI 2018 'Bounded Expectations').")
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="infer an expected-cost bound")
    analyze.add_argument("program", help="path to a program in the concrete syntax")
    analyze.add_argument("--degree", type=int, default=1, help="maximal bound degree")
    analyze.add_argument("--no-auto-degree", action="store_true",
                         help="do not retry with a higher degree on failure")
    analyze.add_argument("--degree-limit", type=int, default=None,
                         help="highest degree the automatic retry may "
                              "escalate to (default: 2)")
    analyze.add_argument("--counter", default=None,
                         help="treat this global variable as the resource counter")
    analyze.add_argument("--certificate", action="store_true",
                         help="re-check the derivation certificate")
    analyze.add_argument("--domain", choices=available_domains(), default=None,
                         help="abstract-domain backend for entailment "
                              "queries (default: $REPRO_DOMAIN or fm)")
    analyze.set_defaults(func=_cmd_analyze)

    simulate = subparsers.add_parser("simulate", help="estimate the expected cost by sampling")
    simulate.add_argument("program")
    simulate.add_argument("--input", nargs="*", default=[], help="initial values, e.g. x=10 n=100")
    simulate.add_argument("--runs", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--engine", choices=("scalar", "vec", "auto"),
                          default="scalar",
                          help="sampler engine (default: scalar oracle)")
    simulate.set_defaults(func=_cmd_simulate)

    sample = subparsers.add_parser(
        "sample", help="batch-scale sampling (vectorised engine, benchmarks "
                       "by name, unfinished-run accounting)")
    sample.add_argument("program",
                        help="path to a program file, or the name of a "
                             "registry benchmark (sampled in its simulation "
                             "variant)")
    sample.add_argument("--input", nargs="*", default=[],
                        help="initial values, e.g. x=10 n=100")
    sample.add_argument("--runs", type=int, default=10_000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--max-steps", type=int, default=1_000_000,
                        help="per-run step budget")
    sample.add_argument("--batch-size", type=int, default=None,
                        help="lanes executed at once by the vectorised "
                             "engine (bounds peak memory; results are "
                             "identical for every split)")
    sample.add_argument("--engine", choices=("scalar", "vec", "auto"),
                        default="auto",
                        help="sampler engine (default: auto = vectorised "
                             "with scalar fallback)")
    sample.set_defaults(func=_cmd_sample)

    figures = subparsers.add_parser(
        "figures", help="regenerate the Figure 8 / Appendix F data series")
    figures.add_argument("--figure", choices=("8", "appendix"), default="8")
    figures.add_argument("--names", nargs="*", default=None)
    figures.add_argument("--runs", type=int, default=None)
    figures.add_argument("--seed", type=int, default=0)
    figures.add_argument("--engine", choices=("scalar", "vec", "auto"),
                         default="auto",
                         help="sampler engine (default: auto)")
    figures.set_defaults(func=_cmd_figures)

    bench = subparsers.add_parser("bench", help="regenerate Table 1")
    bench.add_argument("--group", choices=("all", "linear", "polynomial"), default="all")
    bench.add_argument("--names", nargs="*", default=None)
    bench.add_argument("--quick", action="store_true")
    bench.add_argument("--no-simulation", action="store_true")
    bench.add_argument("--workers", type=int, default=None,
                       help="analyze benchmarks through the service scheduler "
                            "with this many worker processes (0 = inline)")
    bench.add_argument("--domain", choices=available_domains(), default=None,
                       help="abstract-domain backend for the analyses "
                            "(default: $REPRO_DOMAIN or fm)")
    bench.set_defaults(func=_cmd_bench)

    batch = subparsers.add_parser(
        "batch", help="analyze many programs through the scheduler + cache")
    batch.add_argument("targets", nargs="+",
                       help="directories of .imp files, single files, or "
                            "registry selectors (@all, @linear, @polynomial, "
                            "names, globs)")
    batch.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = inline, default)")
    batch.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds "
                            "(requires --workers >= 1)")
    batch.add_argument("--cache-dir", default=None,
                       help="persistent result cache directory "
                            "(default: $REPRO_CACHE_DIR or .repro-cache)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the persistent result cache")
    batch.add_argument("--refresh", action="store_true",
                       help="re-analyze even on cache hits (results are "
                            "written back)")
    batch.add_argument("--degree-limit", type=int, default=None,
                       help="apply this auto-degree escalation limit to "
                            "every job (part of the cache key)")
    batch.add_argument("--domain", choices=available_domains(), default=None,
                       help="abstract-domain backend for every job (part "
                            "of the cache key; default: $REPRO_DOMAIN or fm)")
    batch.add_argument("--json", default=None,
                       help="also write the full result records to this file")
    batch.add_argument("--quiet", action="store_true")
    batch.add_argument("--no-degrade", action="store_true",
                       help="disable the graceful-degradation ladder "
                            "(domain fallback on resource-limit, one "
                            "lower-degree retry on timeout)")
    batch.add_argument("--retry-budget", type=int, default=None,
                       help="per-batch cap on supervised retries after "
                            "worker-pool breaks (default: 8)")
    batch.set_defaults(func=_cmd_batch, _subparser=batch)

    serve = subparsers.add_parser(
        "serve", help="serve analysis requests as JSON lines on "
                      "stdin/stdout, or over TCP with --async")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes (stdio: for 'batch' requests; "
                            "--async: the supervised analysis pool, "
                            "0 = inline)")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent result cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the persistent result cache")
    serve.add_argument("--degree-limit", type=int, default=None,
                       help="default auto-degree escalation limit for "
                            "requests that do not set one (part of the "
                            "job hash)")
    serve.add_argument("--domain", choices=available_domains(), default=None,
                       help="default abstract-domain backend for requests "
                            "that do not set one (part of the job hash)")
    serve.add_argument("--async", dest="async_gateway", action="store_true",
                       help="run the concurrent TCP gateway (JSON lines, "
                            "request coalescing, tiered cache, "
                            "backpressure) instead of the stdio loop")
    serve.add_argument("--host", default=None,
                       help="gateway bind address (default: 127.0.0.1; "
                            "requires --async)")
    serve.add_argument("--port", type=int, default=None,
                       help="gateway TCP port (default: 9471, 0 = "
                            "ephemeral; requires --async)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="jobs admitted but not yet resolved before "
                            "the gateway answers 'busy' (default: 64; "
                            "requires --async)")
    serve.add_argument("--hot-cache-size", type=int, default=None,
                       help="entries in the in-memory LRU above the disk "
                            "store, 0 disables the hot tier (default: "
                            "256; requires --async)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds "
                            "(requires --async and --workers >= 1)")
    serve.add_argument("--retry-budget", type=int, default=None,
                       help="supervised retry cap after worker-pool "
                            "breaks (requires --async)")
    serve.set_defaults(func=_cmd_serve, _subparser=serve)

    store = subparsers.add_parser(
        "store", help="inspect or prune the shared on-disk result cache")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="record/byte/quarantine counts and hit rates")
    store_prune = store_sub.add_parser(
        "prune", help="evict records by age and/or total-size cap")
    store_prune.add_argument("--max-age", default=None,
                             help="evict records older than this "
                                  "(e.g. 90, 30m, 12h, 7d)")
    store_prune.add_argument("--max-bytes", default=None,
                             help="then evict oldest-first until the "
                                  "store fits this total (e.g. 100M, 2G)")
    for sub in (store_stats, store_prune):
        sub.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
        sub.add_argument("--json", action="store_true",
                         help="emit the report as JSON on stdout")
        sub.set_defaults(func=_cmd_store)

    lint = subparsers.add_parser(
        "lint", help="run the static diagnostics passes (no analysis)")
    lint.add_argument("targets", nargs="+",
                      help="directories of .imp files, single files, or "
                           "registry selectors (@all, names, globs)")
    lint.add_argument("--counter", default=None,
                      help="treat this global variable as the (zero-"
                           "initialized) resource counter in file targets; "
                           "registry benchmarks use their own option")
    lint.add_argument("--strict", action="store_true",
                      help="fail (exit 7) on warnings too, not just errors")
    lint.add_argument("--json", action="store_true",
                      help="emit one JSON report on stdout instead of text")
    lint.add_argument("--quiet", action="store_true",
                      help="do not print a line for clean targets")
    lint.set_defaults(func=_cmd_lint)

    listing = subparsers.add_parser("list", help="list the benchmark programs")
    listing.add_argument("--lint", action="store_true",
                         help="add a lint-summary column (clean, or "
                              "severity:count pairs)")
    listing.set_defaults(func=_cmd_list)
    return parser


def _validate_args(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> None:
    """Cross-argument checks, reported as argparse usage errors (exit 2).

    ``--timeout`` needs a preemptable worker pool; catching the combination
    here (instead of deep inside ``run_batch``) gives the user the standard
    usage + message on stderr and the conventional exit code 2.
    """
    subparser = getattr(args, "_subparser", parser)
    if getattr(args, "timeout", None) is not None \
            and getattr(args, "workers", 1) < 1:
        subparser.error("--timeout requires --workers >= 1 (inline "
                        "execution cannot preempt a running job)")
    if args.command == "serve" and not args.async_gateway:
        for flag, name in ((args.host, "--host"), (args.port, "--port"),
                           (args.queue_limit, "--queue-limit"),
                           (args.hot_cache_size, "--hot-cache-size"),
                           (args.timeout, "--timeout"),
                           (args.retry_budget, "--retry-budget")):
            if flag is not None:
                subparser.error(f"{name} requires --async (the stdio loop "
                                f"has no gateway)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
