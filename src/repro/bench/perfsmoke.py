"""Perf smoke runner: a fast, scriptable performance trajectory.

Times the analyzer over the Table 1 benchmark suite (linear by default) and
records, per program, the wall time together with the entailment-engine
counters (Fourier-Motzkin query count, cache hit rate).  The result is
written as JSON (``BENCH_entailment.json`` by default) so future PRs can
compare against a committed baseline::

    python -m repro.bench.perfsmoke
    python -m repro.bench.perfsmoke --group polynomial --output /tmp/bench.json
    python -m repro.bench.perfsmoke --programs 'C4B_*' rdwalk
    python -m repro.bench.perfsmoke --workers 4          # + parallel pass
    python -m repro.bench.perfsmoke --group all --escalation   # from degree 1
    python -m repro.bench.perfsmoke --sampler          # sampler throughput
    python -m repro.bench.perfsmoke --chaos            # fault-recovery gate
    python -m repro.bench.perfsmoke --serve            # gateway load bench
    python -m repro.bench.perfsmoke --lint             # diagnostics sweep
    python -m repro.bench.perfsmoke --check BENCH_entailment.json
    python benchmarks/perf_smoke.py            # same entry point

The sequential pass always runs (its per-program times are what ``--check``
compares against the committed baseline).  With ``--workers N > 1`` the
suite is then re-run through the :mod:`repro.service` scheduler and the
parallel wall clock is recorded as ``suite_wall_parallel`` next to the
sequential ``total_wall_seconds``, giving the speedup in one file.

``--check <baseline.json>`` exits non-zero when any program regressed by
more than 25% (and more than an absolute noise floor) against the baseline
on its wall, derive or solve time, or with ``--escalation`` on its wall
escalating from degree 1, which makes the runner usable as a CI gate.

Every run gates the interval pre-filter tier (:mod:`repro.logic.intervals`)
on the sequential pass's own counters: the tier must decide at least
``PREFILTER_MIN_HIT_RATE`` of the queries that reach it (the would-be
exact-backend queries), recorded as ``entailment_cache.interval_hit_rate``.
The gate is skipped when the tier is off (``$REPRO_PREFILTER=off``, the
test-oracle switch) or no query reached it (a warm process).

``--sampler`` adds a sampler-throughput section: the rdwalk n=100 cost
histogram (Figure 8 left, paper-scale run count) is sampled through both
the scalar closure interpreter and the vectorised batch executor
(:mod:`repro.semantics.vexec`); the pass asserts both engines agree within
sampling error and fails when the vectorised speedup drops below
``--sampler-min-speedup`` (default 5x).

``--chaos`` adds a fault-recovery section: the suite is run fault-free
through the service scheduler into a temporary result store, then re-run
with deterministic fault injection active (worker crashes at p=0.2 on
first attempts, store records corrupted at p=0.5 on read).  The pass is
the acceptance gate for the supervised scheduler: it fails unless the
chaotic batch loses zero jobs, reproduces the fault-free bounds
byte-for-byte, and records every recovery in ``JobResult.fault_events``.
The recovery overhead lands in the report's ``chaos`` section.

``--serve`` adds a gateway load bench: an in-process analysis gateway
(:mod:`repro.service.gateway`) is booted on an ephemeral port and driven
by concurrent client connections through cold, hot (cache-served) and
duplicate-storm phases.  Requests/sec, p50/p99 latency, coalesce hits and
the LRU hit rate land in the report's ``serve`` section; the pass fails
unless every request got exactly one response, the storm cost exactly one
underlying analysis and every storm client saw a byte-identical result.
With ``--check``, hot-tier throughput is additionally gated against the
baseline's.

``--lint`` adds a static-diagnostics sweep: every selected benchmark is
linted through :func:`repro.lang.analysis.lint_program` exactly the way
the analyzer's pre-flight gate does it (main parameters plus the declared
resource counter seed the definite-initialization pass).  The sweep wall
and its ratio against the sequential analysis wall land in the report's
``lint`` section; the pass fails outright on any error-severity
diagnostic, and with ``--check`` the overhead ratio is additionally
capped at ``LINT_MAX_OVERHEAD`` (the observe-only pre-flight must stay
effectively free).

See PERFORMANCE.md for how to read the output.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

# Importing the LP stack (scipy, ~0.7 s) here keeps that one-time cost out
# of the first program's timed wall.
import repro.core.solver  # noqa: F401
from repro.bench.registry import select_benchmarks
from repro.bench.reporting import render_table
from repro.core.analyzer import analyze_program
from repro.logic.entailment import active_prefilter, get_engine

#: Default output path (repo root when invoked from a checkout).
DEFAULT_OUTPUT = "BENCH_entailment.json"

#: Regression gate: flag programs that got this much slower than baseline...
REGRESSION_THRESHOLD = 0.25
#: ...but only when the absolute slowdown also clears this noise floor.
REGRESSION_FLOOR_SECONDS = 0.05

#: Sampler throughput gate: the vectorised executor must beat the scalar
#: closure interpreter by at least this factor on the Figure 8 histogram
#: workload (rdwalk, n=100).  Measured ~20x on the CI container; 5x keeps
#: the gate meaningful without flaking on slow runners.
SAMPLER_MIN_SPEEDUP = 5.0

#: The Figure 8 histogram run count (paper scale).
SAMPLER_RUNS = 10_000

#: Interval pre-filter gate: on the sequential pass, the interval tier
#: (:mod:`repro.logic.intervals`) must decide at least this fraction of the
#: queries that fall through the memo and syntactic tiers -- i.e. of the
#: queries that would otherwise hit the exact backend.  Measured well above
#: this on the Table 1 suite; the floor keeps the tier honest without
#: flaking on suite composition changes.
PREFILTER_MIN_HIT_RATE = 0.5

#: Pre-flight lint gate: with ``--check``, the full static-diagnostics
#: sweep over the suite must cost less than this fraction of the cold
#: sequential analysis wall.  The analyzer's observe-only pre-flight runs
#: these passes on every gated analysis, so they must stay ~free.
LINT_MAX_OVERHEAD = 0.05

_GROUPS = ("all", "linear", "polynomial")

#: Chaos-pass fault rates (the acceptance gate's parameters): worker
#: crashes on first attempts, store records corrupted on read.
CHAOS_CRASH_PROBABILITY = 0.2
CHAOS_CORRUPT_PROBABILITY = 0.5

#: Serve-pass load shape: concurrent client connections driving the
#: gateway, repeat rounds of the suite for the hot-tier phase, and the
#: width of the duplicate storm (the coalescing acceptance gate).
SERVE_CLIENTS = 8
SERVE_HOT_ROUNDS = 3
SERVE_STORM_CLIENTS = 32


def _select(group: str, programs: Optional[Sequence[str]],
            limit: Optional[int]):
    benchmarks = select_benchmarks(programs if programs else [f"@{group}"])
    if limit is not None:
        benchmarks = benchmarks[:max(0, limit)]
    return benchmarks


def run_suite(group: str = "linear",
              limit: Optional[int] = None,
              programs: Optional[Sequence[str]] = None,
              workers: int = 1,
              escalation: bool = False,
              sampler: bool = False,
              sampler_runs: int = SAMPLER_RUNS,
              chaos: bool = False,
              serve: bool = False,
              lint: bool = False) -> Dict[str, object]:
    """Analyze every selected benchmark; return the report dict.

    The sequential pass produces the per-program numbers; with
    ``workers > 1`` an additional parallel pass through the service
    scheduler measures ``suite_wall_parallel``.  With ``escalation=True``
    every degree->=2 benchmark is additionally run in degree-escalation
    mode (start at degree 1, retry at the target degree), timing the
    escalated wall and asserting that escalated bounds are identical to
    the cold run's.
    """
    engine = get_engine()
    benchmarks = _select(group, programs, limit)
    rows: List[Dict[str, object]] = []
    suite_before = engine.stats.snapshot()
    evictions_before = engine.evictions
    suite_start = time.perf_counter()
    for bench in benchmarks:
        program = bench.build()
        before = engine.stats.snapshot()
        # Earlier programs' survivors (intern tables, engine memos) leave
        # the collector's reach.  Otherwise a full collection scans the
        # whole suite's heap, and its pause, which grows with the suite,
        # lands on whichever program's allocations trigger it (that
        # varies with the hash seed): 50 ms on a 40 ms program.
        gc.freeze()
        start = time.perf_counter()
        result = analyze_program(program, **bench.analyzer_options)
        wall = time.perf_counter() - start
        delta = engine.stats.delta(before)
        answered = (delta["memo_hits"] + delta["fast_hits"]
                    + delta["interval_hits"])
        stats = result.stats
        rows.append({
            "name": bench.name,
            "wall_seconds": round(wall, 4),
            "success": result.success,
            "degree": result.degree,
            "bound": result.bound.pretty() if result.bound else None,
            "attempted_degrees": list(stats.attempted_degrees) if stats else None,
            "prepare_seconds": round(stats.prepare_seconds, 4) if stats else None,
            "build_seconds": round(stats.build_seconds_total(), 4) if stats else None,
            "solve_seconds": round(stats.solve_seconds_total(), 4) if stats else None,
            "lp_variables": result.lp_variables,
            "lp_constraints": result.lp_constraints,
            "certificate_multipliers": sum(
                len(evidence.combination)
                for evidence in result.certificate.weakenings)
            if result.certificate else None,
            "lp_solves": stats.cold_solves if stats else None,
            "skipped_solves": stats.skipped_solves if stats else None,
            "fm_queries": delta["queries"],
            "fm_eliminations": delta["eliminations"],
            "cache_memo_hits": delta["memo_hits"],
            "cache_fast_hits": delta["fast_hits"],
            "cache_interval_hits": delta["interval_hits"],
            "cache_hit_rate": round(answered / delta["queries"], 4)
                              if delta["queries"] else None,
        })
    total_wall = time.perf_counter() - suite_start
    gc.unfreeze()
    # Report the delta over this suite only, so the JSON is comparable to
    # the committed baseline even from a warm or multi-suite process.
    suite_stats = engine.stats.delta(suite_before)
    answered = (suite_stats["memo_hits"] + suite_stats["fast_hits"]
                + suite_stats["interval_hits"])
    suite_stats["hit_rate"] = (round(answered / suite_stats["queries"], 4)
                               if suite_stats["queries"] else 0.0)
    reached = suite_stats["interval_hits"] + suite_stats["misses"]
    suite_stats["interval_hit_rate"] = (
        round(suite_stats["interval_hits"] / reached, 4) if reached else 0.0)

    suite_wall_parallel: Optional[float] = None
    parallel_speedup: Optional[float] = None
    if workers > 1:
        suite_wall_parallel = _parallel_pass(benchmarks, rows, workers)
        if suite_wall_parallel > 0:
            parallel_speedup = round(total_wall / suite_wall_parallel, 2)

    escalation_summary: Optional[Dict[str, object]] = None
    if escalation:
        escalation_summary = _escalation_pass(benchmarks, rows)

    sampler_summary: Optional[Dict[str, object]] = None
    if sampler:
        sampler_summary = _sampler_pass(runs=sampler_runs)

    chaos_summary: Optional[Dict[str, object]] = None
    if chaos:
        chaos_summary = _chaos_pass(benchmarks, workers=max(2, workers))

    serve_summary: Optional[Dict[str, object]] = None
    if serve:
        serve_summary = _serve_pass(benchmarks, workers=max(2, workers))

    lint_summary: Optional[Dict[str, object]] = None
    if lint:
        lint_summary = _lint_pass(benchmarks, total_wall)

    return {
        "suite": f"table1-{group}" if not programs \
            else f"table1-custom({','.join(programs)})",
        "generated_by": "python -m repro.bench.perfsmoke",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workers": workers,
        "total_wall_seconds": round(total_wall, 3),
        "suite_wall_parallel": suite_wall_parallel,
        "parallel_speedup": parallel_speedup,
        "escalation": escalation_summary,
        "sampler": sampler_summary,
        "chaos": chaos_summary,
        "serve": serve_summary,
        "lint": lint_summary,
        "programs": rows,
        "entailment_cache": suite_stats,
        "cache_evictions": engine.evictions - evictions_before,
    }


def _parallel_pass(benchmarks, rows: List[Dict[str, object]],
                   workers: int) -> float:
    """Re-run the suite through the scheduler; annotate rows, return wall."""
    from repro.service.jobs import job_from_benchmark
    from repro.service.scheduler import run_jobs

    jobs = [job_from_benchmark(bench) for bench in benchmarks]
    start = time.perf_counter()
    results = run_jobs(jobs, workers=workers)
    wall = round(time.perf_counter() - start, 3)
    for row, result in zip(rows, results):
        row["parallel_wall_seconds"] = result.wall_seconds
        if result.bound_pretty != row["bound"]:
            # Parallel analysis is deterministic; surface any divergence
            # loudly instead of silently publishing mismatched numbers.
            raise AssertionError(
                f"parallel bound mismatch for {row['name']}: "
                f"{result.bound_pretty!r} != {row['bound']!r}")
    return wall


def _escalation_pass(benchmarks, rows: List[Dict[str, object]]
                     ) -> Dict[str, object]:
    """Time every degree->=2 benchmark escalating from degree 1.

    Each such program is analyzed with ``max_degree=1`` and auto-retry up
    to its target degree, as ``repro analyze`` does by default, from a
    fresh engine and cleared rewrite memos: the main pass already analyzed
    the same program, so a warm run would time little but cache hits.
    Programs that already succeed at degree 1 are skipped.  For the rest
    the escalated bound is asserted identical to the sequential pass's
    cold bound, and the row records ``escalated_wall_seconds`` (gated by
    ``--check`` like the other per-program times, see
    :data:`GATED_TIMES`) and ``escalated_lp_solves``.
    """
    from repro.core.rewrite import clear_rewrite_caches
    from repro.logic.entailment import reset_engine

    summary = {"programs": 0, "wall_escalated": 0.0, "cold_solves": 0}
    for bench, row in zip(benchmarks, rows):
        options = bench.analyzer_options
        target = int(options.get("max_degree", 1))
        if target < 2:
            continue
        program = bench.build()
        reset_engine()
        clear_rewrite_caches()
        start = time.perf_counter()
        escalated = analyze_program(program, **{
            **options, "max_degree": 1, "auto_degree": True,
            "degree_limit": target})
        wall = time.perf_counter() - start
        if escalated.degree < target:
            continue  # degree 1 already succeeds: no escalation to measure
        bound = escalated.bound.pretty() if escalated.bound else None
        if bound != row["bound"]:
            # Escalating and cold runs build the same degree-``target``
            # system; any divergence is a bug worth failing loudly.
            raise AssertionError(
                f"escalated bound mismatch for {bench.name}: "
                f"{bound!r} != {row['bound']!r}")
        solves = escalated.stats.cold_solves if escalated.stats else 0
        row["escalated_wall_seconds"] = round(wall, 4)
        row["escalated_lp_solves"] = solves
        summary["programs"] += 1
        summary["wall_escalated"] += wall
        summary["cold_solves"] += solves
    summary["wall_escalated"] = round(summary["wall_escalated"], 3)
    return summary


def _chaos_pass(benchmarks, workers: int = 2,
                crash_probability: float = CHAOS_CRASH_PROBABILITY,
                corrupt_probability: float = CHAOS_CORRUPT_PROBABILITY,
                seed: int = 0) -> Dict[str, object]:
    """The fault-recovery acceptance gate, measured.

    Phase 1 runs the suite fault-free through the scheduler into a
    temporary store.  Phase 2 re-runs the same batch with the deterministic
    fault registry active: every store read corrupts its record at
    ``corrupt_probability`` (exercising quarantine + recompute) and every
    recomputed job's *first* pool attempt crashes its worker at
    ``crash_probability`` (exercising pool rebuild, claim-file attribution
    and supervised retry).  Crashes are pinned to first attempts
    (``match=":1"``) so retries are always clean: the recovered outcome is
    then independent of which jobs happened to share the pool when it
    broke, and the byte-identity assertion below is deterministic.

    Raises ``AssertionError`` unless the chaotic batch loses zero jobs,
    reproduces the fault-free statuses and bounds exactly, and records
    every crash recovery in ``fault_events``.
    """
    import multiprocessing
    import shutil
    import tempfile

    from repro.service import faults
    from repro.service.faults import FaultSpec
    from repro.service.jobs import job_from_benchmark
    from repro.service.retry import RetryPolicy
    from repro.service.scheduler import SchedulerConfig, run_batch
    from repro.service.store import ResultStore

    if "fork" not in multiprocessing.get_all_start_methods():
        # Under spawn the workers re-import the faults module and would not
        # see a registry configured programmatically in this process.
        return {"skipped": "needs the fork start method (pool workers "
                           "inherit the fault registry at fork time)"}

    jobs = [job_from_benchmark(bench) for bench in benchmarks]
    root = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        store = ResultStore(root)
        start = time.perf_counter()
        baseline = run_batch(jobs, SchedulerConfig(workers=workers,
                                                   store=store))
        wall_fault_free = round(time.perf_counter() - start, 3)

        faults.configure([
            FaultSpec("worker-crash", probability=crash_probability,
                      match=":1"),
            FaultSpec("store-corrupt", probability=corrupt_probability),
        ], seed=seed)
        try:
            start = time.perf_counter()
            # The per-batch retry budget is sized for isolated failures;
            # a batch where a fifth of all first attempts die needs room
            # for every one of them (plus co-in-flight collateral).
            chaotic = run_batch(jobs, SchedulerConfig(
                workers=workers, store=store,
                retry=RetryPolicy(budget=None)))
            wall_chaos = round(time.perf_counter() - start, 3)
        finally:
            faults.disable()

        mismatched = [
            job.name for job, fault_free, recovered
            in zip(jobs, baseline.results, chaotic.results)
            if (fault_free.status, fault_free.bound)
            != (recovered.status, recovered.bound)]
        if mismatched:
            raise AssertionError(
                "chaos gate FAILED: recovered results diverge from the "
                f"fault-free run for {', '.join(mismatched)}")
        crashed = [result for result in chaotic.results
                   if result.attempts > 1]
        unrecorded = [result.name for result in crashed
                      if not any(event["kind"] == "worker-lost"
                                 for event in result.fault_events)]
        if unrecorded:
            raise AssertionError(
                "chaos gate FAILED: recovered without provenance: "
                f"{', '.join(unrecorded)}")
        worker_crashes = sum(
            1 for result in chaotic.results
            for event in result.fault_events
            if event["kind"] == "worker-lost")

        return {
            "jobs": len(jobs),
            "workers": workers,
            "seed": seed,
            "crash_probability": crash_probability,
            "corrupt_probability": corrupt_probability,
            "wall_fault_free": wall_fault_free,
            "wall_chaos": wall_chaos,
            "overhead_ratio": (round(wall_chaos / wall_fault_free, 2)
                               if wall_fault_free > 0 else None),
            "worker_crashes": worker_crashes,
            "jobs_recovered": len(crashed),
            "retries": chaotic.retries,
            "corrupt_records_quarantined": store.stats.quarantined,
            "cache_hits_surviving": chaotic.cache_hits,
            "bounds_identical": True,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _percentile(samples: List[float], quantile: float) -> float:
    """Nearest-rank percentile of a non-empty latency sample, in ms."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1))))
    return round(ordered[index] * 1000.0, 2)


def _serve_pass(benchmarks, workers: int = 2,
                clients: int = SERVE_CLIENTS,
                hot_rounds: int = SERVE_HOT_ROUNDS,
                storm_clients: int = SERVE_STORM_CLIENTS
                ) -> Dict[str, object]:
    """The gateway load bench and coalescing acceptance gate, measured.

    Boots an in-process :class:`~repro.service.gateway.AnalysisGateway`
    (ephemeral port, temporary store, supervised worker pool) and drives
    it with ``clients`` concurrent connections in three phases:

    * **cold** -- every benchmark once, fanned over the clients: all
      analyses, measures end-to-end computed latency;
    * **hot** -- the whole suite ``hot_rounds`` more times: everything
      answered from the memory/store tiers, measures served throughput
      (requests/sec) and p50/p99 latency -- the number the ``--check``
      gate compares against the committed baseline;
    * **storm** -- ``storm_clients`` connections fire the *same
      previously-unseen* request simultaneously: the coalescing gate.

    Raises ``AssertionError`` unless every request got exactly one
    response with the id it sent (no lost, no duplicated responses), every
    analysis succeeded, the storm cost exactly **one** underlying analysis,
    and every storm client received a byte-identical result record.
    """
    import multiprocessing
    import queue as queue_module
    import shutil
    import tempfile
    import threading

    from repro.bench.registry import get_benchmark
    from repro.service.gateway import GatewayClient, GatewayThread
    from repro.service.jobs import job_from_benchmark
    from repro.service.store import ResultStore

    if "fork" not in multiprocessing.get_all_start_methods():
        # Workers inherit warm engines at fork time; without fork the pass
        # would measure a different animal entirely.
        workers = 0

    jobs = [job_from_benchmark(bench) for bench in benchmarks]
    # The earlier passes' survivors leave the collector's reach, as in the
    # main pass.  Otherwise a full collection of this process's heap (about
    # 150 ms after the other passes) lands in whichever phase crosses the
    # threshold, and a 0.1 s hot phase reads it as a throughput drop.
    gc.collect()
    gc.freeze()
    root = tempfile.mkdtemp(prefix="repro-serve-")
    gateway_thread = GatewayThread(store=ResultStore(root), workers=workers,
                                   queue_limit=max(64, len(jobs) * 2))
    try:
        host, port = gateway_thread.start()
        gateway = gateway_thread.gateway

        def drive(requests: List[Dict[str, object]]
                  ) -> Dict[int, Dict[str, object]]:
            """Fan requests over ``clients`` connections; responses by id."""
            work: "queue_module.Queue" = queue_module.Queue()
            for request in requests:
                work.put(request)
            responses: Dict[int, Dict[str, object]] = {}
            latencies: List[float] = []
            lock = threading.Lock()
            failures: List[BaseException] = []

            def client_loop() -> None:
                try:
                    with GatewayClient(host, port) as client:
                        while True:
                            try:
                                request = work.get_nowait()
                            except queue_module.Empty:
                                return
                            start = time.perf_counter()
                            response = client.request(request)
                            wall = time.perf_counter() - start
                            with lock:
                                latencies.append(wall)
                                key = response.get("id")
                                if key in responses:
                                    raise AssertionError(
                                        f"duplicated response id {key}")
                                responses[key] = response
                except BaseException as exc:  # noqa: BLE001 -- reraised below
                    failures.append(exc)

            threads = [threading.Thread(target=client_loop)
                       for _ in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            if failures:
                raise failures[0]
            sent = {request["id"] for request in requests}
            if set(responses) != sent:
                missing = sorted(sent - set(responses))[:5]
                raise AssertionError(
                    f"serve gate FAILED: lost {len(sent) - len(responses)} "
                    f"responses (e.g. ids {missing})")
            return {"responses": responses, "latencies": latencies,
                    "wall": wall}

        def phase_report(outcome, label: str) -> Dict[str, object]:
            statuses = [response.get("status")
                        for response in outcome["responses"].values()]
            bad = [status for status in statuses if status != "ok"]
            if bad:
                raise AssertionError(
                    f"serve gate FAILED: {len(bad)} non-ok responses in "
                    f"the {label} phase (e.g. {bad[:3]})")
            count = len(outcome["latencies"])
            return {
                "requests": count,
                "wall_seconds": round(outcome["wall"], 3),
                "requests_per_second": round(count / outcome["wall"], 1)
                                       if outcome["wall"] > 0 else None,
                "p50_ms": _percentile(outcome["latencies"], 0.50),
                "p99_ms": _percentile(outcome["latencies"], 0.99),
            }

        def job_request(job, request_id: int) -> Dict[str, object]:
            return {"op": "analyze", "id": request_id, "name": job.name,
                    "source": job.source, "options": job.options_dict}

        # Phase 1: cold -- every benchmark exactly once, all computed.
        next_id = iter(range(1, 1 + len(jobs) * (1 + hot_rounds)))
        cold = drive([job_request(job, next(next_id)) for job in jobs])
        cold_report = phase_report(cold, "cold")

        # Phase 2: hot -- the suite again, several rounds, cache-served.
        hot_requests = [job_request(job, next(next_id))
                        for _ in range(hot_rounds) for job in jobs]
        hot = drive(hot_requests)
        hot_report = phase_report(hot, "hot")

        # Phase 3: the duplicate storm.  A previously-unseen job (rdwalk
        # under a degree limit no other phase uses, so its content hash is
        # fresh) fired by every storm client at once through a barrier.
        storm_bench = get_benchmark("rdwalk")
        storm_options: Dict[str, object] = {
            **storm_bench.analyzer_options, "degree_limit": 4}
        storm_payload = {"op": "analyze", "name": "storm",
                         "source": job_from_benchmark(storm_bench).source,
                         "options": storm_options}
        analyses_before = gateway.stats.analyses
        coalesced_before = gateway.stats.coalesced
        storm_responses: List[Optional[Dict[str, object]]] = \
            [None] * storm_clients
        storm_failures: List[BaseException] = []
        barrier = threading.Barrier(storm_clients)

        def storm_client(index: int) -> None:
            try:
                with GatewayClient(host, port) as client:
                    barrier.wait()
                    storm_responses[index] = client.request(
                        {**storm_payload, "id": index})
            except BaseException as exc:  # noqa: BLE001 -- reraised below
                storm_failures.append(exc)

        storm_threads = [threading.Thread(target=storm_client, args=(index,))
                         for index in range(storm_clients)]
        storm_start = time.perf_counter()
        for thread in storm_threads:
            thread.start()
        for thread in storm_threads:
            thread.join()
        storm_wall = time.perf_counter() - storm_start
        if storm_failures:
            raise storm_failures[0]
        if any(response is None for response in storm_responses):
            raise AssertionError("serve gate FAILED: storm client got no "
                                 "response")
        storm_analyses = gateway.stats.analyses - analyses_before
        if storm_analyses != 1:
            raise AssertionError(
                f"serve gate FAILED: duplicate storm of {storm_clients} "
                f"requests cost {storm_analyses} analyses, expected "
                f"exactly 1")
        distinct = {json.dumps(response["result"], sort_keys=True)
                    for response in storm_responses}
        if len(distinct) != 1:
            raise AssertionError(
                f"serve gate FAILED: storm produced {len(distinct)} "
                f"distinct result records, expected byte-identical")

        hot_cache = gateway.cache.as_dict() if gateway.cache else None
        return {
            "jobs": len(jobs),
            "clients": clients,
            "workers": workers,
            "cold": cold_report,
            "hot": hot_report,
            "storm": {
                "clients": storm_clients,
                "analyses": storm_analyses,
                "coalesced": gateway.stats.coalesced - coalesced_before,
                "wall_seconds": round(storm_wall, 3),
                "byte_identical": True,
            },
            "coalesce_hits": gateway.stats.coalesced,
            "busy_rejections": gateway.stats.busy_rejections,
            "hot_cache": hot_cache,
            "gateway": gateway.stats.as_dict(),
        }
    finally:
        gateway_thread.stop()
        shutil.rmtree(root, ignore_errors=True)
        gc.unfreeze()


def _lint_pass(benchmarks, total_wall: float) -> Dict[str, object]:
    """Time the static-diagnostics front-end over the suite; assert clean.

    Every benchmark's source is linted the way the analyzer's pre-flight
    gate lints it: the main procedure's parameters plus the declared
    resource counter seed the definite-initialization pass.  Parsing stays
    *outside* the clock -- the pre-flight reuses the analysis's own parsed
    program, so the marginal cost of always-on diagnostics is the flow
    walk alone, and that is the number the ``--check`` overhead gate caps
    at ``LINT_MAX_OVERHEAD`` of the sequential analysis wall.

    Raises ``AssertionError`` if any benchmark produces an error-severity
    diagnostic: the whole Table 1 suite is lint-clean by construction, so
    an error here means either a benchmark or a lint pass regressed.
    """
    from repro.lang.analysis import lint_program, max_severity
    from repro.lang.parser import parse_program

    prepared = []
    for bench in benchmarks:
        program = parse_program(bench.source_text())
        initial = set(program.main_procedure.params)
        counter = bench.analyzer_options.get("resource_counter")
        if counter:
            initial.add(str(counter))
        prepared.append((bench.name, program, initial))
    start = time.perf_counter()
    results = [(name, lint_program(program, initial_state=initial))
               for name, program, initial in prepared]
    wall = time.perf_counter() - start
    dirty = [name for name, diagnostics in results
             if max_severity(diagnostics) == "error"]
    if dirty:
        raise AssertionError("lint gate FAILED: error-severity diagnostics "
                             "on " + ", ".join(dirty))
    return {
        "programs": len(prepared),
        "wall_seconds": round(wall, 4),
        "diagnostics": sum(len(diags) for _, diags in results),
        "overhead_ratio": (round(wall / total_wall, 4)
                           if total_wall > 0 else None),
    }


def _sampler_pass(runs: int = SAMPLER_RUNS) -> Dict[str, object]:
    """Measure scalar vs vectorised sampler throughput on the Figure 8 workload.

    Runs the rdwalk n=100 cost histogram (the paper's Figure 8 left panel)
    at paper-scale run counts through both engines, asserts they agree
    within sampling error (the scalar interpreter is the oracle -- a
    disagreement is a correctness bug, not a perf regression) and records
    the throughputs plus their ratio.
    """
    from repro.bench.registry import get_benchmark
    from repro.semantics.sampler import sample_costs, summarise_costs

    benchmark = get_benchmark("rdwalk")
    program = benchmark.build_for_simulation()
    state = {"x": 0, "n": 100}

    start = time.perf_counter()
    scalar_costs, scalar_unfinished, _, _ = sample_costs(
        program, state, runs=runs, seed=0, engine="scalar")
    wall_scalar = time.perf_counter() - start
    start = time.perf_counter()
    vec_costs, vec_unfinished, _, _ = sample_costs(
        program, state, runs=runs, seed=0, engine="vec")
    wall_vec = time.perf_counter() - start

    scalar_stats = summarise_costs(scalar_costs, scalar_unfinished)
    vec_stats = summarise_costs(vec_costs, vec_unfinished)
    tolerance = 5.0 * (scalar_stats.standard_error() ** 2
                       + vec_stats.standard_error() ** 2) ** 0.5
    if abs(scalar_stats.mean - vec_stats.mean) > tolerance:
        # The engines sample the same distribution from different streams;
        # any disagreement beyond sampling error is a vectoriser bug.
        raise AssertionError(
            f"sampler engines disagree on rdwalk: scalar mean "
            f"{scalar_stats.mean:.3f} vs vec {vec_stats.mean:.3f} "
            f"(tolerance {tolerance:.3f})")

    return {
        "benchmark": "rdwalk",
        "state": state,
        "runs": runs,
        "wall_scalar": round(wall_scalar, 3),
        "wall_vec": round(wall_vec, 3),
        "runs_per_second_scalar": round(runs / wall_scalar, 1)
                                  if wall_scalar > 0 else None,
        "runs_per_second_vec": round(runs / wall_vec, 1)
                               if wall_vec > 0 else None,
        "speedup": round(wall_scalar / wall_vec, 2) if wall_vec > 0 else None,
        "mean_scalar": round(scalar_stats.mean, 3),
        "mean_vec": round(vec_stats.mean, 3),
        "unfinished_scalar": scalar_unfinished,
        "unfinished_vec": vec_unfinished,
    }


# ---------------------------------------------------------------------------
# Baseline comparison (--check)
# ---------------------------------------------------------------------------

#: Per-program times :func:`find_regressions` gates: the analysis wall, the
#: prepare layer (transforms and abstract interpretation, entailment on
#: ``LinExpr`` arithmetic), the derive layer (rule walk, rewrite
#: generation, ``Q:Weaken`` rows), the LP-solve layer (assembly and the
#: staged solves) and, with ``--escalation``, the wall of the run
#: escalating from degree 1.
GATED_TIMES = (("wall_seconds", "wall"), ("prepare_seconds", "prepare"),
               ("build_seconds", "build"), ("solve_seconds", "solve"),
               ("escalated_wall_seconds", "escalated wall"))

#: Per-program counts :func:`find_regressions` gates: the entailment queries
#: an analysis issues, its LP columns (a lost rewrite reduction shows here
#: before it shows in seconds), its LP solves (an extra objective stage or
#: a broken already-optimal skip) and its certificate's multipliers (a
#: reduction that lands on a denser optimal vertex stores, and every cache
#: hit reads, a larger record).  A count does not jitter, so it needs no
#: floor.
GATED_COUNTS = (("fm_queries", "entailment queries"),
                ("lp_variables", "LP columns"),
                ("lp_solves", "LP solves"),
                ("certificate_multipliers", "certificate multipliers"))


def find_regressions(report: Dict[str, object], baseline: Dict[str, object],
                     threshold: float = REGRESSION_THRESHOLD,
                     floor_seconds: float = REGRESSION_FLOOR_SECONDS
                     ) -> List[str]:
    """Per-program regressions of ``report`` (see :data:`GATED_TIMES` and
    :data:`GATED_COUNTS`).

    A program regresses on a time when it is both ``threshold`` (relative) slower and ``floor_seconds``
    (absolute) slower than the baseline -- the floor keeps sub-50ms jitter
    on tiny programs from failing CI.  It regresses on a count when the
    count exceeds the baseline's by more than ``threshold``.  Counts are
    deterministic but depend on what the process analysed before (the
    entailment memo is process-wide), so they are compared only while the
    report's programs so far are the baseline's, in the same order.
    Programs missing from either side, and values either side lacks, are
    skipped (they changed identity, not speed).
    """
    base_rows = {row["name"]: row for row in baseline.get("programs", ())}
    base_order = [row["name"] for row in baseline.get("programs", ())]
    problems = []
    in_step = True
    for position, row in enumerate(report["programs"]):
        in_step = (in_step and position < len(base_order)
                   and base_order[position] == row["name"])
        base_row = base_rows.get(row["name"])
        if base_row is None:
            continue
        for key, label in GATED_TIMES:
            base, fresh = base_row.get(key), row.get(key)
            if base is None or fresh is None or base <= 0:
                continue
            if fresh > base * (1 + threshold) and fresh - base > floor_seconds:
                problems.append(
                    f"{row['name']}: {label} {fresh:.3f}s vs baseline "
                    f"{base:.3f}s (+{(fresh / base - 1) * 100:.0f}%)")
        if not in_step:
            continue
        for key, label in GATED_COUNTS:
            base, fresh = base_row.get(key), row.get(key)
            if base is None or fresh is None or base <= 0:
                continue
            if fresh > base * (1 + threshold):
                problems.append(
                    f"{row['name']}: {label} {fresh} vs baseline {base} "
                    f"(+{(fresh / base - 1) * 100:.0f}%)")
    return problems


def _summary_table(report: Dict[str, object]) -> str:
    parallel = any("parallel_wall_seconds" in p for p in report["programs"])
    headers = ["program", "time(s)"] \
        + (["par(s)"] if parallel else []) \
        + ["fm-queries", "eliminations", "hit-rate", "status"]
    rows = []
    for p in report["programs"]:
        row = [p["name"], f"{p['wall_seconds']:.3f}"]
        if parallel:
            row.append(f"{p.get('parallel_wall_seconds', float('nan')):.3f}")
        row.extend([p["fm_queries"], p["fm_eliminations"],
                    "-" if p["cache_hit_rate"] is None
                    else f"{p['cache_hit_rate']:.2f}",
                    "ok" if p["success"] else "FAIL"])
        rows.append(tuple(row))
    return render_table(headers, rows,
                        title=f"perf smoke: {report['suite']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perfsmoke",
        description="Time the Table 1 suite and dump entailment-cache stats.")
    parser.add_argument("--group", choices=sorted(_GROUPS), default="linear")
    parser.add_argument("--programs", nargs="+", default=None,
                        help="only these benchmarks (names, globs like "
                             "'C4B_*', or @linear/@polynomial/@all); "
                             "overrides --group")
    parser.add_argument("--workers", type=int, default=1,
                        help="with N > 1, also run the suite through the "
                             "service scheduler on N processes and record "
                             "suite_wall_parallel")
    parser.add_argument("--escalation", action="store_true",
                        help="also run every degree->=2 benchmark "
                             "escalating from degree 1, assert bound "
                             "identity with the cold run, and with --check "
                             "gate each escalated wall")
    parser.add_argument("--sampler", action="store_true",
                        help="also measure sampler throughput (scalar vs "
                             "vectorised engine on the rdwalk n=100 "
                             "histogram), assert the engines agree within "
                             "sampling error, and gate the speedup")
    parser.add_argument("--sampler-runs", type=int, default=SAMPLER_RUNS,
                        help="run count for the sampler throughput pass "
                             f"(default: {SAMPLER_RUNS})")
    parser.add_argument("--sampler-min-speedup", type=float,
                        default=SAMPLER_MIN_SPEEDUP,
                        help="fail when the vectorised engine's speedup "
                             "over the scalar interpreter drops below this "
                             f"factor (default: {SAMPLER_MIN_SPEEDUP})")
    parser.add_argument("--chaos", action="store_true",
                        help="also run the fault-recovery gate: re-run the "
                             "suite with deterministic worker crashes "
                             f"(p={CHAOS_CRASH_PROBABILITY}) and corrupted "
                             f"store reads (p={CHAOS_CORRUPT_PROBABILITY}) "
                             "and fail unless recovery reproduces the "
                             "fault-free bounds byte-for-byte")
    parser.add_argument("--serve", action="store_true",
                        help="also run the gateway load bench: boot the "
                             "asyncio analysis gateway and drive it with "
                             f"{SERVE_CLIENTS} concurrent clients (cold, "
                             "hot and duplicate-storm phases), record "
                             "requests/sec, p50/p99 latency, coalesce "
                             "hits and LRU hit rate, and fail unless the "
                             "storm costs exactly one analysis with "
                             "byte-identical results")
    parser.add_argument("--lint", action="store_true",
                        help="also sweep the static-diagnostics front-end "
                             "over the suite (pre-flight configuration), "
                             "fail on any error-severity diagnostic, and "
                             "with --check cap the lint wall at "
                             f"{LINT_MAX_OVERHEAD * 100:.0f}%% of the "
                             "sequential analysis wall")
    parser.add_argument("--check", default=None, metavar="BASELINE.json",
                        help="compare per-program wall, build (derive), "
                             "solve and escalated times and entailment "
                             "query counts against this baseline and exit "
                             "non-zero on a "
                             f">{REGRESSION_THRESHOLD * 100:.0f}%% regression")
    parser.add_argument("--threshold", type=float,
                        default=REGRESSION_THRESHOLD,
                        help="relative regression threshold for --check "
                             "(raise it when baseline and checker run on "
                             "different hardware)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON output path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--limit", type=int, default=None,
                        help="only run the first N programs (CI smoke)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary table")
    args = parser.parse_args(argv)

    # Resolve selectors up front so a typo fails fast (and is not confused
    # with an internal error from the suite itself).
    try:
        _select(args.group, args.programs, args.limit)
    except KeyError as exc:
        print(f"unknown program selector: {exc.args[0]}", file=sys.stderr)
        return 2

    # Read the baseline BEFORE writing the report: with the default
    # --output both paths are BENCH_entailment.json, and reading after the
    # write would compare the fresh run against itself (and silently
    # clobber the committed baseline the gate was meant to enforce).
    baseline = None
    if args.check:
        try:
            with open(args.check, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.check!r}: {exc}",
                  file=sys.stderr)
            return 2

    report = run_suite(args.group, args.limit, programs=args.programs,
                       workers=args.workers, escalation=args.escalation,
                       sampler=args.sampler, sampler_runs=args.sampler_runs,
                       chaos=args.chaos, serve=args.serve, lint=args.lint)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    if not args.quiet:
        print(_summary_table(report))
        cache = report["entailment_cache"]
        print(f"\ntotal: {report['total_wall_seconds']:.2f}s over "
              f"{len(report['programs'])} programs; cache hit rate "
              f"{cache['hit_rate']:.1%} ({cache['queries']} queries, "
              f"{cache['eliminations']} eliminations); interval tier "
              f"decided {cache['interval_hit_rate']:.1%} of the queries "
              "reaching it")
        if report["suite_wall_parallel"] is not None:
            speedup = report["parallel_speedup"]
            print(f"parallel ({report['workers']} workers): "
                  f"{report['suite_wall_parallel']:.2f}s"
                  + (f" (speedup {speedup:.2f}x)" if speedup is not None
                     else ""))
        escalation = report.get("escalation")
        if escalation and escalation["programs"]:
            print(f"escalation ({escalation['programs']} programs): "
                  f"{escalation['wall_escalated']:.2f}s from degree 1, "
                  "bounds identical to the cold runs")
        chaos_report = report.get("chaos")
        if chaos_report:
            if "skipped" in chaos_report:
                print(f"chaos: skipped ({chaos_report['skipped']})")
            else:
                print(f"chaos ({chaos_report['jobs']} jobs, "
                      f"{chaos_report['workers']} workers): "
                      f"{chaos_report['worker_crashes']} worker crashes, "
                      f"{chaos_report['corrupt_records_quarantined']} "
                      f"corrupt records quarantined, bounds identical; "
                      f"fault-free {chaos_report['wall_fault_free']:.2f}s "
                      f"vs chaos {chaos_report['wall_chaos']:.2f}s "
                      f"(overhead {chaos_report['overhead_ratio']}x)")
        serve_report = report.get("serve")
        if serve_report:
            hot = serve_report["hot"]
            storm = serve_report["storm"]
            cache = serve_report["hot_cache"]
            print(f"serve ({serve_report['clients']} clients, "
                  f"{serve_report['workers']} workers): hot "
                  f"{hot['requests_per_second']:.0f} req/s, p50 "
                  f"{hot['p50_ms']:.1f}ms, p99 {hot['p99_ms']:.1f}ms; "
                  f"storm {storm['clients']} clients -> "
                  f"{storm['analyses']} analysis "
                  f"({storm['coalesced']} coalesced); LRU hit rate "
                  + (f"{cache['hit_rate']:.1%}" if cache else "n/a"))
        lint_report = report.get("lint")
        if lint_report:
            overhead = lint_report["overhead_ratio"]
            print(f"lint ({lint_report['programs']} programs): "
                  f"{lint_report['wall_seconds'] * 1000:.0f}ms, "
                  f"{lint_report['diagnostics']} diagnostics"
                  + (f" (overhead {overhead:.2%} of cold wall)"
                     if overhead is not None else ""))
        sampler_report = report.get("sampler")
        if sampler_report:
            print(f"sampler ({sampler_report['benchmark']} "
                  f"{sampler_report['runs']} runs): scalar "
                  f"{sampler_report['wall_scalar']:.2f}s vs vec "
                  f"{sampler_report['wall_vec']:.2f}s "
                  f"(speedup {sampler_report['speedup']:.1f}x, means "
                  f"{sampler_report['mean_scalar']:.1f}/"
                  f"{sampler_report['mean_vec']:.1f})")
        print(f"wrote {args.output}")

    failures = [p["name"] for p in report["programs"] if not p["success"]]
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1

    sampler_report = report.get("sampler")
    if sampler_report is not None:
        speedup = sampler_report["speedup"]
        if speedup is None or speedup < args.sampler_min_speedup:
            print(f"sampler throughput gate FAILED: vec speedup "
                  f"{speedup} < required {args.sampler_min_speedup}x",
                  file=sys.stderr)
            return 1

    cache = report["entailment_cache"]
    if active_prefilter() and cache["interval_hits"] + cache["misses"]:
        rate = cache["interval_hit_rate"]
        if rate < PREFILTER_MIN_HIT_RATE:
            print(f"interval pre-filter gate FAILED: tier hit rate "
                  f"{rate} < required {PREFILTER_MIN_HIT_RATE:.0%} "
                  "of tier-reaching queries", file=sys.stderr)
            return 1

    if baseline is not None:
        lint_report = report.get("lint")
        if lint_report:
            # The lint wall is gated against *this run's* cold analysis
            # wall, not the baseline's: the claim is "pre-flight is free
            # relative to analysis", which holds or fails on any hardware.
            ratio = lint_report.get("overhead_ratio")
            if ratio is not None and ratio > LINT_MAX_OVERHEAD:
                print(f"lint overhead gate FAILED: diagnostics sweep cost "
                      f"{ratio:.2%} of the sequential analysis wall "
                      f"(cap {LINT_MAX_OVERHEAD:.0%})", file=sys.stderr)
                return 1
        regressions = find_regressions(report, baseline,
                                       threshold=args.threshold)
        if regressions:
            print(f"\nperformance regressions vs {args.check}:",
                  file=sys.stderr)
            for line in regressions:
                print(f"  - {line}", file=sys.stderr)
            return 1
        serve_report = report.get("serve")
        base_serve = baseline.get("serve")
        if serve_report and base_serve:
            # The serving gate compares hot-tier throughput: cache-served
            # requests/sec is the steady-state number a regression in the
            # gateway, the LRU tier or the store read path would move.
            fresh_rps = serve_report["hot"]["requests_per_second"]
            base_rps = base_serve["hot"]["requests_per_second"]
            if base_rps and fresh_rps is not None \
                    and fresh_rps < base_rps / (1 + args.threshold):
                print(f"serving throughput gate FAILED: hot tier "
                      f"{fresh_rps:.0f} req/s vs baseline "
                      f"{base_rps:.0f} req/s "
                      f"(allowed floor {base_rps / (1 + args.threshold):.0f})",
                      file=sys.stderr)
                return 1
        if not args.quiet:
            print(f"no per-program regression vs {args.check} "
                  f"(threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
