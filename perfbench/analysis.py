"""The in-process workloads: ``linear-cold`` and ``poly-escalate``.

Every analysis is cold: the entailment engines and rewrite memos are reset
first, as in a fresh ``repro analyze``.  A fixed reference loop is timed
immediately before each analysis so the suite time can be divided by the
host's current speed.  The first pass over the programs always completes
(so bound and certificate figures cover every program); later passes, in
a new seeded order each, run until the time budget is spent.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from common import (HERE, ONE_LOOP, ROOT, WORK, bound_ratio,
                    certificate_shape, check_bounds, child_env, median,
                    peak_rss_mb, quantile, reference_loop, tail,
                    windowed_tail)

#: The CLI's default degree schedule: start at degree 1, escalate to 2.
POLY_SCHEDULE = {"max_degree": 1, "auto_degree": True, "degree_limit": 2}

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5

def suite(workload: str):
    """``(benchmark, options, source)`` for every program of ``workload``."""
    from repro.bench.registry import linear_benchmarks, polynomial_benchmarks

    if workload == "linear-cold":
        return [(b, dict(b.analyzer_options), b.source_text())
                for b in linear_benchmarks()]
    return [(b, {**b.analyzer_options, **POLY_SCHEDULE}, b.source_text())
            for b in polynomial_benchmarks()]


def setup_samples(count: int = SETUP_PROBES) -> List[float]:
    """Spawn-to-first-bound walls of fresh ``probe.py`` processes."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                              stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.close()
            code = probe.wait(timeout=120)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited {code} without a bound")
    return samples


class StoreReader:
    """The ``reader.py`` process, timing reads from a runner's store while
    the runner analyses."""

    def __init__(self, root: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reader.py"), root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT, text=True)
        if self.process.stdout.readline().strip() != "ready":
            self.kill()
            raise RuntimeError("store reader did not start")

    def add(self, job_hash: str) -> None:
        self.process.stdin.write(job_hash + "\n")
        self.process.stdin.flush()

    def finish(self) -> Tuple[List[float], int]:
        """Stop the reader: ``(read walls in seconds, failed reads)``."""
        self.process.stdin.close()
        outcome = json.loads(self.process.stdout.readline() or "null")
        code = self.process.wait(timeout=60)
        self.process.stdout.close()
        if code != 0 or outcome is None:
            raise RuntimeError(f"store reader exited {code} without samples")
        return outcome["samples"], outcome["misses"]

    def kill(self) -> None:
        """Stop a reader that was not finished (an error path)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


class Runner:
    """Cold analyses of one suite, with the untimed checks after each."""

    def __init__(self, workload: str, tracer=None,
                 on_store: Optional[Callable[[str], None]] = None) -> None:
        from repro.service.store import ResultStore

        self.programs = suite(workload)
        self.tracer = tracer
        #: Called with each stored result's job hash.
        self.on_store = on_store
        os.makedirs(WORK, exist_ok=True)
        self.store_root = tempfile.mkdtemp(prefix="store-", dir=WORK)
        self.store = ResultStore(self.store_root)
        self.records: List[Dict[str, object]] = []
        #: The first ``ExpectedBound`` of every program.
        self.bounds: Dict[str, object] = {}
        #: The first result of every program: bound payload, certificate
        #: shape and the checker's verdict (serve-replay's reference).
        self.first: Dict[str, Dict[str, object]] = {}
        self.problems: List[str] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def close(self) -> None:
        shutil.rmtree(self.store_root, ignore_errors=True)

    def _call(self, name, function, *args, **kwargs):
        if self.tracer is None:
            return function(*args, **kwargs)
        return self.tracer.span(name, function, *args, **kwargs)

    def analyze(self, bench, options, source, count: bool = False) -> Dict:
        from repro.core.analyzer import analyze_source
        from repro.core.certificates import check_certificate
        from repro.core.rewrite import clear_rewrite_caches
        from repro.logic.entailment import get_engine, reset_engine
        from repro.service.jobs import (AnalysisJob, job_domain,
                                        result_from_analysis)

        job = AnalysisJob.create(bench.name, source, options)
        reset_engine()
        clear_rewrite_caches()
        ref = reference_loop()
        start = time.perf_counter()
        result = self._call("analysis", analyze_source, source, **options)
        wall = time.perf_counter() - start
        record = {"name": bench.name, "wall": wall, "ref": ref,
                  "ok": result.success}
        self.records.append(record)
        if not result.success:
            return record
        # Every engine was reset, so its counters are this analysis's delta.
        engine = get_engine(job_domain(job)).stats.snapshot()
        rejected = bool(self._call("core.check", check_certificate,
                                   result.certificate))
        record["rejected"] = rejected
        stored = result_from_analysis(job, result, wall, engine)
        self.store.put(stored)
        if self.on_store is not None:
            self.on_store(job.job_hash)
        served = self.store.get(job.job_hash)
        if served is None or served.expected_bound() is None \
                or served.bound != stored.bound:
            self.problems.append(f"{bench.name}: store read-back differs")
        if bench.name not in self.first:
            self.first[bench.name] = {
                "bound": stored.bound, "rejected": rejected,
                "certificate": certificate_shape(stored.certificate)}
            self.bounds[bench.name] = result.bound
        first = self.first[bench.name]["bound"]
        if first != stored.bound:
            self.problems.append(f"{bench.name}: bound changed between "
                                 f"passes ({first['pretty']} vs "
                                 f"{stored.bound['pretty']})")
        if count:
            for key, value in result_counts(stored.to_record()).items():
                self.counts[key] += value
        return record

    def run_pass(self, rng: random.Random, deadline: Optional[float],
                 count: bool = False) -> bool:
        """One pass in a fresh seeded order; False once the deadline hit."""
        order = list(self.programs)
        rng.shuffle(order)
        for bench, options, source in order:
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            self.analyze(bench, options, source, count)
        return True

    def output_problems(self) -> List[str]:
        """Untimed output checks over the first result of every program."""
        problems = list(self.problems)
        missing = [b.name for b, _o, _s in self.programs
                   if b.name not in self.bounds]
        if missing:
            problems.append(f"no bound for {missing}")
            return problems
        return problems + check_bounds(self.bounds,
                                       [b for b, _o, _s in self.programs])


#: Per-layer logic counters and the engine counter behind each.
LOGIC_COUNTS = {"logic.queries": "queries", "logic.memo_hits": "memo_hits",
                "logic.syntactic_hits": "fast_hits",
                "logic.interval_hits": "interval_hits",
                "logic.exact_queries": "misses",
                "logic.fm_eliminations": "fm_eliminations"}


def result_counts(record: Dict[str, object]) -> Dict[str, int]:
    """Per-layer core and logic counts of one ``ok`` result record
    (``JobResult.to_record()``: what the store holds and the gateway
    answers)."""
    pipeline = record["pipeline"]
    counts = {
        "core.lp_vars": record["lp_variables"],
        "core.lp_rows": record["lp_constraints"],
        "core.lp_solves": pipeline["warm_solves"] + pipeline["cold_solves"],
        "core.degree_attempts": len(pipeline["attempted_degrees"]),
        "core.weakenings": len(record["certificate"]["weakenings"]),
    }
    for key, field in LOGIC_COUNTS.items():
        counts[key] = record["engine"].get(field, 0)
    return counts


def warm_up() -> None:
    """Import the LP stack before timing, as the set-up probes do."""
    from repro.core.analyzer import analyze_source

    analyze_source(ONE_LOOP).require_bound()


def measure(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: end-to-end metrics and their sample counts."""
    setups = setup_samples()
    warm_up()
    runner = Runner(workload)
    reader = StoreReader(runner.store_root)
    runner.on_store = reader.add
    try:
        rng = random.Random(seed)
        deadline = time.perf_counter() + seconds
        runner.run_pass(rng, None)
        complete = 1
        while runner.run_pass(rng, deadline):
            complete += 1
        hits, misses = reader.finish()
        rss = peak_rss_mb(os.getpid())
        problems = runner.output_problems()
    finally:
        reader.kill()
        runner.close()
    if misses:
        problems.append(f"{misses} store reads found no result")
    records = runner.records
    # Pooled figures use complete passes only, so every program weighs the
    # same in them whatever the seed; per-program medians use every sample.
    pooled = records[:complete * len(runner.programs)]
    ok = [r for r in pooled if r["ok"]]
    walls = [r["wall"] for r in pooled]
    by_program: Dict[str, List[Dict]] = defaultdict(list)
    for record in records:
        by_program[record["name"]].append(record)
    suite_s = sum(median([r["wall"] for r in rs]) for rs in by_program.values())
    suite_ref = sum(median([r["ref"] for r in rs]) for rs in by_program.values())
    tail_ms, tail_pct = tail(walls)
    # The reader wakes every 50 ms, so a window of its samples is about 5 s.
    hit_tail, hit_pct = windowed_tail(hits)
    benchmarks = [b for b, _o, _s in runner.programs]
    n = len(walls)
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "suite_s": (suite_s, "s", len(by_program)),
        "suite_norm": (suite_s / suite_ref, "ratio", len(by_program)),
        "analysis_p50_ms": (1000 * quantile(walls, 0.5), "ms", n),
        "analysis_tail_ms": (1000 * tail_ms, "ms", n, tail_pct),
        "bound_ratio": (bound_ratio(runner.bounds, benchmarks)
                        if len(runner.bounds) == len(benchmarks) else 1.0,
                        "ratio", len(benchmarks)),
        "fail_ratio": (failed / len(records), "ratio", len(records)),
        "cert_reject_ratio": (sum(r["rejected"] for r in ok) / max(1, len(ok)),
                              "ratio", len(ok)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (rss, "MB", 1),
        "serve_rps": (n / sum(walls), "req/s", n),
        "hit_p50_ms": (1000 * quantile(hits, 0.5), "ms", len(hits)),
        "hit_tail_ms": (1000 * hit_tail, "ms", len(hits), hit_pct),
        "miss_p50_ms": (1000 * quantile(walls, 0.5), "ms", n),
    }
    return {"metrics": metrics, "attempted": len(records), "failed": failed,
            "problems": problems, "complete_passes": complete}


def measure_traced(workload: str, seed: int, seconds: float,
                   trace_path: str) -> Dict[str, object]:
    """The traced run: one traced pass for the per-layer times and exact
    counts, then untraced analyses of the same order until the deadline,
    for the tracing overhead."""
    import tracer as tracing

    warm_up()
    tracer = tracing.Tracer()
    runner = Runner(workload, tracer)
    try:
        deadline = time.perf_counter() + seconds
        restore = tracing.install(tracer)
        try:
            runner.run_pass(random.Random(seed), None, count=True)
        finally:
            restore()
        traced = list(runner.records)
        runner.tracer = None
        # At least one untraced analysis, so the overhead has a base.
        deadline = max(deadline, time.perf_counter() + 0.01)
        while runner.run_pass(random.Random(seed), deadline):
            pass
        problems = runner.output_problems()
    finally:
        runner.close()
    tracer.dump(trace_path)
    untraced: Dict[str, List[float]] = defaultdict(list)
    for record in runner.records[len(traced):]:
        untraced[record["name"]].append(record["wall"])
    matched = [r for r in traced if r["name"] in untraced]
    overhead = (sum(r["wall"] for r in matched)
                / sum(median(untraced[r["name"]]) for r in matched)
                if matched else 0.0)
    self_times, violations = tracing.self_times(tracer.spans)
    if violations:
        problems.append(f"{violations} child spans outlast their parent")
    counts = dict(runner.counts)
    counts["core.rewrite_fns"] = tracer.counts.get("core.rewrite_fns", 0)
    layer = layer_metrics(self_times, counts)
    layer.update({
        "host.ref_ms": (1000 * median([r["ref"] for r in runner.records]),
                        "ms"),
        "trace.overhead": (overhead, "ratio"),
    })
    n = len(traced)
    failed = sum(not r["ok"] for r in runner.records)
    return {"metrics": layer, "attempted": len(runner.records),
            "failed": failed, "problems": problems, "traced_analyses": n}


#: Per-layer time metrics and the span names whose self time they sum.
LAYER_TIMES = {
    "core.prepare_s": "core.prepare", "core.derive_s": "core.derive",
    "core.weaken_s": "core.weaken", "core.rewrites_s": "core.rewrites",
    "core.solve_s": "core.solve", "core.certify_s": "core.certify",
    "core.check_s": "core.check", "logic.absint_s": "logic.absint",
    "logic.entail_s": "logic.entail", "lang.parse_s": "lang.parse",
}

COUNT_NAMES = ("core.lp_vars", "core.lp_rows", "core.lp_solves",
               "core.degree_attempts", "core.weakenings", "core.rewrite_fns",
               *LOGIC_COUNTS)

SERVICE_COUNTS = ("service.memory_hits", "service.store_hits",
                  "service.computed", "service.coalesced", "service.busy")
SERVICE_LATENCIES = ("service.memory_p50_ms", "service.store_p50_ms",
                     "service.computed_p50_ms", "service.lint_p50_ms")


def layer_metrics(self_times: Dict[str, float],
                  counts: Dict[str, int]) -> Dict[str, tuple]:
    """Every per-layer metric; layers a workload never reaches read 0."""
    metrics: Dict[str, tuple] = {
        name: (self_times.get(span, 0.0), "s")
        for name, span in LAYER_TIMES.items()}
    for name in COUNT_NAMES:
        metrics[name] = (counts.get(name, 0), "count")
    reached = counts.get("logic.interval_hits", 0) + \
        counts.get("logic.exact_queries", 0)
    metrics["logic.interval_base"] = (reached, "count")
    metrics["logic.interval_hit_rate"] = (
        counts.get("logic.interval_hits", 0) / reached if reached else 0.0,
        "ratio")
    for name in SERVICE_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["service.hit_ratio"] = (counts.get("service.hit_ratio", 0.0),
                                    "ratio")
    for name in SERVICE_LATENCIES:
        metrics[name] = (0.0, "ms")
    return metrics
