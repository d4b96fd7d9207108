"""Multiprocess batch scheduler: fan analysis jobs out over worker processes.

The scheduler turns a list of :class:`~repro.service.jobs.AnalysisJob` into a
deterministic list of :class:`~repro.service.jobs.JobResult`:

* **store first** -- jobs whose hash is in the persistent store
  (:mod:`repro.service.store`) are served without any work;
* **fan-out** -- remaining jobs run on a ``ProcessPoolExecutor``.  Each
  worker installs a fresh :class:`~repro.logic.entailment.EntailmentEngine`
  at start (no state inherited from the parent, none leaked back) and keeps
  it warm across all jobs it executes, so a worker analyzing its third
  program already owns the hot projection caches;
* **timeouts and cancellation** -- with ``timeout`` set, every job gets that
  much wall clock from the moment a worker slot can pick it up (a rolling
  per-job deadline, so fast jobs queued behind slow ones are never
  misreported).  A job that exceeds it is reported as ``timeout`` and its
  stuck worker is terminated when the pool shuts down; jobs still queued
  behind it are cancelled and reported as ``cancelled``.
  ``KeyboardInterrupt`` cancels everything still pending before
  propagating;
* **supervision** -- a dead worker (OOM kill, segfault in native code, an
  injected ``os._exit``) breaks the whole ``ProcessPoolExecutor``.  Instead
  of failing every unfinished job, the scheduler *rebuilds* the pool and
  re-submits: jobs that never started go back into a fresh group round with
  their attempt refunded, while jobs that were **in flight** when the pool
  died (identified by per-attempt claim files the workers drop as they pick
  work up) are *suspects* and re-run one at a time on a single-worker pool,
  so a second break is unambiguously their fault.  A
  :class:`~repro.service.retry.RetryPolicy` bounds the whole affair --
  per-job attempts, a per-batch retry budget, deterministic seeded backoff
  -- and a suspect that breaks a solo pool twice is quarantined as a
  **poison job** (structured ``error`` result, ``poison-quarantine`` fault
  event) instead of being retried forever;
* **graceful degradation** -- a job that timed out is re-run once with its
  degree limit lowered by one.  The fallback is recorded as provenance in
  ``JobResult.degraded`` (and counts in ``JobResult.attempts``), never
  silently;
* **deterministic ordering** -- results always come back in input order, no
  matter which worker finished first, and identical jobs (same content
  hash) are executed only once per batch.

``workers=0`` runs everything inline in the calling process (no pool, no
pickling) -- handy for tests and for callers that want the scheduler's
store/dedup behaviour without multiprocessing.  Inline execution cannot
preempt a job, so ``timeout`` requires ``workers >= 1``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The LP stack (scipy) is imported here so forked pool workers inherit it
# instead of each importing it inside its first job (see ``_pool_context``).
import repro.core.solver  # noqa: F401
from repro.service import faults
from repro.service.jobs import AnalysisJob, JobResult, run_job
from repro.service.retry import RetryPolicy
from repro.service.store import ResultStore

#: A suspect that breaks this many *single-worker* pools is quarantined as
#: poison: the break is unambiguously attributable (nothing else was
#: running), and twice rules out one-off environmental bad luck.
POISON_SOLO_BREAKS = 2


def default_worker_count() -> int:
    """A sensible default fan-out: physical parallelism minus one, capped."""
    cpus = os.cpu_count() or 1
    return max(1, min(8, cpus - 1))


def _worker_init() -> None:
    """Per-process initializer: a fresh, pre-warmed entailment engine.

    Ends by freezing the collector's survivors: the imported modules and
    the warm engine stay alive for the worker's whole life, so without
    the freeze every full collection rescans them.  What later analyses
    leave alive (intern tables, engine memos) is still tracked.
    """
    from repro.logic import entailment

    faults.enter_pool_worker()
    entailment.reset_engine()
    entailment.warm_engine()
    gc.collect()
    gc.freeze()


def _execute_job(job: AnalysisJob, attempt: int = 1,
                 claim_path: Optional[str] = None) -> JobResult:
    """What the pool actually runs (separate from run_job for test seams).

    ``claim_path`` is only set for pool execution: the worker drops the
    claim file the moment it picks the job up, so after a pool break the
    parent can tell in-flight jobs (claimed, no result: crash suspects)
    from never-started ones (no claim: innocent, just resubmit).  The
    ``worker`` fault-injection site fires here too -- inline runs pass no
    claim path and therefore can never be crashed out of the parent.
    """
    if claim_path is not None:
        try:
            with open(claim_path, "w", encoding="utf-8"):
                pass
        except OSError:
            pass
        faults.fire("worker", f"{job.job_hash}:{attempt}")
    return run_job(job)


def _pool_context():
    """Prefer fork (workers inherit the already-imported LP stack)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class SchedulerConfig:
    """Knobs of one batch run."""

    #: Number of worker processes; 0 runs jobs inline in this process.
    workers: int = 0
    #: Per-job wall-clock budget in seconds, measured from when a worker
    #: slot frees up for the job (requires ``workers >= 1``; inline
    #: execution cannot preempt).
    timeout: Optional[float] = None
    #: Persistent result store; None disables caching entirely.
    store: Optional[ResultStore] = None
    #: Ignore store reads (results are still written back).
    refresh: bool = False
    #: Supervision policy for pool breaks (None = :class:`RetryPolicy`
    #: defaults).
    retry: Optional[RetryPolicy] = None
    #: Apply the graceful-degradation ladder (one lower-degree retry on
    #: ``timeout``).
    degrade: bool = True


@dataclass
class JobOutcome:
    """One job's result plus where it came from."""

    job: AnalysisJob
    result: JobResult
    cached: bool = False


@dataclass
class BatchReport:
    """Everything a front end needs to render one batch run."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 0

    @property
    def results(self) -> List[JobResult]:
        return [outcome.result for outcome in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def executed(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def failures(self) -> List[JobOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.result.status != "ok"]

    @property
    def degraded(self) -> List[JobOutcome]:
        """Outcomes produced through a degradation-ladder fallback."""
        return [outcome for outcome in self.outcomes if outcome.result.degraded]

    @property
    def fault_events(self) -> int:
        """Total fault events recorded across all results (0 = clean run)."""
        return sum(len(outcome.result.fault_events)
                   for outcome in self.outcomes)

    @property
    def retries(self) -> int:
        """Executions beyond each job's first attempt, summed."""
        return sum(outcome.result.attempts - 1 for outcome in self.outcomes
                   if not outcome.cached)

    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.outcomes) if self.outcomes else 0.0

    def count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes
                   if outcome.result.status == status)


def run_batch(jobs: Sequence[AnalysisJob],
              config: Optional[SchedulerConfig] = None,
              **overrides) -> BatchReport:
    """Run ``jobs`` through the store + worker pool; results in input order."""
    if config is None:
        config = SchedulerConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a SchedulerConfig or keyword overrides")
    if config.timeout is not None and config.workers < 1:
        raise ValueError("timeout requires workers >= 1 (inline execution "
                         "cannot preempt a running job)")
    policy = config.retry if config.retry is not None else RetryPolicy()

    start = time.perf_counter()
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    hashes = [job.job_hash for job in jobs]

    # Layer 1: the persistent store.
    pending: Dict[str, List[int]] = {}     # hash -> input indices to fill
    for index, (job, job_hash) in enumerate(zip(jobs, hashes)):
        cached = None
        if config.store is not None and not config.refresh:
            cached = config.store.get(job_hash)
        if cached is not None:
            outcomes[index] = JobOutcome(job, _named_for(cached, job),
                                         cached=True)
        else:
            pending.setdefault(job_hash, []).append(index)

    # Layer 2: execute each distinct pending job exactly once.
    ordered_hashes = sorted(pending, key=lambda job_hash: pending[job_hash][0])
    unique_jobs = [jobs[pending[job_hash][0]] for job_hash in ordered_hashes]
    if config.workers <= 0:
        executed = [_execute_job(job) for job in unique_jobs]
    else:
        executed = _run_on_pool(unique_jobs, config.workers, config.timeout,
                                policy)

    for job_hash, result in zip(ordered_hashes, executed):
        job = jobs[pending[job_hash][0]]
        if config.degrade:
            result = _apply_degradation(job, result, config, policy)
        if config.store is not None:
            try:
                config.store.put(result)
            except OSError as exc:
                # A failing store must degrade the cache, not the batch:
                # the computed result is still delivered, the lost write is
                # recorded as provenance.
                result.fault_events = list(result.fault_events) + [{
                    "site": "store.put", "kind": "store-write-error",
                    "key": job_hash, "detail": str(exc)}]
        for index in pending[job_hash]:
            outcomes[index] = JobOutcome(jobs[index],
                                         _named_for(result, jobs[index]),
                                         cached=False)

    report = BatchReport(outcomes=[outcome for outcome in outcomes
                                   if outcome is not None],
                         wall_seconds=round(time.perf_counter() - start, 4),
                         workers=config.workers)
    return report


def _named_for(result: JobResult, job: AnalysisJob) -> JobResult:
    """The result relabelled with this job's name.

    Store hits and batch-level dedup reuse one computed result for many
    input jobs; the payload is content-determined but the name is
    presentation, so each outcome reports under its own job's name.
    """
    if result.name == job.name:
        return result
    from dataclasses import replace

    return replace(result, name=job.name)


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

def apply_degradation(job: AnalysisJob, result: JobResult,
                      rerun: Callable[[AnalysisJob], JobResult]) -> JobResult:
    """One rung down the ladder for timeout results.

    Applied at most once per job (the re-run's own result is returned with
    provenance attached, never re-laddered), so a systematically hopeless
    job terminates after exactly one structured fallback.  ``rerun`` is
    how the fallback job gets executed -- the batch scheduler routes it
    through a pool round, the gateway through its long-lived
    :class:`SupervisedPool`.
    """
    if result.degraded or result.status != "timeout":
        return result
    lowered = _lower_degree_job(job)
    if lowered is None:
        return result
    retry_job, old_degree, new_degree = lowered
    return _degraded_result(rerun(retry_job), job, result, {
        "kind": "degree-fallback", "from": old_degree, "to": new_degree,
        "reason": "timeout"})


def _apply_degradation(job: AnalysisJob, result: JobResult,
                       config: SchedulerConfig,
                       policy: RetryPolicy) -> JobResult:
    """The batch scheduler's ladder instance (re-runs on a fresh pool)."""
    return apply_degradation(job, result,
                             lambda retry_job: _rerun(retry_job, config,
                                                      policy))


def _lower_degree_job(job: AnalysisJob) -> Optional[Tuple[AnalysisJob, int, int]]:
    """The job with its degree budget lowered by one (None when already 1)."""
    options = dict(job.options_dict)
    auto = bool(options.get("auto_degree", True))
    knob = "degree_limit" if auto else "max_degree"
    current = int(options.get(knob, 2 if auto else 1))
    lowered = current - 1
    if lowered < 1:
        return None
    options[knob] = lowered
    return AnalysisJob.create(job.name, job.source, options), current, lowered


def _rerun(retry_job: AnalysisJob, config: SchedulerConfig,
           policy: RetryPolicy) -> JobResult:
    """Execute one degradation-ladder re-run (pool when available)."""
    if config.workers <= 0:
        return _execute_job(retry_job)
    return _run_on_pool([retry_job], 1, config.timeout, policy)[0]


def _degraded_result(rerun: JobResult, job: AnalysisJob, original: JobResult,
                     provenance: Dict[str, object]) -> JobResult:
    """The re-run's result, relabelled to the original job, with provenance."""
    rerun.name = job.name
    rerun.job_hash = job.job_hash
    rerun.attempts = original.attempts + rerun.attempts
    rerun.degraded = dict(provenance)
    rerun.fault_events = list(original.fault_events) + list(rerun.fault_events)
    return rerun


# ---------------------------------------------------------------------------
# The supervised pool
# ---------------------------------------------------------------------------

def _run_on_pool(jobs: Sequence[AnalysisJob], workers: int,
                 timeout: Optional[float],
                 policy: Optional[RetryPolicy] = None) -> List[JobResult]:
    """Fan out over supervised ProcessPoolExecutors; results in input order.

    Group rounds run every runnable job on one pool.  When the pool breaks,
    completed futures are harvested, never-started jobs are refunded their
    attempt and return to the next group round, and in-flight jobs become
    *suspects*: each re-runs alone on a single-worker pool (after the
    policy's deterministic backoff) so a further break is unambiguously its
    fault.  Two solo breaks quarantine the job as poison; the policy's
    ``max_attempts`` and per-batch retry ``budget`` bound everything else.
    """
    if not jobs:
        return []
    policy = policy if policy is not None else RetryPolicy()
    results: Dict[str, JobResult] = {}
    attempt: Dict[str, int] = {job.job_hash: 0 for job in jobs}
    solo_breaks: Dict[str, int] = {}
    events: Dict[str, List[Dict[str, object]]] = {job.job_hash: []
                                                  for job in jobs}
    retries_used = 0
    claim_dir = tempfile.mkdtemp(prefix="repro-claims-")
    fresh: List[AnalysisJob] = list(jobs)
    suspects: List[AnalysisJob] = []

    def lost_event(job_hash: str, detail: str) -> Dict[str, object]:
        return {"site": "pool", "kind": "worker-lost",
                "key": f"{job_hash}:{attempt[job_hash]}", "detail": detail}

    def give_up(job: AnalysisJob, reason: str) -> None:
        results[job.job_hash] = JobResult(
            name=job.name, job_hash=job.job_hash, status="error",
            message=f"worker lost: {reason}")

    try:
        while fresh or suspects:
            if fresh:
                group = fresh
                fresh = []
                for job in group:
                    attempt[job.job_hash] += 1
                round_results, broke = _pool_round(
                    group, min(workers, len(group)), timeout, attempt,
                    claim_dir)
                for job, result in zip(group, round_results):
                    if result is not None:
                        results[job.job_hash] = result
                if not broke:
                    continue
                for job, result in zip(group, round_results):
                    if result is not None:
                        continue
                    job_hash = job.job_hash
                    if os.path.exists(_claim_path(claim_dir, job_hash,
                                                  attempt[job_hash])):
                        # In flight when the pool died: a crash suspect.
                        events[job_hash].append(lost_event(
                            job_hash, "in flight when the worker pool broke"))
                        if attempt[job_hash] >= policy.max_attempts:
                            give_up(job, f"pool broke on final attempt "
                                         f"{attempt[job_hash]}")
                        elif policy.budget is not None \
                                and retries_used >= policy.budget:
                            give_up(job, "batch retry budget exhausted")
                        else:
                            retries_used += 1
                            suspects.append(job)
                    else:
                        # Never started: innocent.  Refund the attempt and
                        # run it in the next (rebuilt) group round.
                        attempt[job_hash] -= 1
                        fresh.append(job)
            else:
                job = suspects.pop(0)
                job_hash = job.job_hash
                attempt[job_hash] += 1
                delay = policy.backoff(job_hash, attempt[job_hash])
                if delay > 0:
                    time.sleep(delay)
                round_results, broke = _pool_round(
                    [job], 1, timeout, attempt, claim_dir)
                if round_results[0] is not None:
                    results[job_hash] = round_results[0]
                    continue
                solo_breaks[job_hash] = solo_breaks.get(job_hash, 0) + 1
                events[job_hash].append(lost_event(
                    job_hash, f"broke a single-worker pool "
                              f"(solo break {solo_breaks[job_hash]})"))
                if solo_breaks[job_hash] >= POISON_SOLO_BREAKS:
                    events[job_hash].append({
                        "site": "pool", "kind": "poison-quarantine",
                        "key": f"{job_hash}:{attempt[job_hash]}",
                        "detail": f"quarantined after {solo_breaks[job_hash]} "
                                  f"attributable pool breaks"})
                    give_up(job, f"poison job quarantined after "
                                 f"{solo_breaks[job_hash]} pool breaks")
                elif attempt[job_hash] >= policy.max_attempts:
                    give_up(job, f"pool broke on final attempt "
                                 f"{attempt[job_hash]}")
                elif policy.budget is not None \
                        and retries_used >= policy.budget:
                    give_up(job, "batch retry budget exhausted")
                else:
                    retries_used += 1
                    suspects.append(job)
    finally:
        shutil.rmtree(claim_dir, ignore_errors=True)

    ordered: List[JobResult] = []
    for job in jobs:
        job_hash = job.job_hash
        result = results.get(job_hash)
        if result is None:   # defensive: supervision must not lose jobs
            result = JobResult(name=job.name, job_hash=job_hash,
                               status="error",
                               message="worker lost: job was never resolved")
        result.attempts = max(attempt[job_hash], 1)
        if events[job_hash]:
            result.fault_events = list(result.fault_events) + events[job_hash]
        ordered.append(result)
    return ordered


def _claim_path(claim_dir: str, job_hash: str, attempt: int) -> str:
    return os.path.join(claim_dir, f"{job_hash}.{attempt}")


def _pool_round(jobs: Sequence[AnalysisJob], pool_size: int,
                timeout: Optional[float], attempt: Dict[str, int],
                claim_dir: str) -> Tuple[List[Optional[JobResult]], bool]:
    """One fresh pool over ``jobs``: per-job results (None = unresolved).

    Per-job deadlines are rolling: job ``i`` cannot start before a worker
    slot frees up, so its clock starts at the ``(i - pool_size)``-th
    completion (round start for the first wave).  A fast job queued behind
    a slow one is therefore never misreported as timed out.

    Returns ``(results, broke)``; ``broke`` is True when the pool died.
    Futures that completed before the break are still harvested -- only
    genuinely unresolved jobs come back as None, for the supervision loop
    to triage via their claim files.
    """
    results: List[Optional[JobResult]] = [None] * len(jobs)
    executor = ProcessPoolExecutor(
        max_workers=pool_size,
        mp_context=_pool_context(),
        initializer=_worker_init)
    overdue = False
    broke = False
    futures = []
    try:
        start = time.monotonic()
        # When the i-th waited-on future settled (timeouts settle at the
        # moment we gave up on them: the worker is still busy, so jobs
        # queued behind are not starting either).
        settled_at: List[float] = []
        futures = [executor.submit(
            _execute_job, job, attempt[job.job_hash],
            _claim_path(claim_dir, job.job_hash, attempt[job.job_hash]))
            for job in jobs]
        for index, (job, future) in enumerate(zip(jobs, futures)):
            remaining = None
            if timeout is not None:
                slot_free = settled_at[index - pool_size] \
                    if index >= pool_size else start
                remaining = max(0.0, slot_free + timeout - time.monotonic())
            try:
                results[index] = future.result(timeout=remaining)
            except FutureTimeout:
                if future.cancel():
                    status, note = "cancelled", "cancelled: batch deadline reached"
                else:
                    status, note = "timeout", \
                        f"timed out after {timeout:.1f}s wall-clock budget"
                    overdue = True
                results[index] = JobResult(name=job.name, job_hash=job.job_hash,
                                           status=status, message=note)
            except BrokenProcessPool:
                # The pool died (OOM-killed worker, injected crash, ...).
                # Stop waiting; the supervision loop rebuilds and re-submits.
                broke = True
                break
            except Exception as exc:  # noqa: BLE001 -- surface, don't crash batch
                results[index] = JobResult(name=job.name, job_hash=job.job_hash,
                                           status="error",
                                           message=f"{type(exc).__name__}: {exc}")
            settled_at.append(time.monotonic())
        if broke:
            # Harvest everything that finished before the pool died.
            for index, future in enumerate(futures):
                if results[index] is not None or not future.done():
                    continue
                try:
                    results[index] = future.result(timeout=0)
                except Exception:  # noqa: BLE001 -- broken future: stays None
                    pass
    except KeyboardInterrupt:
        for future in futures:
            future.cancel()
        _terminate_workers(executor)
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if overdue:
            # A timed-out job is still burning its worker, and the
            # executor's atexit hook would join it forever: kill the
            # worker processes so shutdown (and interpreter exit)
            # actually completes.
            _terminate_workers(executor)
        executor.shutdown(wait=not (overdue or broke), cancel_futures=True)
    return results, broke


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Forcefully stop the pool's worker processes (stuck/overdue jobs).

    Reaches into the executor's process table -- there is no public kill
    switch on ProcessPoolExecutor, and without this a worker stuck in a
    never-terminating analysis would block interpreter exit.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):
            pass


# ---------------------------------------------------------------------------
# The long-lived supervised pool (the gateway's execution backend)
# ---------------------------------------------------------------------------

class SupervisedPool:
    """A persistent worker pool accepting one job at a time, supervised.

    ``run_batch``/``_run_on_pool`` build a fresh pool per batch -- right
    for CLI batches, far too heavy for a gateway answering a stream of
    single requests.  This class keeps one ``ProcessPoolExecutor`` warm
    across requests (per-worker engines stay hot) and exposes a blocking,
    thread-safe :meth:`submit` for the gateway's dispatcher threads.

    Supervision is per-submission: a ``BrokenProcessPool`` rebuilds the
    executor (one rebuilder; concurrent submitters whose futures died with
    it simply retry on the fresh pool) and the job is retried up to the
    policy's ``max_attempts`` with deterministic backoff.  A job that
    exceeds ``timeout`` is reported as ``timeout`` and its stuck worker is
    terminated with the pool rebuilt -- collateral in-flight jobs from
    other dispatcher threads see the break and retry, bounded by the same
    policy.  Callers are expected to keep concurrent submissions at or
    below ``workers`` (the gateway sizes its dispatcher thread pool to
    match), so a submitted job starts immediately and its timeout clock is
    honest.
    """

    def __init__(self, workers: int, timeout: Optional[float] = None,
                 policy: Optional[RetryPolicy] = None) -> None:
        self.workers = max(1, workers)
        self.timeout = timeout
        self.policy = policy if policy is not None else RetryPolicy()
        self.rebuilds = 0
        self._lock = threading.Lock()
        self._generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # -- pool lifecycle ----------------------------------------------------

    def _ensure(self) -> Tuple[ProcessPoolExecutor, int]:
        with self._lock:
            if self._closed:
                raise RuntimeError("SupervisedPool is shut down")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_pool_context(),
                    initializer=_worker_init)
            return self._executor, self._generation

    def _rebuild(self, generation: int, terminate: bool = False) -> None:
        """Retire the pool of ``generation`` (idempotent across threads)."""
        with self._lock:
            if self._generation != generation or self._executor is None:
                return   # another thread already rebuilt this generation
            executor = self._executor
            self._executor = None
            self._generation += 1
            self.rebuilds += 1
        if terminate:
            _terminate_workers(executor)
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Drain and close the pool (idempotent)."""
        with self._lock:
            executor = self._executor
            self._executor = None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # -- execution ---------------------------------------------------------

    def submit(self, job: AnalysisJob) -> JobResult:
        """Run one job to a result (blocking; safe from many threads)."""
        attempt = 0
        events: List[Dict[str, object]] = []
        while True:
            attempt += 1
            try:
                executor, generation = self._ensure()
            except RuntimeError:
                return self._lost(job, attempt, events,
                                  "gateway pool shut down")
            try:
                future = executor.submit(_execute_job, job, attempt)
            except (RuntimeError, BrokenProcessPool):
                # The executor died or was retired between _ensure and
                # submit: rebuild that generation and try again.
                self._rebuild(generation)
                continue
            try:
                result = future.result(timeout=self.timeout)
                break
            except FutureTimeout:
                # The worker is stuck past the budget: report the timeout
                # and put the pool down (a terminate is the only way to
                # free the seat).  Innocent co-in-flight jobs see the
                # break and retry on the rebuilt pool.
                self._rebuild(generation, terminate=True)
                result = JobResult(
                    name=job.name, job_hash=job.job_hash, status="timeout",
                    message=f"timed out after {self.timeout:.1f}s "
                            f"wall-clock budget")
                break
            except BrokenProcessPool:
                self._rebuild(generation)
                events.append({
                    "site": "pool", "kind": "worker-lost",
                    "key": f"{job.job_hash}:{attempt}",
                    "detail": "in flight when the gateway pool broke"})
                if attempt >= self.policy.max_attempts:
                    return self._lost(job, attempt, events,
                                      f"pool broke on final attempt "
                                      f"{attempt}")
                delay = self.policy.backoff(job.job_hash, attempt)
                if delay > 0:
                    time.sleep(delay)
            except Exception as exc:  # noqa: BLE001 -- surface, don't crash
                result = JobResult(
                    name=job.name, job_hash=job.job_hash, status="error",
                    message=f"{type(exc).__name__}: {exc}")
                break
        result.attempts = max(result.attempts, attempt)
        if events:
            result.fault_events = list(result.fault_events) + events
        return result

    def _lost(self, job: AnalysisJob, attempt: int,
              events: List[Dict[str, object]], reason: str) -> JobResult:
        result = JobResult(name=job.name, job_hash=job.job_hash,
                           status="error", message=f"worker lost: {reason}",
                           attempts=attempt)
        result.fault_events = events
        return result

    def describe(self) -> Dict[str, object]:
        """JSON-able pool state for gateway stats/health endpoints."""
        with self._lock:
            alive = self._executor is not None
        return {"workers": self.workers, "timeout": self.timeout,
                "alive": alive, "rebuilds": self.rebuilds,
                "closed": self._closed}


def run_jobs(jobs: Sequence[AnalysisJob], workers: int = 0,
             store: Optional[ResultStore] = None,
             timeout: Optional[float] = None,
             refresh: bool = False,
             retry: Optional[RetryPolicy] = None,
             degrade: bool = True) -> List[JobResult]:
    """Convenience wrapper returning just the results, in input order."""
    return run_batch(jobs, SchedulerConfig(workers=workers, timeout=timeout,
                                           store=store, refresh=refresh,
                                           retry=retry,
                                           degrade=degrade)).results
