"""Batch-analysis orchestration: jobs, scheduler, persistent store, gateway.

This layer turns the one-shot analyzer (:mod:`repro.core.analyzer`) into a
throughput-oriented system:

* :mod:`repro.service.jobs` -- picklable, content-addressed analysis jobs
  and JSON-able results (bound + derivation certificate included);
* :mod:`repro.service.scheduler` -- multiprocess fan-out with per-worker
  warm entailment engines, per-job timeouts, deterministic result order,
  and supervision: pool rebuilds, retry/backoff, poison-job quarantine and
  the graceful-degradation ladder;
* :mod:`repro.service.retry` -- the deterministic retry/backoff policy the
  supervisor runs under;
* :mod:`repro.service.faults` -- the seeded fault-injection registry behind
  the chaos tests and the CI chaos leg;
* :mod:`repro.service.store` -- the on-disk content-addressed result cache
  (checksummed records, corrupt-entry quarantine);
* :mod:`repro.service.cache` -- the in-process hot LRU above the store;
* :mod:`repro.service.gateway` -- ``repro serve``: one request dispatcher
  over the cache tiers and a supervised pool, answering JSON lines on
  stdin/stdout or, with ``--async``, over TCP.

See ARCHITECTURE.md for where this sits in the layer cake.
"""

from repro.service.faults import (FaultRegistry, FaultSpec, InjectedFault,
                                  unit_fraction)
from repro.service.jobs import (AnalysisJob, JobResult, bound_from_payload,
                                job_from_benchmark, job_from_file, run_job)
from repro.service.retry import RetryPolicy
from repro.service.scheduler import (BatchReport, JobOutcome, SchedulerConfig,
                                     default_worker_count, run_batch, run_jobs)
from repro.service.store import ResultStore, default_cache_dir

__all__ = [
    "AnalysisJob", "JobResult", "bound_from_payload", "job_from_benchmark",
    "job_from_file", "run_job",
    "BatchReport", "JobOutcome", "SchedulerConfig", "default_worker_count",
    "run_batch", "run_jobs",
    "ResultStore", "default_cache_dir",
    "FaultRegistry", "FaultSpec", "InjectedFault", "unit_fraction",
    "RetryPolicy",
]
