"""Retry policy for the supervised scheduler: backoff, budgets, classification.

One :class:`RetryPolicy` answers three questions for the scheduler's
supervision loop (:mod:`repro.service.scheduler`):

* **should this failure be retried?** -- :meth:`classify` splits job
  statuses into *retryable* infrastructure failures (a broken pool, a
  worker crash) and *terminal* outcomes (parse errors, no-bound, analysis
  errors) that re-running cannot change;
* **how long do we wait?** -- :meth:`backoff` is exponential with seeded,
  deterministic jitter: the delay for attempt ``k`` of job ``h`` depends
  only on ``(seed, h, k)``, so a retry schedule is exactly reproducible
  across runs (the chaos gate depends on this);
* **when do we stop?** -- per-job ``max_attempts`` plus a per-batch
  ``budget`` of total retries, so a systematically broken environment
  (every worker dies instantly) degrades to structured errors in bounded
  time instead of retrying forever.

The jitter uses the same SHA-256 unit-fraction construction as the fault
registry (:func:`repro.service.faults.unit_fraction`) rather than
``random.Random``: no process-global state, no seed handoff to workers, and
identical schedules on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.service.faults import unit_fraction

#: Statuses that indicate the *infrastructure* failed, not the job: the job
#: never got a fair chance to run, so re-running it is meaningful.
RETRYABLE_STATUSES = frozenset({"worker-lost", "store-error"})

#: Statuses that are properties of the job's content (or of its resource
#: budget): re-running under the same configuration reproduces them.  The
#: degradation ladder may still *change the configuration* for one of
#: these ("timeout" retries at a lower degree) -- that is a deliberate
#: one-rung fallback, not a retry.
TERMINAL_STATUSES = frozenset({
    "ok", "no-bound", "parse-error", "analysis-error", "resource-limit",
    "timeout", "cancelled", "error",
})


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff with a per-batch retry budget."""

    #: Total attempts per job, including the first (1 = never retry).
    max_attempts: int = 3
    #: Delay before the first retry, in seconds.
    base_delay: float = 0.05
    #: Multiplier per further retry.
    factor: float = 2.0
    #: Ceiling on any single delay.
    max_delay: float = 2.0
    #: Jitter width as a fraction of the computed delay (0.25 = up to +25%).
    jitter: float = 0.25
    #: Seed for the deterministic jitter schedule.
    seed: int = 0
    #: Per-batch cap on total retries across all jobs (None = unbounded).
    budget: int = 8

    def classify(self, status: str) -> bool:
        """True when ``status`` is a retryable infrastructure failure."""
        return status in RETRYABLE_STATUSES

    def backoff(self, key: str, attempt: int) -> float:
        """Delay in seconds before attempt ``attempt`` (2 = first retry).

        Deterministic in ``(seed, key, attempt)``: the same job retried in
        the same run position always waits exactly as long, so chaos runs
        are reproducible down to their sleep schedule.
        """
        if attempt <= 1:
            return 0.0
        delay = min(self.max_delay,
                    self.base_delay * self.factor ** (attempt - 2))
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * unit_fraction(
                self.seed, "backoff", key, attempt)
        return round(delay, 6)

    def schedule(self, key: str, attempts: int = None) -> List[float]:
        """The full backoff schedule for a job (handy for tests and docs)."""
        upto = attempts if attempts is not None else self.max_attempts
        return [self.backoff(key, attempt) for attempt in range(2, upto + 1)]
