"""``repro serve``: a line-oriented JSON analysis service.

One request per line on stdin, one JSON response per line on stdout -- the
simplest protocol that lets an external driver (a CI harness, a notebook, a
socket wrapper like ``socat``) hand programs to a long-lived analyzer
process and benefit from the warm in-process entailment caches *and* the
persistent result store across requests.

Requests::

    {"op": "analyze", "id": 1, "source": "proc main(n) {...}",
     "options": {"max_degree": 2}, "name": "mine"}
    {"op": "batch", "id": 2, "workers": 4,
     "jobs": [{"source": "...", "options": {...}, "name": "a"}, ...]}
    {"op": "stats", "id": 3}
    {"op": "health", "id": 4}
    {"op": "ping"}
    {"op": "shutdown"}

Responses mirror the request ``id`` and carry ``status`` plus the full
:class:`~repro.service.jobs.JobResult` record(s).  ``analyze`` runs inline
(the per-request latency of spinning up a pool would dwarf a single
analysis); ``batch`` fans out through the scheduler.

The loop is built to outlive its requests: malformed lines and *any*
per-request exception -- expected validation errors and unexpected bugs
alike -- produce an ``{"error": ...}`` response and the server keeps
serving.  A reader that hangs up mid-response (stdout
``BrokenPipeError``) shuts the loop down cleanly instead of tracing back,
and the ``health`` op reports pool/store/engine state (plus any active
fault-injection config) for liveness probes.

Shutdown is graceful: SIGINT/SIGTERM finish the request in flight (its
response is still written, and with it any pending store writes), then
the loop exits 0 instead of tracing back mid-analysis.  The asyncio
gateway (:mod:`repro.service.gateway`, ``repro serve --async``) is the
concurrent counterpart of this loop.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import IO, Dict, List, Optional

from repro.service.jobs import AnalysisJob
from repro.service.scheduler import SchedulerConfig, run_batch
from repro.service.store import ResultStore


def _job_from_request(payload: Dict[str, object], index: int = 0,
                      defaults: Optional[Dict[str, object]] = None) -> AnalysisJob:
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("request needs a non-empty 'source' string")
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    if defaults:
        # Server-level defaults (e.g. ``--degree-limit``) apply underneath
        # the request's own options; merged options take part in the job
        # hash, so cached results never alias across different defaults.
        options = {**defaults, **options}
    name = payload.get("name")
    return AnalysisJob.create(str(name) if name else f"request-{index}",
                              source, options)


class _GracefulShutdown(Exception):
    """Raised out of a blocking read when a drain signal arrives idle."""


class AnalysisServer:
    """Stateful request loop over a store and (for batches) a worker pool."""

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 0,
                 default_options: Optional[Dict[str, object]] = None) -> None:
        self.store = store
        self.workers = workers
        self.default_options = dict(default_options or {})
        self.requests_served = 0
        self._shutdown = False
        self._busy = False

    def request_shutdown(self, *_signal_args) -> None:
        """Signal-handler entry: drain the request in flight, then exit.

        Mid-request the handler only sets a flag -- the running analysis
        finishes, its response (and store write) lands, and the loop
        breaks before the next read.  Idle (blocked in ``readline``) it
        raises, breaking the blocking read immediately; PEP 475 would
        otherwise retry the read and keep an idle server alive until the
        next request.
        """
        self._shutdown = True
        if not self._busy:
            raise _GracefulShutdown()

    # -- request handlers --------------------------------------------------

    def handle(self, payload: Dict[str, object]) -> Dict[str, object]:
        op = payload.get("op", "analyze")
        if op == "ping":
            return {"op": "ping", "ok": True}
        if op == "stats":
            return self._handle_stats()
        if op == "health":
            return self._handle_health()
        if op == "analyze":
            return self._handle_analyze(payload)
        if op == "batch":
            return self._handle_batch(payload)
        if op == "lint":
            return self._handle_lint(payload)
        return {"error": f"unknown op {op!r}"}

    def _handle_lint(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Run the static lint passes over one source text (no analysis)."""
        from repro.lang.analysis import (lint_source, max_severity,
                                         severity_counts)
        from repro.lang.parser import parse_program

        source = payload.get("source")
        if not isinstance(source, str):
            raise ValueError("'lint' needs a 'source' string")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("'options' must be an object")
        counter = options.get("resource_counter")
        try:
            program = parse_program(source)
        except Exception:
            diagnostics = lint_source(source)
        else:
            # The resource counter is zero-initialized by convention, so
            # counter updates are not uninitialized reads.
            seed = set(program.main_procedure.params)
            if counter:
                seed.add(str(counter))
            diagnostics = lint_source(source, initial_state=seed)
        return {
            "op": "lint",
            "name": str(payload.get("name") or "<request>"),
            "severity": max_severity(diagnostics),
            "counts": severity_counts(diagnostics),
            "diagnostics": [diag.to_dict() for diag in diagnostics],
        }

    def _handle_analyze(self, payload: Dict[str, object]) -> Dict[str, object]:
        job = _job_from_request(payload, self.requests_served,
                                self.default_options)
        report = run_batch([job], SchedulerConfig(workers=0, store=self.store))
        outcome = report.outcomes[0]
        return {"op": "analyze", "status": outcome.result.status,
                "cached": outcome.cached, "result": outcome.result.to_record()}

    def _handle_batch(self, payload: Dict[str, object]) -> Dict[str, object]:
        raw_jobs = payload.get("jobs")
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ValueError("'batch' needs a non-empty 'jobs' array")
        jobs = [_job_from_request(raw, index, self.default_options)
                for index, raw in enumerate(raw_jobs)]
        workers = payload.get("workers", self.workers)
        timeout = payload.get("timeout")
        report = run_batch(jobs, SchedulerConfig(
            workers=int(workers), store=self.store,
            timeout=float(timeout) if timeout is not None else None))
        return {
            "op": "batch",
            "wall_seconds": report.wall_seconds,
            "cache_hits": report.cache_hits,
            "results": [outcome.result.to_record()
                        for outcome in report.outcomes],
            "cached": [outcome.cached for outcome in report.outcomes],
        }

    def _handle_stats(self) -> Dict[str, object]:
        from repro.logic.entailment import get_engine

        store_stats = None
        if self.store is not None:
            store_stats = self.store.stats.as_dict()
            store_stats["quarantine_records"] = self.store.quarantine_count()
        return {
            "op": "stats",
            "requests_served": self.requests_served,
            "store": store_stats,
            "engine": get_engine().stats.as_dict(),
        }

    def _handle_health(self) -> Dict[str, object]:
        """Liveness/readiness probe: pool config, store and engine state."""
        from repro.logic.entailment import engine_fingerprint
        from repro.service import faults
        from repro.service.jobs import SCHEMA_VERSION

        store_state = None
        if self.store is not None:
            store_state = {
                "root": self.store.root,
                "records": len(self.store),
                "quarantine_records": self.store.quarantine_count(),
                "stats": self.store.stats.as_dict(),
            }
        return {
            "op": "health",
            "ok": True,
            "schema": SCHEMA_VERSION,
            "requests_served": self.requests_served,
            "pool": {"workers": self.workers,
                     "default_options": self.default_options},
            "store": store_state,
            "engine": engine_fingerprint(),
            "faults": faults.describe(),
        }

    # -- the loop ----------------------------------------------------------

    def serve(self, input_stream: IO[str], output_stream: IO[str]) -> int:
        """Process requests until shutdown/EOF/signal; return served count."""
        while not self._shutdown:
            self._busy = False
            try:
                line = input_stream.readline()
            except _GracefulShutdown:
                break
            self._busy = True
            if not line:
                break   # EOF
            line = line.strip()
            if not line:
                continue
            response: Dict[str, object]
            request_id = None
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("request must be a JSON object")
                request_id = payload.get("id")
                if payload.get("op") == "shutdown":
                    response = {"op": "shutdown", "ok": True}
                    if request_id is not None:
                        response["id"] = request_id
                    try:
                        self._respond(output_stream, response)
                    except BrokenPipeError:
                        pass
                    break
                response = self.handle(payload)
            except (ValueError, TypeError, KeyError) as exc:
                response = {"error": str(exc)}
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 -- one request must
                # never take the server down; unexpected failures become a
                # structured error naming the exception class.
                response = {"error": f"{type(exc).__name__}: {exc}"}
            if request_id is not None:
                response.setdefault("id", request_id)
            self.requests_served += 1
            try:
                self._respond(output_stream, response)
            except BrokenPipeError:
                # The reader hung up: there is nobody left to answer, so
                # shut down cleanly instead of tracing back.
                break
        return self.requests_served

    @staticmethod
    def _respond(output_stream: IO[str], response: Dict[str, object]) -> None:
        json.dump(response, output_stream, separators=(",", ":"))
        output_stream.write("\n")
        output_stream.flush()


def serve_stdio(store: Optional[ResultStore] = None, workers: int = 0,
                default_options: Optional[Dict[str, object]] = None) -> int:
    """Entry point for ``repro serve``: loop over stdin/stdout.

    SIGINT/SIGTERM drain gracefully (finish the in-flight request, flush
    its response and store write, exit 0) instead of tracing back.
    """
    server = AnalysisServer(store=store, workers=workers,
                            default_options=default_options)
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum,
                                             server.request_shutdown)
        except ValueError:
            # Not the main thread (embedded use): signals stay whoever's
            # they were; EOF/shutdown-op still stop the loop.
            pass
    try:
        server.serve(sys.stdin, sys.stdout)
    except _GracefulShutdown:
        # The drain signal landed outside the loop's own read guard
        # (e.g. while writing a response just before the next read).
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
