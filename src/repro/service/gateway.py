"""The analysis gateway: one request dispatcher behind two transports.

The gateway validates and content-hashes every request into an
:class:`~repro.service.jobs.AnalysisJob` and answers it through four tiers,
cheapest first:

1. **hot memory** -- a size-bounded in-process LRU of deserialised results
   (:class:`~repro.service.cache.HotResultCache`), no disk I/O at all;
2. **disk store** -- the shared content-addressed
   :class:`~repro.service.store.ResultStore` (safe for many gateway/worker
   processes on one root); hits are promoted into the hot tier;
3. **coalescing** -- a request whose job hash is already *in flight*
   attaches to the existing computation instead of spawning another: a
   storm of identical requests costs exactly one analysis, and every
   waiter gets the same :class:`~repro.service.jobs.JobResult` when it
   lands;
4. **computation** -- the job enters a bounded admission queue and runs on
   the long-lived :class:`~repro.service.scheduler.SupervisedPool` (worker
   processes with warm engines, pool-break supervision, the graceful
   degradation ladder).  When the queue is full the gateway answers a
   structured ``busy`` response with a ``retry_after`` estimate instead of
   accepting unbounded work -- backpressure, not collapse.

Two transports feed the same dispatcher (:meth:`AnalysisGateway._process_line`),
each handing it a ``respond(dict)`` coroutine that writes one response line:

* **TCP** (``repro serve --async``, :func:`run_gateway`) -- an asyncio
  JSON-lines server (localhost by default) that accepts many simultaneous
  connections and runs each connection's requests concurrently.  Responses
  carry the request ``id``, so clients may pipeline requests on one
  connection and match answers by id -- completion order is not request
  order.
* **stdio** (``repro serve``, :func:`run_stdio`) -- one request per stdin
  line, answered completely (a batch's every ``batch-result`` line and its
  ``batch-done`` line) before the next line is read, so responses come out
  in input order.  A daemon thread reads stdin, so a blocked read never
  keeps the process from exiting.

Batch requests stream: each job's result is written the moment it lands
(``batch-result`` lines, then one ``batch-done`` summary), never held back
at a batch barrier.  Malformed lines and *any* per-request exception become
an ``{"error": ...}`` response and the gateway keeps serving.

Shutdown is graceful: SIGINT/SIGTERM, a ``shutdown`` request, stdin EOF or a
stdout reader that hangs up stops taking requests, drains in-flight ones
(their responses are still delivered and their store writes still land),
retires the worker pool, and exits 0.

Protocol (one JSON object per line, newline-terminated)::

    {"op": "analyze", "id": 1, "source": "proc main(n) {...}",
     "options": {"max_degree": 2}, "name": "mine"}
    {"op": "batch", "id": 2, "jobs": [{"source": "..."}, ...]}
    {"op": "lint", "id": 3, "source": "...", "options": {...}}
    {"op": "stats", "id": 4}
    {"op": "health", "id": 5}
    {"op": "ping"}
    {"op": "shutdown"}

``analyze`` responses::

    {"op": "analyze", "id": 1, "status": "ok", "tier": "memory|store|"
     "coalesced|computed", "cached": true|false, "result": {...}}
    {"op": "analyze", "id": 1, "status": "busy", "error": "...",
     "retry_after": 0.8}
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import json
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (IO, Awaitable, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from repro.service.cache import DEFAULT_HOT_CACHE_SIZE, HotResultCache
from repro.service.jobs import AnalysisJob, JobResult
from repro.service.retry import RetryPolicy
from repro.service.scheduler import (SupervisedPool, _execute_job,
                                     apply_degradation)
from repro.service.store import ResultStore

#: Gateway defaults: loopback only (an analysis service executes nothing,
#: but there is no reason to listen wider without being asked).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 9471

#: Admission-queue bound: distinct jobs accepted but not yet resolved.
#: Beyond it the gateway answers ``busy`` instead of queueing more work.
DEFAULT_QUEUE_LIMIT = 64

#: How long a graceful shutdown waits for in-flight requests to land.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: Reader line limit: programs travel as source text in one JSON line.
LINE_LIMIT = 4 * 1024 * 1024

#: Fallback ``retry_after`` before any job has been timed.
DEFAULT_JOB_WALL_ESTIMATE = 0.5

#: How a transport writes one response line for the dispatcher.
Respond = Callable[[Dict[str, object]], Awaitable[None]]


def _request_options(payload: Dict[str, object]) -> Dict[str, object]:
    """The request's ``options``: only a missing or null value means none."""
    options = payload.get("options")
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    return options


def _job_from_request(payload: Dict[str, object], index: int = 0,
                      defaults: Optional[Dict[str, object]] = None
                      ) -> AnalysisJob:
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("request needs a non-empty 'source' string")
    options = _request_options(payload)
    if defaults:
        # Server-level defaults (e.g. ``--degree-limit``) apply underneath
        # the request's own options; merged options take part in the job
        # hash, so cached results never alias across different defaults.
        options = {**defaults, **options}
    name = payload.get("name")
    return AnalysisJob.create(str(name) if name else f"request-{index}",
                              source, options)


class GatewayBusy(Exception):
    """Raised internally when admission control rejects a job."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"gateway saturated; retry in {retry_after}s")
        self.retry_after = retry_after


class GatewayStats:
    """Counters of one gateway process (reported by ``stats``/``health``)."""

    __slots__ = ("connections", "requests", "analyses", "memory_hits",
                 "store_hits", "coalesced", "busy_rejections", "errors")

    def __init__(self) -> None:
        self.connections = 0
        self.requests = 0
        self.analyses = 0        # jobs actually executed by this process
        self.memory_hits = 0     # answered from the hot LRU tier
        self.store_hits = 0      # answered from the disk store tier
        self.coalesced = 0       # attached to an in-flight duplicate
        self.busy_rejections = 0
        self.errors = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class AnalysisGateway:
    """The asyncio front end over cache tiers and the supervised pool."""

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 0,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 hot_cache_size: int = DEFAULT_HOT_CACHE_SIZE,
                 default_options: Optional[Dict[str, object]] = None,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 degrade: bool = True,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        if timeout is not None and workers < 1:
            raise ValueError("timeout requires workers >= 1 (inline "
                             "execution cannot preempt a running job)")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.default_options = dict(default_options or {})
        self.degrade = degrade
        self.drain_timeout = drain_timeout
        self.stats = GatewayStats()
        self.cache = (HotResultCache(hot_cache_size)
                      if hot_cache_size > 0 else None)
        self._pool: Optional[SupervisedPool] = None
        if workers >= 1:
            self._pool = SupervisedPool(workers, timeout=timeout,
                                        policy=retry)
        # Dispatcher threads bridge the event loop to the blocking pool
        # (or run jobs inline when workers=0); sized to the pool so a
        # submitted job always has a worker seat.
        self._dispatch = ThreadPoolExecutor(
            max_workers=max(1, workers),
            thread_name_prefix="gateway-dispatch")
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending = 0
        self._recent_walls: "collections.deque[float]" = \
            collections.deque(maxlen=32)
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._request_tasks: set = set()
        self._compute_tasks: set = set()
        self._shutdown_event: Optional[asyncio.Event] = None
        self._draining = False
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = DEFAULT_HOST,
                    port: int = DEFAULT_PORT) -> Tuple[str, int]:
        """Bind and start accepting connections; returns (host, port).

        ``port=0`` binds an ephemeral port (tests, benches); the actual
        port is in the returned tuple and in :attr:`address`.
        """
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=LINE_LIMIT)
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Serve until a shutdown is requested, then drain and stop."""
        assert self._shutdown_event is not None, "call start() first"
        await self._shutdown_event.wait()
        await self._drain()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (signal handlers, ``shutdown`` op)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def _drain(self) -> None:
        """Stop accepting, let in-flight work land, retire the pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_timeout
        for group in (self._request_tasks, self._compute_tasks):
            pending = [task for task in group if not task.done()]
            remaining = deadline - time.monotonic()
            if pending and remaining > 0:
                await asyncio.wait(pending, timeout=remaining)
        # Whatever is still running is past the drain budget: cancel.
        for group in (self._request_tasks, self._compute_tasks):
            for task in group:
                if not task.done():
                    task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        if self._pool is not None:
            # Pool shutdown joins worker processes; keep it off the loop.
            await loop.run_in_executor(None, self._pool.shutdown)
        self._dispatch.shutdown(wait=False)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        respond = functools.partial(self._send, writer, asyncio.Lock())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await respond({"error": "request line too long"})
                    break
                if not line:
                    break   # client hung up
                stripped = line.strip()
                if not stripped:
                    continue
                if self._draining:
                    await respond({"error": "gateway is shutting down",
                                   "status": "unavailable"})
                    continue
                request = asyncio.ensure_future(
                    self._process_line(stripped, respond))
                self._request_tasks.add(request)
                request.add_done_callback(self._request_tasks.discard)
        except asyncio.CancelledError:
            pass
        except ConnectionError:
            pass
        finally:
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def serve_stdio(self, lines: Iterable[Union[bytes, str]],
                          output: IO[str]) -> None:
        """The stdio transport: answer ``lines`` in order, then drain.

        Each request is answered completely before the next line is taken,
        so responses leave in input order.  The loop ends at the end of
        ``lines``, on a shutdown request or signal (after the request in
        flight is answered), or when ``output`` raises ``BrokenPipeError``
        (the reader hung up).  ``lines`` is consumed on a daemon thread: a
        read blocked on an idle pipe or terminal cannot hold the process.
        """
        self._shutdown_event = asyncio.Event()
        self.stats.connections += 1
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        # One line read ahead at most: input is consumed as it is served.
        ready = threading.Semaphore(1)

        def feed() -> None:
            with contextlib.suppress(RuntimeError):   # the loop has closed
                try:
                    for line in lines:
                        ready.acquire()
                        loop.call_soon_threadsafe(queue.put_nowait, line)
                finally:
                    loop.call_soon_threadsafe(queue.put_nowait, None)

        threading.Thread(target=feed, name="gateway-stdin",
                         daemon=True).start()

        async def respond(response: Dict[str, object]) -> None:
            try:
                output.write(json.dumps(response, separators=(",", ":"))
                             + "\n")
                output.flush()
            except BrokenPipeError:
                # The reader hung up: there is nobody left to answer.
                self.request_shutdown()

        stop = asyncio.ensure_future(self._shutdown_event.wait())
        try:
            while True:
                getter = asyncio.ensure_future(queue.get())
                await asyncio.wait((getter, stop),
                                   return_when=asyncio.FIRST_COMPLETED)
                if stop.done():
                    getter.cancel()
                    break
                line = getter.result()
                if line is None:
                    break   # end of input
                ready.release()
                line = line.strip()
                if line:
                    await self._process_line(line, respond)
        finally:
            stop.cancel()
        await self._drain()

    async def _process_line(self, line: Union[bytes, str],
                            respond: Respond) -> None:
        """Handle one request line; always answers exactly once (or, for a
        batch, once per job plus a summary) through ``respond``."""
        self.stats.requests += 1
        request_id = None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
            request_id = payload.get("id")
            op = payload.get("op", "analyze")
            if op == "batch":
                await self._handle_batch(payload, respond)
                return
            if op == "shutdown":
                response: Dict[str, object] = {"op": "shutdown", "ok": True}
                if request_id is not None:
                    response["id"] = request_id
                await respond(response)
                self.request_shutdown()
                return
            response = await self._handle_simple(op, payload)
        except GatewayBusy as busy:
            self.stats.busy_rejections += 1
            response = {"op": "analyze", "status": "busy",
                        "error": str(busy),
                        "retry_after": busy.retry_after}
        except (ValueError, TypeError, KeyError) as exc:
            self.stats.errors += 1
            response = {"error": str(exc)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 -- one request must never
            # take the gateway down; unexpected failures become a
            # structured error naming the exception class.
            self.stats.errors += 1
            response = {"error": f"{type(exc).__name__}: {exc}"}
        if request_id is not None:
            response.setdefault("id", request_id)
        await respond(response)

    async def _handle_simple(self, op: str,
                             payload: Dict[str, object]) -> Dict[str, object]:
        if op == "ping":
            return {"op": "ping", "ok": True}
        if op == "stats":
            return self._handle_stats()
        if op == "health":
            return self._handle_health()
        if op == "analyze":
            job = _job_from_request(payload, self.stats.requests,
                                    self.default_options)
            result, tier = await self._resolve(job)
            return {"op": "analyze", "status": result.status,
                    "tier": tier, "cached": tier in ("memory", "store"),
                    "result": result.to_record()}
        if op == "lint":
            return await self._handle_lint(payload)
        raise ValueError(f"unknown op {op!r}")

    async def _handle_lint(self,
                           payload: Dict[str, object]) -> Dict[str, object]:
        """Run the static lint passes over one source text.

        Lint is deterministic and cheap (no LP, no derivation), so it
        bypasses the cache tiers and the worker pool; the walk still runs
        on an executor thread to keep the event loop responsive.
        """
        from repro.lang.analysis import (lint_source, max_severity,
                                         severity_counts)

        source = payload.get("source")
        if not isinstance(source, str):
            raise ValueError("'lint' needs a 'source' string")
        name = str(payload.get("name") or "<request>")
        options = _request_options(payload)
        # Mirror the analyzer's pre-flight seeding: the resource counter
        # is zero-initialized by convention.
        counter = options.get("resource_counter")
        loop = asyncio.get_running_loop()

        def run_lint():
            from repro.lang.parser import parse_program
            try:
                program = parse_program(source)
            except Exception:
                return lint_source(source)
            seed = set(program.main_procedure.params)
            if counter:
                seed.add(str(counter))
            return lint_source(source, initial_state=seed)

        diagnostics = await loop.run_in_executor(None, run_lint)
        return {
            "op": "lint",
            "name": name,
            "severity": max_severity(diagnostics),
            "counts": severity_counts(diagnostics),
            "diagnostics": [diag.to_dict() for diag in diagnostics],
        }

    async def _handle_batch(self, payload: Dict[str, object],
                            respond: Respond) -> None:
        """Fan a batch out and stream each result as it completes."""
        request_id = payload.get("id")
        raw_jobs = payload.get("jobs")
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ValueError("'batch' needs a non-empty 'jobs' array")
        jobs = [_job_from_request(raw, index, self.default_options)
                for index, raw in enumerate(raw_jobs)]
        start = time.perf_counter()
        statuses: List[str] = [""] * len(jobs)

        async def run_one(index: int, job: AnalysisJob) -> None:
            response: Dict[str, object]
            try:
                result, tier = await self._resolve(job)
                response = {"op": "batch-result", "index": index,
                            "status": result.status, "tier": tier,
                            "cached": tier in ("memory", "store"),
                            "result": result.to_record()}
            except GatewayBusy as busy:
                self.stats.busy_rejections += 1
                response = {"op": "batch-result", "index": index,
                            "status": "busy", "error": str(busy),
                            "retry_after": busy.retry_after}
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 -- per-job isolation
                self.stats.errors += 1
                response = {"op": "batch-result", "index": index,
                            "status": "error",
                            "error": f"{type(exc).__name__}: {exc}"}
            statuses[index] = str(response["status"])
            if request_id is not None:
                response["id"] = request_id
            await respond(response)

        await asyncio.gather(*(run_one(index, job)
                               for index, job in enumerate(jobs)))
        summary: Dict[str, object] = {
            "op": "batch-done",
            "jobs": len(jobs),
            "busy": statuses.count("busy"),
            "failed": sum(1 for status in statuses
                          if status not in ("ok", "busy")),
            "wall_seconds": round(time.perf_counter() - start, 4),
        }
        if request_id is not None:
            summary["id"] = request_id
        await respond(summary)

    # -- the tiers ---------------------------------------------------------

    async def _resolve(self, job: AnalysisJob) -> Tuple[JobResult, str]:
        """Answer one job through the cheapest tier that has it."""
        job_hash = job.job_hash
        if self.cache is not None:
            hot = self.cache.get(job_hash)
            if hot is not None:
                self.stats.memory_hits += 1
                return self._named(hot, job), "memory"
        inflight = self._inflight.get(job_hash)
        if inflight is not None:
            self.stats.coalesced += 1
            # shield(): one waiter disconnecting must not cancel the
            # computation every other waiter is attached to.
            result = await asyncio.shield(inflight)
            return self._named(result, job), "coalesced"
        if self.store is not None:
            loop = asyncio.get_running_loop()
            stored = await loop.run_in_executor(None, self.store.get,
                                                job_hash)
            if stored is not None:
                self.stats.store_hits += 1
                if self.cache is not None:
                    self.cache.put(stored)
                return self._named(stored, job), "store"
            # The store probe awaited, so another request for the same
            # hash may have registered meanwhile: re-check before
            # registering, else a storm of simultaneous cold duplicates
            # would each start its own analysis.  From here to the
            # registration below the code is purely synchronous on the
            # event loop, so exactly one request can register per hash.
            inflight = self._inflight.get(job_hash)
            if inflight is not None:
                self.stats.coalesced += 1
                result = await asyncio.shield(inflight)
                return self._named(result, job), "coalesced"
        if self._pending >= self.queue_limit:
            raise GatewayBusy(self._retry_after())
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending += 1
        self._inflight[job_hash] = future
        compute = asyncio.ensure_future(self._compute(job, future))
        self._compute_tasks.add(compute)
        compute.add_done_callback(self._compute_tasks.discard)
        result = await asyncio.shield(future)
        return self._named(result, job), "computed"

    async def _compute(self, job: AnalysisJob, future: asyncio.Future) -> None:
        """Run one admitted job on a dispatcher thread; resolve every waiter."""
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._dispatch,
                                                self._execute_sync, job)
        except asyncio.CancelledError:
            result = JobResult(name=job.name, job_hash=job.job_hash,
                               status="cancelled",
                               message="cancelled: gateway shut down "
                                       "before the job ran")
        except Exception as exc:  # noqa: BLE001 -- resolve waiters, always
            result = JobResult(name=job.name, job_hash=job.job_hash,
                               status="error",
                               message=f"{type(exc).__name__}: {exc}")
        finally:
            # The tiers are already populated (_execute_sync writes the
            # store and hot cache before returning), so dropping the
            # in-flight entry here cannot strand a racing request.
            self._inflight.pop(job.job_hash, None)
            self._pending -= 1
        if result.wall_seconds:
            self._recent_walls.append(result.wall_seconds)
        if not future.done():
            future.set_result(result)

    def _execute_sync(self, job: AnalysisJob) -> JobResult:
        """The dispatcher-thread side: store re-check, run, degrade, write."""
        if self.store is not None:
            # Re-check the shared store: another gateway process pointed at
            # the same root may have computed this job while it queued.
            stored = self.store.get(job.job_hash)
            if stored is not None:
                self.stats.store_hits += 1
                if self.cache is not None:
                    self.cache.put(stored)
                return stored
        result = self._run(job)
        self.stats.analyses += 1
        if self.degrade:
            result = apply_degradation(job, result, self._run)
        if self.store is not None:
            try:
                self.store.put(result)
            except OSError as exc:
                # A failing store degrades the cache, never the response.
                result.fault_events = list(result.fault_events) + [{
                    "site": "store.put", "kind": "store-write-error",
                    "key": job.job_hash, "detail": str(exc)}]
        if self.cache is not None:
            self.cache.put(result)
        return result

    def _run(self, job: AnalysisJob) -> JobResult:
        if self._pool is not None:
            return self._pool.submit(job)
        return _execute_job(job)

    @staticmethod
    def _named(result: JobResult, job: AnalysisJob) -> JobResult:
        """Relabel a shared result under this request's job name."""
        if result.name == job.name:
            return result
        from dataclasses import replace

        return replace(result, name=job.name)

    def _retry_after(self) -> float:
        """A busy client's suggested wait: queue depth x recent job wall."""
        if self._recent_walls:
            wall = sum(self._recent_walls) / len(self._recent_walls)
        else:
            wall = DEFAULT_JOB_WALL_ESTIMATE
        seats = max(1, self.workers)
        return round(max(0.1, self._pending * wall / seats), 2)

    # -- introspection -----------------------------------------------------

    def _handle_stats(self) -> Dict[str, object]:
        store_stats = None
        if self.store is not None:
            store_stats = self.store.stats.as_dict()
            store_stats["quarantine_records"] = self.store.quarantine_count()
        return {
            "op": "stats",
            "gateway": self.stats.as_dict(),
            "hot_cache": (self.cache.as_dict()
                          if self.cache is not None else None),
            "store": store_stats,
            "pool": (self._pool.describe() if self._pool is not None
                     else {"workers": 0, "inline": True}),
            "pending": self._pending,
            "queue_limit": self.queue_limit,
        }

    def _handle_health(self) -> Dict[str, object]:
        from repro.logic.entailment import engine_fingerprint
        from repro.service import faults
        from repro.service.jobs import SCHEMA_VERSION

        return {
            "op": "health",
            "ok": True,
            "schema": SCHEMA_VERSION,
            "address": list(self.address) if self.address else None,
            "draining": self._draining,
            "gateway": self.stats.as_dict(),
            "pending": self._pending,
            "queue_limit": self.queue_limit,
            "pool": (self._pool.describe() if self._pool is not None
                     else {"workers": 0, "inline": True}),
            "hot_cache": (self.cache.as_dict()
                          if self.cache is not None else None),
            "store": ({"root": self.store.root,
                       "quarantine_records": self.store.quarantine_count()}
                      if self.store is not None else None),
            "engine": engine_fingerprint(),
            "faults": faults.describe(),
        }

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, write_lock: asyncio.Lock,
                    response: Dict[str, object]) -> None:
        data = json.dumps(response, separators=(",", ":")).encode("utf-8") \
            + b"\n"
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            # The reader hung up mid-response: nothing left to tell them.
            pass


# ---------------------------------------------------------------------------
# Synchronous entry points (the CLI's `serve --async` and `serve`)
# ---------------------------------------------------------------------------

def _drain_on_signals(gateway: AnalysisGateway) -> None:
    """SIGINT/SIGTERM start a graceful shutdown instead of tracing back."""
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, gateway.request_shutdown)
        except (NotImplementedError, RuntimeError):
            # Not the main thread / unsupported platform: the `shutdown`
            # op (and, on stdio, end of input) still works.
            pass


def run_gateway(gateway: AnalysisGateway, host: str = DEFAULT_HOST,
                port: int = DEFAULT_PORT) -> int:
    """Serve ``gateway`` over TCP until SIGINT/SIGTERM or ``shutdown``.

    Returns a process exit code: 0 after a graceful drain,
    ``EXIT_UNAVAILABLE`` when the address cannot be bound.
    """
    from repro.exitcodes import EXIT_OK, EXIT_UNAVAILABLE

    async def main() -> int:
        try:
            bound_host, bound_port = await gateway.start(host, port)
        except OSError as exc:
            print(f"cannot bind gateway to {host}:{port}: {exc}",
                  file=sys.stderr)
            return EXIT_UNAVAILABLE
        hot_cache = gateway.cache.max_entries if gateway.cache else 0
        print(f"gateway listening on {bound_host}:{bound_port} "
              f"(workers={gateway.workers}, "
              f"queue-limit={gateway.queue_limit}, "
              f"hot-cache={hot_cache})", flush=True)
        _drain_on_signals(gateway)
        await gateway.serve_until_shutdown()
        print("gateway drained, shutting down", flush=True)
        return EXIT_OK

    return asyncio.run(main())


def _fd_lines(fd: int) -> Iterator[bytes]:
    """Lines read from a file descriptor with ``os.read``.

    Unlike ``sys.stdin``, this holds no buffered-reader lock while a read
    blocks, so interpreter shutdown never waits on (or aborts over) the
    daemon thread that iterates it.
    """
    pending = b""
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        *lines, pending = (pending + chunk).split(b"\n")
        yield from lines
    if pending:
        yield pending


def run_stdio(gateway: AnalysisGateway,
              lines: Optional[Iterable[Union[bytes, str]]] = None,
              output: Optional[IO[str]] = None) -> int:
    """Serve ``gateway`` on stdin/stdout (or ``lines``/``output``).

    Runs until end of input, a ``shutdown`` request, SIGINT/SIGTERM or a
    reader hang-up; each finishes the request in flight and drains the
    gateway first.  Returns exit code 0.
    """
    if lines is None:
        lines = _fd_lines(sys.stdin.fileno())

    async def main() -> None:
        _drain_on_signals(gateway)
        await gateway.serve_stdio(
            lines, sys.stdout if output is None else output)

    asyncio.run(main())
    return 0


# ---------------------------------------------------------------------------
# A small synchronous client (tests, load generators, scripts)
# ---------------------------------------------------------------------------

class GatewayClient:
    """Blocking JSON-lines client for one gateway connection.

    Not thread-safe: give every client thread its own connection (that is
    also what exercises the gateway's concurrency).
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")

    # -- transport ---------------------------------------------------------

    def send(self, payload: Dict[str, object]) -> None:
        self._writer.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._writer.flush()

    def read(self) -> Dict[str, object]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.send(payload)
        return self.read()

    # -- convenience wrappers ----------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})

    def health(self) -> Dict[str, object]:
        return self.request({"op": "health"})

    def analyze(self, source: str,
                options: Optional[Dict[str, object]] = None,
                name: Optional[str] = None,
                request_id: Optional[object] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "analyze", "source": source}
        if options:
            payload["options"] = options
        if name:
            payload["name"] = name
        if request_id is not None:
            payload["id"] = request_id
        return self.request(payload)

    def batch(self, jobs: Sequence[Dict[str, object]],
              request_id: Optional[object] = None
              ) -> Iterator[Dict[str, object]]:
        """Send a batch; yield streamed responses through ``batch-done``."""
        payload: Dict[str, object] = {"op": "batch", "jobs": list(jobs)}
        if request_id is not None:
            payload["id"] = request_id
        self.send(payload)
        while True:
            response = self.read()
            yield response
            if response.get("op") != "batch-result":
                return

    def lint(self, source: str,
             options: Optional[Dict[str, object]] = None,
             name: Optional[str] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "lint", "source": source}
        if options:
            payload["options"] = options
        if name:
            payload["name"] = name
        return self.request(payload)

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        for stream in (self._reader, self._writer):
            with contextlib.suppress(Exception):
                stream.close()
        with contextlib.suppress(Exception):
            self._sock.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class GatewayThread:
    """Run a gateway on a background thread (tests and in-process benches).

    ``with GatewayThread(workers=2) as (host, port): ...`` boots the
    asyncio server on its own event loop thread, yields the bound address,
    and drains it on exit.  The gateway object is exposed as ``.gateway``
    so callers can read its counters after the run.
    """

    def __init__(self, **kwargs) -> None:
        self.gateway = AnalysisGateway(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._started = None

    def start(self, host: str = DEFAULT_HOST,
              port: int = 0) -> Tuple[str, int]:
        self._started = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)

            async def body() -> None:
                try:
                    await self.gateway.start(host, port)
                except BaseException as exc:  # noqa: BLE001 -- report to starter
                    failure.append(exc)
                    self._started.set()
                    return
                self._started.set()
                await self.gateway.serve_until_shutdown()

            self._loop.run_until_complete(body())
            self._loop.close()

        self._thread = threading.Thread(target=run, name="gateway-thread",
                                        daemon=True)
        self._thread.start()
        self._started.wait()
        if failure:
            raise failure[0]
        assert self.gateway.address is not None
        return self.gateway.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.gateway.request_shutdown)
            self._thread.join(timeout)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
