"""The ``serve-replay`` workload: a seeded request stream against the gateway.

Each round starts ``repro serve --async`` in its own process (one pool
worker, a fresh store, a hot tier of ``HOT_CACHE`` entries -- smaller than
the 30-program working set), replays one stream over one connection in a
closed loop (the next request goes out when the previous answer arrives),
reads the peak RSS of the gateway and its worker, and
stops the gateway.  Rounds repeat until the time budget is spent; every
round is also a ``setup_s`` sample.

Latency is split by the tier that answered (``memory``/``store`` hits,
``computed``/``coalesced`` misses), so no metric mixes ~1 ms hits with
~100 ms computations.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from analysis import Runner, layer_metrics, result_counts, suite
from common import (HERE, ROOT, WORK, bound_ratio, certificate_shape,
                    child_env, median, peak_rss_mb, quantile, reference_loop,
                    tail, windowed_tail)

# The request mix is synthetic: nothing records real traffic.  Each
# constant is chosen for a property of the run (README, "Serve-replay
# traffic is synthetic").

#: Below the 30-program working set, so the ``store`` tier answers hits.
HOT_CACHE = 12
#: Hits far outnumber the 30 first touches; several rounds fit in a run.
REQUESTS_PER_ROUND = 600
#: Above 0, so the uncached ``lint`` path runs.
LINT_SHARE = 0.1
#: Zipf exponent of program popularity: the top 12 programs draw ~81% of
#: ``analyze`` requests, and the least popular is still asked ~3.7 times a
#: round, so evicted programs are read back from the store.
SKEW = 1.1
#: Reference loops timed before each round, with the gateway stopped.
REF_LOOPS = 30
HITS = ("memory", "store")
MISSES = ("computed", "coalesced")


def _encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


class Connection:
    """One JSON-lines connection to the gateway."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=120)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> Tuple[float, bytes]:
        """Send one encoded request; ``(seconds until the answer arrived,
        answer line)``.  Encoding and decoding are the client's cost, so
        callers do both outside the timed replay."""
        start = time.perf_counter()
        self.sock.sendall(data)
        line = self.reader.readline()
        latency = time.perf_counter() - start
        if not line:
            raise ConnectionError("gateway closed the connection")
        return latency, line

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        return json.loads(self.send(_encode(payload))[1])

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def request_stream(rng: random.Random, programs) -> List[Tuple[str, object]]:
    """``(op, program)`` pairs: skewed popularity, a ``LINT_SHARE`` of lint
    requests, and every program analysed at least once.

    The popularity ranking is the registry order on every seed: result
    records differ in size by program, and hit latency with them, so a
    seeded ranking would make the hit figures depend on which programs
    the seed made popular.  The seed draws the requests.
    """
    ranked = list(programs)
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(ranked))]
    stream = [("lint" if rng.random() < LINT_SHARE else "analyze", program)
              for program in rng.choices(ranked, weights, k=REQUESTS_PER_ROUND)]
    seen = {program[0].name for op, program in stream if op == "analyze"}
    for program in ranked:
        if program[0].name not in seen:
            stream.insert(rng.randrange(len(stream) + 1), ("analyze", program))
    return stream


class Gateway:
    """One ``repro serve --async`` process and its fresh store."""

    def __init__(self, trace_dir: Optional[str] = None) -> None:
        self.store = tempfile.mkdtemp(prefix="gw-store-", dir=WORK)
        serve = ["serve", "--async", "--port", "0", "--workers", "1",
                 "--cache-dir", self.store, "--hot-cache-size", str(HOT_CACHE)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "gateway_main.py"),
                       trace_dir, *serve]
        self.log = open(os.path.join(WORK, "gateway.log"), "a",
                        encoding="utf-8")
        start = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self.log, env=child_env(),
                                        cwd=ROOT, text=True)
        try:
            line = self.process.stdout.readline()
            if not line.startswith("gateway listening on "):
                raise RuntimeError(f"gateway did not start: {line!r}")
            host, port = line.split()[3].rsplit(":", 1)
            self.address = (host, int(port))
            probe = Connection(self.address)
            try:
                if not probe.request({"op": "ping"}).get("ok"):
                    raise RuntimeError("gateway ping failed")
            finally:
                probe.close()
        except BaseException:
            self.stop()
            raise
        self.setup = time.perf_counter() - start

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        connection = Connection(self.address)
        try:
            return connection.request(payload)
        finally:
            connection.close()

    def stop(self, worker_pid: int = 0) -> None:
        """SIGTERM, wait for the drain, and for the pool worker to exit."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
            self.process.stdout.close()
            deadline = time.monotonic() + 30
            while worker_pid and os.path.exists(f"/proc/{worker_pid}") \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            self.log.close()
            shutil.rmtree(self.store, ignore_errors=True)


def replay(gateway: Gateway, stream) -> Tuple[List[Optional[tuple]], float]:
    """Drive ``stream`` over one closed-loop connection.

    One connection, for a host that gives the benchmark two CPUs: a second
    one keeps the gateway answering hits while its worker computes, so the
    client, the gateway and the worker compete, computation walls double,
    and they swing with the rest of the host's load.  With one, a single
    process works at a time.

    Returns one ``(op, name, latency, response)`` per request (``response``
    None when the request got no answer) and the wall of the whole replay.
    """
    requests = [_encode({"op": op, "id": index, "name": bench.name,
                         "source": source, "options": options})
                for index, (op, (bench, options, source)) in enumerate(stream)]
    records: List[Optional[tuple]] = [None] * len(stream)
    connection = Connection(gateway.address)
    start = time.perf_counter()
    try:
        for index, (op, (bench, _options, _source)) in enumerate(stream):
            records[index] = (op, bench.name,
                              *connection.send(requests[index]))
    except OSError:
        # The gateway went away: the requests left stay None, and
        # ``check_round`` counts them as failed.
        pass
    finally:
        wall = time.perf_counter() - start
        connection.close()
    return [record and (*record[:3], json.loads(record[3]))
            for record in records], wall


def run_round(stream, trace_dir: Optional[str] = None) -> Dict[str, object]:
    gateway = Gateway(trace_dir)
    worker_pid = 0
    try:
        records, wall = replay(gateway, stream)
        stats = gateway.request({"op": "stats"})
        pids = {r[3]["result"]["worker_pid"] for r in records
                if r and r[0] == "analyze" and r[3].get("tier") == "computed"}
        worker_pid = max(pids) if pids else 0
        rss = peak_rss_mb(gateway.process.pid) + sum(peak_rss_mb(pid)
                                                      for pid in pids)
    finally:
        gateway.stop(worker_pid)
    return {"records": records, "wall": wall, "setup": gateway.setup,
            "rss": rss, "stats": stats["gateway"], "workers": len(pids)}


def check_round(round_: Dict[str, object],
                reference: Dict[str, dict]) -> Tuple[int, List[str]]:
    """``(failed requests, problems)`` of one round."""
    failed, problems = 0, []
    tiers: Counter = Counter()
    for index, record in enumerate(round_["records"]):
        if record is None:
            failed += 1
            problems.append(f"request {index} got no response")
            continue
        op, name, _latency, response = record
        if response.get("id") != index:
            problems.append(f"request {index} answered as {response.get('id')}")
        if op == "lint":
            failed += "error" in response or response.get("op") != "lint"
            continue
        if response.get("status") != "ok":
            failed += 1
            continue
        tiers[response["tier"]] += 1
        served = response["result"]
        expected = reference[name]
        if served["bound"] != expected["bound"]:
            failed += 1
            problems.append(f"{name}: served bound "
                            f"{served['bound']['pretty']} differs from "
                            f"linear-cold's {expected['bound']['pretty']}")
        elif certificate_shape(served["certificate"]) \
                != expected["certificate"]:
            # The certificate verdict reported for served results is
            # linear-cold's, so it must be the certificate that was served.
            problems.append(f"{name}: served certificate differs from "
                            "linear-cold's")
    stats = round_["stats"]
    by_tier = {"memory_hits": tiers["memory"], "store_hits": tiers["store"],
               "coalesced": tiers["coalesced"], "analyses": tiers["computed"]}
    for key, count in by_tier.items():
        if stats[key] != count:
            problems.append(f"gateway stats {key}={stats[key]} but "
                            f"{count} responses say so")
    if round_["workers"] != 1:
        problems.append(f"{round_['workers']} pool workers answered")
    return failed, problems


def reference_results() -> Tuple[Dict[str, dict], List[str]]:
    """linear-cold's first result per program (``Runner.first``) and its
    output problems, from one cold pass in this process after the timed
    rounds."""
    runner = Runner("linear-cold")
    try:
        runner.run_pass(random.Random(0), None)
        problems = runner.output_problems()
    finally:
        runner.close()
    return runner.first, problems


def _latencies(records, tiers) -> List[float]:
    return [r[2] for r in records if r and r[0] == "analyze"
            and r[3].get("tier") in tiers]


def _summary(rounds) -> Tuple[int, int, List[str], Dict[str, dict]]:
    """``(attempted, failed, problems, reference)`` over ``rounds``."""
    reference, problems = reference_results()
    attempted = failed = 0
    for round_ in rounds:
        round_failed, round_problems = check_round(round_, reference)
        attempted += len(round_["records"])
        failed += round_failed
        problems += round_problems
    return attempted, failed, problems, reference


def measure(seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: end-to-end metrics and their sample counts."""
    os.makedirs(WORK, exist_ok=True)
    programs = suite("linear-cold")
    rng = random.Random(seed)
    rounds, refs = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        refs += [reference_loop() for _ in range(REF_LOOPS)]
        rounds.append(run_round(request_stream(rng, programs)))
    attempted, failed, problems, reference = _summary(rounds)

    all_records = [r for round_ in rounds for r in round_["records"]]
    computed: Dict[str, List[float]] = defaultdict(list)
    served: Dict[str, object] = {}
    rejected = ok_computed = 0
    for record in all_records:
        if record and record[0] == "analyze" \
                and record[3].get("tier") == "computed" \
                and record[3].get("status") == "ok":
            computed[record[1]].append(record[2])
            served.setdefault(record[1], record[3]["result"]["bound"])
            ok_computed += 1
            rejected += reference[record[1]]["rejected"]
    from repro.service.jobs import bound_from_payload

    served_bounds = {name: bound_from_payload(payload)
                     for name, payload in served.items()}
    benchmarks = [b for b, _o, _s in programs]
    complete = len(served_bounds) == len(benchmarks)
    if not complete:
        problems.append("not every program was served")
    suite_s = sum(median(walls) for walls in computed.values())
    misses = _latencies(all_records, MISSES)
    computes = _latencies(all_records, ("computed",))
    hits = _latencies(all_records, HITS)
    compute_tail, compute_pct = tail(computes)
    # Hits in stream order: a window of 100 spans under a second of
    # replay.
    hit_tail, hit_pct = windowed_tail(hits)
    metrics = {
        "suite_s": (suite_s, "s", len(computed)),
        "suite_norm": (suite_s / (len(computed) * median(refs)), "ratio",
                       len(computed)),
        "analysis_p50_ms": (1000 * quantile(computes, 0.5), "ms",
                            len(computes)),
        "analysis_tail_ms": (1000 * compute_tail, "ms", len(computes),
                             compute_pct),
        "bound_ratio": (bound_ratio(served_bounds, benchmarks)
                        if complete else 1.0, "ratio", len(served_bounds)),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "cert_reject_ratio": (rejected / max(1, ok_computed), "ratio",
                              ok_computed),
        "setup_s": (median([r["setup"] for r in rounds]), "s", len(rounds)),
        "peak_rss_mb": (median([r["rss"] for r in rounds]), "MB",
                        len(rounds)),
        "serve_rps": (median([len(r["records"]) / r["wall"] for r in rounds]),
                      "req/s", len(rounds)),
        "hit_p50_ms": (1000 * quantile(hits, 0.5), "ms", len(hits)),
        "hit_tail_ms": (1000 * hit_tail, "ms", len(hits), hit_pct),
        "miss_p50_ms": (1000 * quantile(misses, 0.5), "ms", len(misses)),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "rounds": len(rounds)}


def measure_traced(seed: int, seconds: float,
                   trace_dir: str) -> Dict[str, object]:
    """One untraced and one traced round of the same stream: per-layer
    metrics from the traced round, its wall over the untraced one as the
    tracing overhead."""
    import tracer as tracing

    os.makedirs(trace_dir, exist_ok=True)
    programs = suite("linear-cold")
    stream = request_stream(random.Random(seed), programs)
    refs = [reference_loop() for _ in range(REF_LOOPS)]
    plain = run_round(stream)
    refs += [reference_loop() for _ in range(REF_LOOPS)]
    traced = run_round(stream, trace_dir)
    attempted, failed, problems, _reference = _summary([plain, traced])

    self_times: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(int)
    for entry in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
            dump = json.load(handle)
        times, violations = tracing.self_times(
            [tuple(span) for span in dump["spans"]])
        if violations:
            problems.append(f"{violations} child spans outlast their parent "
                            f"in process {dump['pid']}")
        for name, value in times.items():
            self_times[name] += value
        for name, value in dump["counts"].items():
            counts[name] += value
    if not self_times.get("core.derive"):
        problems.append("no worker spans were written")

    records = [r for r in traced["records"] if r]
    tiers = Counter(r[3].get("tier") for r in records if r[0] == "analyze")
    for record in records:
        if record[0] == "analyze" and record[3].get("tier") == "computed":
            for key, value in result_counts(record[3]["result"]).items():
                counts[key] += value
    analyze_requests = sum(tiers.values())
    counts.update({
        "service.memory_hits": tiers["memory"],
        "service.store_hits": tiers["store"],
        "service.computed": tiers["computed"],
        "service.coalesced": tiers["coalesced"],
        "service.busy": sum(1 for r in records
                            if r[3].get("status") == "busy"),
        "service.hit_ratio": (tiers["memory"] + tiers["store"])
        / max(1, analyze_requests),
    })
    layer = layer_metrics(self_times, counts)
    layer.update({
        "service.memory_p50_ms": (1000 * median(_latencies(records,
                                                           ("memory",))), "ms"),
        "service.store_p50_ms": (1000 * median(_latencies(records,
                                                          ("store",))), "ms"),
        "service.computed_p50_ms": (1000 * median(_latencies(
            records, ("computed",))), "ms"),
        "service.lint_p50_ms": (1000 * median([r[2] for r in records
                                               if r[0] == "lint"]), "ms"),
        "host.ref_ms": (1000 * median(refs), "ms"),
        "trace.overhead": (traced["wall"] / plain["wall"], "ratio"),
    })
    return {"metrics": layer, "attempted": attempted, "failed": failed,
            "problems": problems}
