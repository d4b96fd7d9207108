"""Shared pieces of the benchmark: paths, the reference loop, statistics."""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark measures: the directory above ``perfbench``.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (stores, traces, per-run details) goes here.
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: One-loop program timed by the set-up probes and used as the warm-up.
ONE_LOOP = "proc main(x) { while (x > 0) { x = x - 1; tick(1); } }"

#: Iterations of the fixed reference loop (about 10 ms on a 2020s core).
REF_ITERATIONS = 100_000

#: Monte-Carlo runs per program for the output check, at a fixed seed so
#: the check is deterministic.
ORACLE_RUNS = 100
ORACLE_SEED = 20180618
ORACLE_SIGMAS = 4


class SetupError(RuntimeError):
    """The checkout cannot be measured (no ``src/repro`` to import)."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no package at {os.path.join(SRC, 'repro')}; run "
                         "from the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError(f"repro imported from {repro.__file__}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    return env


def reference_loop() -> float:
    """Wall of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of every order statistic instead of one of them:
    a percentile of few samples (poly-escalate holds nine analyses per
    pass) then moves with the run, not with whichever analysis happens to
    sit at the cut.  With many samples it matches the sample percentile.
    """
    from scipy.stats import beta

    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    edges = beta.cdf([i / n for i in range(n + 1)], (n + 1) * q,
                     (n + 1) * (1 - q))
    return float(sum((hi - lo) * value for lo, hi, value
                     in zip(edges, edges[1:], ordered)))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns ``(value, percentile)``.  Below 21 samples that percentile
    would sit under the median, so the median is returned instead.
    """
    n = len(values)
    q = 0.5 if n < 21 else (n - 10) / n
    return quantile(values, q), 100.0 * q


#: Hit samples per window of the hit tail.
HIT_WINDOW = 100


def windowed_tail(values: Sequence[float],
                  window: int = HIT_WINDOW) -> Tuple[float, float]:
    """The tail rule over each run of ``window`` consecutive samples, and
    the median over windows: ``(value, percentile)``.

    Over all of a run's hits the tail rule sits near p98, among the few
    samples a burst of host stalls slows; per window it sits at p90, and a
    burst moves one window, not the figure.
    """
    windows = [values[i:i + window]
               for i in range(0, len(values) - window + 1, window)]
    tails = [tail(chunk) for chunk in windows or [values]]
    return (median([value for value, _pct in tails]),
            median([pct for _value, pct in tails]))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def certificate_shape(payload: Dict[str, object]) -> Dict[str, object]:
    """A certificate payload (``certificate_payload``) with node ids taken
    relative to its first point.

    Node ids come from a per-process counter, so the same program parsed
    by a gateway worker that parsed other programs first carries shifted
    ids; everything else in the certificate must match exactly.
    """
    shape = json.loads(json.dumps(payload))
    base = min((point["node_id"] for point in shape["points"]), default=0)
    for point in shape["points"]:
        point["node_id"] -= base
    for weakening in shape["weakenings"]:
        weakening["origin"] = re.sub(
            r"@(\d+)", lambda m: f"@{int(m.group(1)) - base}",
            weakening["origin"])
    return shape


def sampled_mean(bench) -> Tuple[Dict[str, int], float, float]:
    """``(state, mean, standard error)`` of sampled cost at the plan's
    largest state, from the independent sampling semantics."""
    from repro.semantics.sampler import sample_costs

    plan = bench.simulation
    state = max(plan.states(), key=lambda s: abs(s[plan.swept_variable]))
    costs, unfinished, _engine, _reason = sample_costs(
        bench.build_for_simulation(), state, runs=ORACLE_RUNS,
        seed=ORACLE_SEED, max_steps=plan.max_steps, engine="auto")
    if unfinished or len(costs) < 2:
        raise RuntimeError(f"{bench.name}: {unfinished} sampled runs did "
                           "not terminate")
    return state, float(costs.mean()), float(costs.std(ddof=1)
                                             / math.sqrt(len(costs)))


def check_bounds(bounds: Dict[str, object], benchmarks) -> List[str]:
    """Output check: each bound is at least the sampled mean minus
    ``ORACLE_SIGMAS`` standard errors.  ``bounds`` maps names to
    ``ExpectedBound`` objects; returns the problems found."""
    problems = []
    for bench in benchmarks:
        state, mean, error = sampled_mean(bench)
        value = float(bounds[bench.name].evaluate(state))
        if value < mean - ORACLE_SIGMAS * error:
            problems.append(f"{bench.name}: bound {value:.2f} below sampled "
                            f"mean {mean:.2f} - {ORACLE_SIGMAS}*{error:.2f} "
                            f"at {state}")
    return problems


def bound_ratio(bounds: Dict[str, object], benchmarks) -> float:
    """Geometric mean over programs of our bound over the paper's, each
    summed over the program's plan states."""
    from paperbound import paper_value

    ratios = []
    for bench in benchmarks:
        states = bench.simulation.states()
        ours = sum(bounds[bench.name].evaluate(state) for state in states)
        paper = sum(paper_value(bench, state) for state in states)
        ratios.append(float(ours / paper))
    return geomean(ratios)
