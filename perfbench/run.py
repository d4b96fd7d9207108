"""Benchmark entry point.

    python3 perfbench/run.py --workload linear-cold --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/README.md``).
A table of every metric with its unit and sample count goes to standard
error; the last line of standard output is the JSON result.  The exit code
is 1 when an output check fails and 2 when the checkout cannot be measured.

``--workload all`` runs every workload in its own process, prints one
table of the end-to-end metrics, and exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import HERE, ROOT, WORK, SetupError, use_checkout_source

WORKLOADS = ("linear-cold", "poly-escalate", "serve-replay")

#: ``fail_ratio`` is printed but not reported: it is 0 on every workload
#: by design, and a metric whose median is 0 cannot carry a relative bound.
UNREPORTED = ("fail_ratio",)


def _declared(kind: str) -> set:
    """Metric names of one kind declared in the checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def _table(workload: str, metrics) -> str:
    lines = [f"{workload}:"]
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        detail = ""
        if len(entry) > 2:
            detail = f"n={entry[2]}"
        if len(entry) > 3:
            detail += f" at p{entry[3]:.1f}"
        lines.append(f"  {name:26s} {value:14.6g} {unit:6s} {detail}")
    return "\n".join(lines)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    use_checkout_source()
    os.makedirs(WORK, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if workload == "serve-replay":
        import serve

        if trace:
            trace_dir = os.path.join(WORK, f"trace-{tag}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            outcome = serve.measure_traced(seed, seconds, trace_dir)
        else:
            outcome = serve.measure(seed, seconds)
    else:
        import analysis

        if trace:
            outcome = analysis.measure_traced(
                workload, seed, seconds,
                os.path.join(WORK, f"trace-{tag}.json"))
        else:
            outcome = analysis.measure(workload, seed, seconds)
    metrics = outcome["metrics"]
    reported = {name for name in metrics if name not in UNREPORTED}
    declared = _declared("per_layer" if trace else "end_to_end")
    if reported != declared:
        outcome["problems"].append(
            f"metrics {sorted(reported ^ declared)} differ from BENCHMARK.json")
    correct = not outcome["problems"]
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(_table(workload, metrics), file=sys.stderr)
    with open(os.path.join(WORK, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**outcome, "correct": correct}, handle, indent=1)
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": entry[0], "unit": entry[1]}
                    for name, entry in metrics.items()
                    if name not in UNREPORTED},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a fresh process; one table."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        code = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              check=False).returncode
        status = status or code
    print("", file=sys.stderr)
    for workload in WORKLOADS:
        path = os.path.join(WORK, f"{workload}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as handle:
            outcome = json.load(handle)
        verdict = "ok" if outcome["correct"] else "OUTPUT CHECK FAILED"
        print(_table(f"{workload} ({verdict})", outcome["metrics"]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.workload == "all":
            use_checkout_source()
            return run_all(args.seed, args.seconds)
        code = run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except SetupError as exc:
        print(f"cannot measure: {exc}", file=sys.stderr)
        return 2
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
