"""Traced gateway: ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/gateway_main.py TRACE_DIR serve --async ...``

The tracer wraps the layer entry points before the CLI runs.  The pool
worker is forked from this process, so it inherits the wrappers; it starts
with an empty span list and writes its spans when it exits at pool
shutdown.  The gateway writes its own after the CLI returns.  Each process
writes ``TRACE_DIR/spans-<pid>.json``.
"""

import multiprocessing.util
import os
import sys

from common import use_checkout_source

use_checkout_source()

import tracer as tracing  # noqa: E402

TRACE_DIR = sys.argv[1]
TRACER = tracing.Tracer()
tracing.install(TRACER)


def dump() -> None:
    TRACER.dump(os.path.join(TRACE_DIR, f"spans-{os.getpid()}.json"))


def in_worker(tracer: tracing.Tracer) -> None:
    tracer.reset()
    # Registered after the fork: multiprocessing clears inherited
    # finalizers when the worker starts.
    multiprocessing.util.Finalize(None, dump, exitpriority=100)


multiprocessing.util.register_after_fork(TRACER, in_worker)

from repro.cli import main  # noqa: E402

code = main(sys.argv[2:])
dump()
sys.exit(code)
