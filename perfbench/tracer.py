"""In-memory span tracer installed around the package's layer entry points.

The wrappers live here, not in the program: ``install()`` replaces class
attributes and module functions with timing wrappers and returns a callable
that restores the originals.  Each span records ``(id, parent, name, start,
end)``; parents are tracked per thread, so the gateway's executor threads do
not nest into each other.  Spans stay in memory until ``dump()``.

A layer's self time is the summed duration of its spans minus the time
their direct children cover (children run on the caller's thread, so they
nest and never overlap each other).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

Span = Tuple[int, int, str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, function: Callable,
             count: str = "") -> Callable:
        """``function`` recording a ``name`` span per call.

        With ``count``, the length of each returned collection is added to
        that counter (how many rewrite functions a call produced).
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if count:
                tracer.counts[count] += len(result)
            return result

        return traced

    def span(self, name: str, function: Callable, *args, **kwargs):
        """Call ``function`` inside a ``name`` span (a root when untraced)."""
        return self.wrap(name, function)(*args, **kwargs)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": dict(self.counts)}, handle)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that unwraps them."""
    from repro.core import derivation, pipeline, rewrite, solver
    from repro.core import lpsession
    from repro.lang import parser
    from repro.lang.analysis import lint
    from repro.logic import absint, entailment

    patches: List[Tuple[object, str, str, str]] = [
        (pipeline.AnalysisPipeline, "prepare", "core.prepare", ""),
        (pipeline.AnalysisPipeline, "ensure_degree", "core.derive", ""),
        (derivation.DerivationBuilder, "weaken", "core.weaken", ""),
        (derivation.DerivationBuilder, "extend_weaken", "core.weaken", ""),
        (derivation, "generate_rewrites", "core.rewrites", "core.rewrite_fns"),
        (rewrite, "generate_rewrites", "core.rewrites", "core.rewrite_fns"),
        (solver.AssembledSystem, "__init__", "core.solve", ""),
        (solver.AssembledSystem, "extend", "core.solve", ""),
        (pipeline, "build_certificate", "core.certify", ""),
        (absint.AbstractInterpreter, "ensure_procedure", "logic.absint", ""),
        (parser, "parse_program", "lang.parse", ""),
        (lint, "parse_program", "lang.parse", ""),
    ]
    for cls in (lpsession.LPSession, *lpsession.LPSession.__subclasses__()):
        if "solve" in vars(cls):
            patches.append((cls, "solve", "core.solve", ""))
    for method in ("entails", "entails_many", "is_feasible",
                   "greatest_lower_bound", "project", "join", "widen",
                   "assign"):
        patches.append((entailment.EntailmentEngine, method,
                        "logic.entail", ""))

    originals = []
    for owner, attribute, name, count in patches:
        original = vars(owner)[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, count))

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], int]:
    """Per-name self time in seconds, and the count of child spans that
    start before or end after their parent."""
    by_id = {span[0]: span for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    violations = 0
    for span_id, parent, _name, start, end in spans:
        if parent:
            covered[parent] += end - start
            owner = by_id.get(parent)
            if owner is None or start < owner[3] or end > owner[4]:
                violations += 1
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _parent, name, start, end in spans:
        totals[name] += (end - start) - covered[span_id]
    return dict(totals), violations
