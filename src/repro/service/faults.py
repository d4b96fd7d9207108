"""Deterministic, seeded fault injection for the service layer.

The supervision machinery of :mod:`repro.service.scheduler` (pool rebuild,
retry/backoff, poison-job quarantine, the degradation ladder), the store
hardening of :mod:`repro.service.store` (quarantine, checksums, crash-safe
writes) and the entailment backend's constraint-cap path only earn their
keep if they can be *exercised*: a fault that cannot
be reproduced cannot be tested, and a chaos run whose faults move around
between invocations cannot assert anything about recovery.  This module is
the single switchboard for injecting infrastructure faults into otherwise
untouched product code paths:

* product code calls :func:`fire` at a handful of **sites** (worker job
  entry, store read/write, Fourier-Motzkin elimination).  With no registry installed
  the call is a cheap no-op -- production never pays more than one ``is
  None`` check per site;
* tests and the CI chaos leg install a :class:`FaultRegistry` (directly via
  :func:`configure`, or through the ``$REPRO_FAULTS`` environment variable)
  describing *which* faults fire *where* and *how often*;
* every decision is **deterministic**: whether a fault fires depends only on
  the registry seed, the fault kind and the site key (for workers:
  ``<job_hash>:<attempt>``), never on wall clock, pid or scheduling order.
  Re-running a chaos batch replays the exact same fault schedule, so the
  chaos gate can assert byte-identical recovery.

Fault kinds and their sites:

=================== ================ ==========================================
kind                site             effect
=================== ================ ==========================================
``worker-crash``    ``worker``       ``os._exit(70)`` -- hard worker death,
                                     breaks the whole ``ProcessPoolExecutor``
``worker-hang``     ``worker``       sleep ``duration`` seconds (exercises the
                                     timeout/degradation path)
``store-corrupt``   ``store.get``    clobber the record on disk before the
                                     read (exercises quarantine)
``store-write-fail`` ``store.put``   raise :class:`InjectedFault` (an
                                     ``OSError``) instead of writing
``store-write-slow`` ``store.put``   sleep ``duration`` seconds, then write
``store-kill``      ``store.put``    leave a partial temp file behind (as a
                                     kill -9 mid-write would) and raise
``fm-cap``          ``fm.eliminate`` raise
                                     :class:`~repro.logic.fourier_motzkin.ConstraintCapExceeded`
                                     (exercises the backend's cap path)
=================== ================ ==========================================

``$REPRO_FAULTS`` grammar (semicolon-separated specs, comma-separated
key=value parameters)::

    REPRO_FAULTS='worker-crash:p=0.2;store-corrupt:p=0.5'
    REPRO_FAULTS_SEED=42

Worker faults only fire inside pool workers (the scheduler tags pool
execution); an injected ``os._exit`` can therefore never take down the
parent process, ``repro serve``, or an inline (``workers=0``) batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Environment variables switching fault injection on without code changes.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Exit status used by the injected hard worker crash (chosen to be
#: recognisable in worker-death post-mortems; BSD's EX_SOFTWARE).
CRASH_EXIT_STATUS = 70

#: Known fault kinds per injection site (documentation + validation).
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "worker": ("worker-crash", "worker-hang"),
    "store.get": ("store-corrupt",),
    "store.put": ("store-write-fail", "store-write-slow", "store-kill"),
    "fm.eliminate": ("fm-cap",),
}

_KIND_SITE: Dict[str, str] = {kind: site
                              for site, kinds in SITE_KINDS.items()
                              for kind in kinds}


class InjectedFault(OSError):
    """An injected infrastructure fault (store write failures and friends).

    Subclasses ``OSError`` so product code exercising its real error
    handling (``except OSError``) treats injected faults exactly like the
    genuine article.
    """


def unit_fraction(*parts: object) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` from ``parts``.

    SHA-256 over the joined string representation: stable across processes,
    platforms and Python hash randomisation, so fault decisions (and the
    retry policy's jitter) are reproducible everywhere.
    """
    payload = "|".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: what fires, where, how often."""

    kind: str
    #: Probability of firing per (kind, key) pair, decided deterministically
    #: from the registry seed.
    probability: float = 1.0
    #: Substring filter on the site key ("" = every key).  Worker keys are
    #: ``<job_hash>:<attempt>``, store keys are the record hash, elimination
    #: keys are ``fm`` -- so a spec can target one job or one attempt.
    match: str = ""
    #: Stop firing after this many activations in this process (None = no
    #: limit).  Counted per process; forked workers inherit the parent's
    #: count at fork time.
    limit: Optional[int] = None
    #: Sleep length for ``worker-hang``/``store-write-slow``.
    duration: float = 30.0

    @property
    def site(self) -> str:
        site = _KIND_SITE.get(self.kind)
        if site is None:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(sorted(_KIND_SITE))}")
        return site

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "site": self.site,
                "probability": self.probability, "match": self.match,
                "limit": self.limit, "duration": self.duration}


@dataclass
class FaultEvent:
    """One fault that actually fired (what ends up in ``JobResult.fault_events``)."""

    site: str
    kind: str
    key: str
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"site": self.site, "kind": self.kind,
                                   "key": self.key}
        if self.detail:
            data["detail"] = self.detail
        return data


class FaultRegistry:
    """The active fault configuration plus its activation log."""

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        for spec in self.specs:
            spec.site  # noqa: B018 -- validates the kind eagerly
        self.seed = seed
        self.fired: List[FaultEvent] = []
        self._activations: Dict[FaultSpec, int] = {}

    # -- decisions ---------------------------------------------------------

    def decide(self, site: str, key: str) -> List[FaultSpec]:
        """The specs that fire at ``(site, key)`` -- deterministic in the key."""
        firing = []
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.match and spec.match not in key:
                continue
            if spec.limit is not None \
                    and self._activations.get(spec, 0) >= spec.limit:
                continue
            if spec.probability < 1.0 \
                    and unit_fraction(self.seed, spec.kind, key) \
                    >= spec.probability:
                continue
            firing.append(spec)
        return firing

    def record(self, spec: FaultSpec, key: str, detail: str = "") -> FaultEvent:
        self._activations[spec] = self._activations.get(spec, 0) + 1
        event = FaultEvent(site=spec.site, kind=spec.kind, key=key,
                           detail=detail)
        self.fired.append(event)
        return event

    def describe(self) -> List[Dict[str, object]]:
        return [spec.to_dict() for spec in self.specs]


#: The process-wide registry; ``None`` = fault injection off (the default).
_REGISTRY: Optional[FaultRegistry] = None

#: Whether this process is a pool worker (set by the scheduler's worker
#: entry point).  Worker faults never fire outside a pool worker, so an
#: injected ``os._exit`` cannot take down the parent / server process.
_IN_POOL_WORKER = False


def parse_spec(text: str) -> List[FaultSpec]:
    """Parse the ``$REPRO_FAULTS`` mini-grammar (or a JSON list of dicts).

    ``kind:p=0.2,match=abc,limit=3,duration=0.5;kind2:...``
    """
    text = text.strip()
    if not text:
        return []
    if text.startswith("["):
        return [FaultSpec(**item) for item in json.loads(text)]
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, params = chunk.partition(":")
        kwargs: Dict[str, object] = {}
        if params:
            for pair in params.split(","):
                name, _, value = pair.partition("=")
                name = name.strip()
                if name in ("p", "probability"):
                    kwargs["probability"] = float(value)
                elif name == "match":
                    kwargs["match"] = value.strip()
                elif name == "limit":
                    kwargs["limit"] = int(value)
                elif name == "duration":
                    kwargs["duration"] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault parameter {name!r} in {chunk!r}")
        specs.append(FaultSpec(kind=kind.strip(), **kwargs))
    return specs


def registry_from_env() -> Optional[FaultRegistry]:
    """Build a registry from ``$REPRO_FAULTS`` (None when unset/empty)."""
    text = os.environ.get(FAULTS_ENV, "")
    specs = parse_spec(text)
    if not specs:
        return None
    seed = int(os.environ.get(FAULTS_SEED_ENV, "0"))
    return FaultRegistry(specs, seed=seed)


def configure(specs: Sequence[FaultSpec], seed: int = 0) -> FaultRegistry:
    """Install a fault registry programmatically (tests, chaos passes)."""
    global _REGISTRY
    _REGISTRY = FaultRegistry(specs, seed=seed)
    return _REGISTRY


def disable() -> None:
    """Switch fault injection off entirely."""
    global _REGISTRY
    _REGISTRY = None


def active() -> Optional[FaultRegistry]:
    return _REGISTRY


def describe() -> Optional[List[Dict[str, object]]]:
    """The active fault specs as JSON-able dicts (None when off)."""
    return _REGISTRY.describe() if _REGISTRY is not None else None


def enter_pool_worker() -> None:
    """Mark this process as a pool worker (called by the worker initializer).

    Only marked processes run ``worker`` site faults, so a crash/hang spec
    can never kill the scheduler's parent process or an inline batch.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def drain_events() -> List[Dict[str, object]]:
    """Pop every fault event fired in this process since the last drain."""
    if _REGISTRY is None or not _REGISTRY.fired:
        return []
    events = [event.to_dict() for event in _REGISTRY.fired]
    _REGISTRY.fired.clear()
    return events


# ---------------------------------------------------------------------------
# The injection sites
# ---------------------------------------------------------------------------

def fire(site: str, key: str, path: Optional[str] = None) -> None:
    """Run the faults configured for ``(site, key)`` (no-op when off).

    ``path`` is site context: for store sites, the record path the fault
    should corrupt / leave partial state next to.
    """
    registry = _REGISTRY
    if registry is None:
        return
    for spec in registry.decide(site, key):
        _perform(registry, spec, key, path)


def _perform(registry: FaultRegistry, spec: FaultSpec, key: str,
             path: Optional[str]) -> None:
    kind = spec.kind
    if kind == "worker-crash":
        if not _IN_POOL_WORKER:
            return
        registry.record(spec, key, detail="os._exit")
        os._exit(CRASH_EXIT_STATUS)
    if kind == "worker-hang":
        if not _IN_POOL_WORKER:
            return
        registry.record(spec, key, detail=f"sleep {spec.duration}s")
        time.sleep(spec.duration)
        return
    if kind == "store-corrupt":
        if path and os.path.exists(path):
            registry.record(spec, key, detail="record clobbered on disk")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"injected": "corruption"')   # not JSON
        return
    if kind == "store-write-fail":
        registry.record(spec, key, detail="write refused")
        raise InjectedFault(f"injected store write failure for {key}")
    if kind == "store-write-slow":
        registry.record(spec, key, detail=f"sleep {spec.duration}s")
        time.sleep(spec.duration)
        return
    if kind == "store-kill":
        # Simulate a kill -9 between the temp write and the atomic rename:
        # partial temp state survives (no cleanup runs in a real crash) and
        # the caller sees the write fail.
        if path:
            directory = os.path.dirname(path) or "."
            os.makedirs(directory, exist_ok=True)
            partial = os.path.join(directory, f".tmp-injected-{key[:12]}.json")
            with open(partial, "w", encoding="utf-8") as handle:
                handle.write('{"half": "a reco')
        registry.record(spec, key, detail="killed mid-write")
        raise InjectedFault(f"injected crash during store write for {key}")
    if kind == "fm-cap":
        from repro.logic.fourier_motzkin import ConstraintCapExceeded

        registry.record(spec, key, detail="constraint cap forced")
        raise ConstraintCapExceeded(
            "injected: Fourier-Motzkin elimination exceeded the "
            "constraint cap")
    raise ValueError(f"unknown fault kind {spec.kind!r}")


# Environment-driven activation happens at import time: the scheduler's
# worker processes (forked or spawned) and every CLI entry point then share
# one switch that requires no code changes to flip.
_REGISTRY = registry_from_env()
