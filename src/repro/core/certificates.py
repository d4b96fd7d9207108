"""Derivation certificates and their checker.

A successful analysis does not only produce a bound: it produces a
*derivation* in the quantitative program logic (the paper stresses that the
analysis "generates certificates that are derivations in a quantitative
program logic").  The :class:`Certificate` gathers

* the potential annotation at every program point (instantiated with the LP
  solution), and
* every application of ``Q:Weaken`` together with the rewrite functions and
  multipliers that justify it.

The :func:`check_certificate` routine re-validates the weakenings: the
instantiated difference must equal the non-negative combination of rewrite
functions (an exact polynomial identity), and each rewrite function used with
a non-zero multiplier must be non-negative on states satisfying its logical
context (checked on sampled integer states).  This is the cheap, independent
evidence a sceptical user can re-run; full soundness is established by the
paper's Theorem 6.1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.annotations import PotentialAnnotation
from repro.core.constraints import LPVar
from repro.core.derivation import DerivationStep, WeakenStep
from repro.lang.errors import CertificateError
from repro.logic.contexts import Context
from repro.utils.polynomials import Polynomial
from repro.utils.rationals import Coeff, exact


@dataclass
class AnnotatedPoint:
    """The solved potential annotation around one command."""

    node_id: int
    rule: str
    description: str
    pre: Polynomial
    post: Polynomial


@dataclass
class WeakenEvidence:
    """The solved justification of one weakening."""

    origin: str
    context: Context
    stronger: Polynomial
    weaker: Polynomial
    combination: List[Tuple[Coeff, Polynomial, str]]


@dataclass
class Certificate:
    """A complete, solved derivation."""

    bound: Polynomial
    points: List[AnnotatedPoint] = field(default_factory=list)
    weakenings: List[WeakenEvidence] = field(default_factory=list)

    def annotation_at(self, node_id: int) -> Optional[AnnotatedPoint]:
        for point in self.points:
            if point.node_id == node_id:
                return point
        return None

    def __len__(self) -> int:
        return len(self.points)


def build_certificate(bound: Polynomial,
                      steps: Sequence[DerivationStep],
                      weakens: Sequence[WeakenStep],
                      assignment: Mapping[LPVar, Coeff]) -> Certificate:
    """Instantiate all symbolic annotations with the LP solution."""
    points = [AnnotatedPoint(step.node_id, step.rule, step.description,
                             step.pre.instantiate(assignment),
                             step.post.instantiate(assignment))
              for step in steps]
    weakenings = []
    for weaken in weakens:
        combination = []
        for multiplier, rewrite in zip(weaken.multipliers, weaken.rewrites):
            value = exact(assignment[multiplier])
            if value != 0:
                combination.append((value, rewrite.polynomial, rewrite.reason))
        weakenings.append(WeakenEvidence(
            weaken.origin, weaken.context,
            weaken.stronger.instantiate(assignment),
            weaken.weaker.instantiate(assignment),
            combination))
    return Certificate(bound=bound, points=points, weakenings=weakenings)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def _sample_states(context: Context, variables: Sequence[str], samples: int,
                   rng: np.random.Generator, radius: int = 50) -> List[Dict[str, int]]:
    """Random integer states satisfying ``context`` (best effort)."""
    states: List[Dict[str, int]] = []
    attempts = 0
    while len(states) < samples and attempts < samples * 40:
        attempts += 1
        state = {var: int(rng.integers(-radius, radius + 1)) for var in variables}
        if context.satisfied_by(state):
            states.append(state)
    return states


def check_certificate(certificate: Certificate, samples: int = 30,
                      seed: int = 0, tolerance: float = 1e-6) -> List[str]:
    """Return a list of human-readable problems (empty = certificate accepted).

    Two families of checks are performed per weakening:

    1. *algebraic*: ``stronger - sum(u_k * F_k) == weaker`` as polynomials
       (up to the floating-point snapping tolerance of the LP solution);
    2. *semantic*: each rewrite function used with ``u_k > 0`` evaluates to a
       non-negative number on sampled states satisfying the logical context.
    """
    problems: List[str] = []
    rng = np.random.default_rng(seed)
    for evidence in certificate.weakenings:
        residual = evidence.stronger - evidence.weaker
        for value, poly, _reason in evidence.combination:
            residual = residual - poly * value
        for monomial, coeff in residual.terms.items():
            if abs(float(coeff)) > tolerance:
                problems.append(
                    f"{evidence.origin}: combination mismatch at {monomial} "
                    f"(residual {float(coeff):.2e})")
                break
        variables = sorted(set(
            itertools.chain(evidence.stronger.variables(),
                            evidence.weaker.variables(),
                            evidence.context.variables())))
        if not variables:
            continue
        states = _sample_states(evidence.context, variables, samples, rng)
        for value, poly, reason in evidence.combination:
            if value <= 0:
                continue
            for state in states:
                if float(poly.evaluate(state)) < -tolerance:
                    problems.append(
                        f"{evidence.origin}: rewrite function not non-negative "
                        f"({reason}) at state {state}")
                    break
        for state in states:
            gap = float(evidence.stronger.evaluate(state)) \
                - float(evidence.weaker.evaluate(state))
            if gap < -1e-4:
                problems.append(
                    f"{evidence.origin}: weakening violated at state {state} "
                    f"(gap {gap:.3g})")
                break
    return problems


def assert_certificate(certificate: Certificate, samples: int = 30,
                       seed: int = 0) -> None:
    """Raise :class:`CertificateError` when :func:`check_certificate` finds problems."""
    problems = check_certificate(certificate, samples=samples, seed=seed)
    if problems:
        raise CertificateError("; ".join(problems[:5]))
