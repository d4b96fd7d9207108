"""Heuristic generation of base functions (paper Sec. 7.1).

The analysis needs, at every *junction point* (loop head, branch join,
procedure boundary), a finite template of base functions over which the
unknown potential is expressed.  The heuristic mirrors Absynth's:

* the abstract interpreter's linear inequalities and the guards of the loop
  contribute interval atoms ``|[L, U]| = max(0, U - L)``;
* atoms are *widened* by constant offsets drawn from the constants occurring
  in the loop body (increments, distribution ranges, comparison constants),
  which yields the ``|[h, t+9]|``-style base functions needed when sampled
  increments can overshoot a guard;
* ``|[0, x]|`` and ``|[x, 0]|`` are added for every variable modified in the
  loop;
* the base functions of the continuation (post-annotation) are always
  included so potential can flow through the loop;
* finally all monomials up to the requested degree are formed.

User-provided *hints* (extra interval atoms) are honoured exactly like the
paper's hint mechanism: they are simply added to the atom pool and never
compromise soundness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.lang import ast
from repro.lang.errors import LoweringError
from repro.logic.conditions import facts_from_condition
from repro.logic.contexts import Context
from repro.utils.linear import LinExpr
from repro.utils.polynomials import IntervalAtom, Monomial, atom_product


@dataclass
class BaseGenConfig:
    """Tunables of the base-function heuristic."""

    max_degree: int = 1
    #: Maximum number of distinct offsets applied to each seed atom.
    max_offsets: int = 16
    #: Hard cap on the number of atoms per template.
    atom_limit: int = 40
    #: Hard cap on the number of monomials per template.
    monomial_limit: int = 600
    #: Extra interval atoms supplied by the user (``repro`` hint mechanism).
    hint_atoms: Tuple[LinExpr, ...] = ()


def _normalise_atom(diff: LinExpr) -> Optional[IntervalAtom]:
    scale, atom = atom_product(diff)
    del scale
    return atom


def _collect_constants(command: ast.Command) -> Set[int]:
    """Constants occurring in assignments, guards and distributions of a loop body."""
    constants: Set[int] = set()

    def from_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.Const):
            value = expr.value
            if value.denominator == 1:
                constants.add(abs(int(value)))
        for child in expr.children():
            from_expr(child)

    for node in command.iter_nodes():
        if isinstance(node, (ast.If, ast.While, ast.Assert, ast.Assume)):
            from_expr(node.condition)
        if isinstance(node, ast.Assign):
            from_expr(node.expr)
        if isinstance(node, ast.Sample):
            from_expr(node.expr)
            support = node.distribution.support()
            values = [value for value, _ in support]
            constants.add(abs(max(values)))
            constants.add(abs(min(values)))
            constants.add(max(values) - min(values))
        if isinstance(node, ast.Tick) and not node.is_constant:
            from_expr(node.amount)
    constants.discard(0)
    return constants


def _offset_candidates(body: ast.Command, config: BaseGenConfig) -> List[int]:
    """Offsets by which guard atoms are widened."""
    constants = _collect_constants(body)
    small = sorted(c for c in constants if c <= 64)
    offsets: Set[int] = {0}
    # Dense small offsets cover sampled-increment overshoot (e.g. unif(0,10)).
    dense_limit = min(max(small, default=1), 12)
    offsets.update(range(0, dense_limit + 1))
    # Sparse larger offsets cover explicit constants (e.g. thresholds of 50/100).
    for constant in small:
        offsets.update({constant - 1, constant, constant + 1})
    for first in small:
        for second in small:
            if first + second <= 128:
                offsets.add(first + second)
    cleaned = sorted(o for o in offsets if o >= 0)
    if len(cleaned) > config.max_offsets:
        # Keep the small dense ones and the largest few.
        head = cleaned[:config.max_offsets - 4]
        tail = cleaned[-4:]
        cleaned = sorted(set(head + tail))
    return cleaned


def _first_use_kind(command: ast.Command, var: str) -> str:
    """How ``command`` first touches ``var``: 'defined', 'read' or 'transparent'.

    'defined' means every execution path assigns ``var`` before reading it;
    'read' means some path may read it first; 'transparent' means the command
    neither reads nor (definitely) defines it.
    """
    def reads(expr: ast.Expr) -> bool:
        return var in expr.variables()

    if isinstance(command, (ast.Skip, ast.Abort, ast.Call)):
        return "transparent"
    if isinstance(command, (ast.Assert, ast.Assume)):
        return "read" if reads(command.condition) else "transparent"
    if isinstance(command, ast.Tick):
        if not command.is_constant and reads(command.amount):
            return "read"
        return "transparent"
    if isinstance(command, (ast.Assign, ast.Sample)):
        if reads(command.expr):
            return "read"
        return "defined" if command.target == var else "transparent"
    if isinstance(command, ast.Seq):
        for sub in command.commands:
            kind = _first_use_kind(sub, var)
            if kind != "transparent":
                return kind
        return "transparent"
    if isinstance(command, ast.If):
        if reads(command.condition):
            return "read"
        kinds = {_first_use_kind(command.then_branch, var),
                 _first_use_kind(command.else_branch, var)}
        if "read" in kinds:
            return "read"
        if kinds == {"defined"}:
            return "defined"
        return "transparent"
    if isinstance(command, (ast.NonDetChoice, ast.ProbChoice)):
        kinds = {_first_use_kind(command.left, var),
                 _first_use_kind(command.right, var)}
        if "read" in kinds:
            return "read"
        if kinds == {"defined"}:
            return "defined"
        return "transparent"
    if isinstance(command, ast.While):
        if reads(command.condition):
            return "read"
        if _first_use_kind(command.body, var) == "read":
            return "read"
        return "transparent"
    return "read"


def dead_at_loop_head(loop: ast.While, var: str) -> bool:
    """Whether ``var`` is definitely overwritten before being read in the body.

    Such a variable cannot carry potential across the loop head, so interval
    atoms mentioning it are pointless in the loop-invariant template (e.g.
    ``nShares`` in the outer loop of the paper's ``trader`` example).
    """
    if var in loop.condition.variables():
        return False
    return _first_use_kind(loop.body, var) == "defined"


def _seed_differences(loop: ast.While, context: Context
                      ) -> Tuple[List[LinExpr], List[LinExpr]]:
    """Linear expressions ``D`` seeding interval atoms ``max(0, D)``.

    Returns ``(primary, secondary)``: primary seeds (guards, inner guards,
    symbolic tick amounts) are widened by the full offset range, secondary
    seeds (modified variables, context facts) only by small offsets -- this
    keeps the atom budget focused on the intervals that actually drive the
    loop's cost.
    """
    primary: List[LinExpr] = []
    secondary: List[LinExpr] = []
    dead_vars = {var for var in loop.body.assigned_variables()
                 if dead_at_loop_head(loop, var)}

    def push(bucket: List[LinExpr], expr: LinExpr) -> None:
        if expr.is_constant():
            return
        if dead_vars & set(expr.variables()):
            return
        if expr not in bucket:
            bucket.append(expr)

    for fact in facts_from_condition(loop.condition):
        push(primary, fact)
        push(primary, fact + 1)
    for node in loop.body.iter_nodes():
        if isinstance(node, (ast.If, ast.While)):
            for fact in facts_from_condition(node.condition):
                push(primary, fact)
                push(primary, fact + 1)
        if isinstance(node, ast.Tick) and not node.is_constant:
            try:
                push(primary, ast.expr_to_linexpr(node.amount))
            except LoweringError:
                pass
    for var in sorted(loop.body.used_variables() | loop.condition.variables()):
        push(secondary, LinExpr.var(var))
        push(secondary, -LinExpr.var(var))
    for fact in context.facts:
        push(secondary, fact)
    return primary, secondary


def atoms_for_loop(loop: ast.While, context: Context,
                   post_monomials: Iterable[Monomial],
                   config: BaseGenConfig) -> List[IntervalAtom]:
    """The atom pool for a loop-invariant template.

    The atoms of the continuation (post-annotation) are always included --
    potential must be able to flow through the loop -- and do not count
    against the heuristic atom budget.  The heuristic atoms are added in
    priority order: primary seeds (guards, symbolic ticks) widened by the
    full offset range, then secondary seeds (modified variables, abstract
    interpretation facts) widened only by small offsets.
    """
    atoms: List[IntervalAtom] = []
    seen: Set[IntervalAtom] = set()
    heuristic_count = 0

    def add(diff: LinExpr, budgeted: bool = True) -> None:
        nonlocal heuristic_count
        if budgeted and heuristic_count >= config.atom_limit:
            return
        atom = _normalise_atom(diff)
        if atom is None or atom in seen:
            return
        seen.add(atom)
        atoms.append(atom)
        if budgeted:
            heuristic_count += 1

    # The loop's own atoms come first: when higher-degree monomials are
    # formed only a prefix of the atom list participates in products, and the
    # products that matter combine the loop's guards with its symbolic costs.
    offsets = _offset_candidates(loop.body, config)
    primary, secondary = _seed_differences(loop, context)
    for hint in config.hint_atoms:
        add(hint, budgeted=False)
    # Offsets iterate in the outer loop: every primary seed contributes its
    # small offsets before any seed contributes large ones, so the prefix of
    # the atom list (used for higher-degree products) covers all seeds.
    for offset in offsets:
        for seed in primary:
            add(seed + offset)
    for seed in secondary:
        for offset in (0, 1):
            add(seed + offset)

    # Atoms of the continuation (post-annotation): potential must be able to
    # flow through the loop.  These never count against the budget.
    for monomial in post_monomials:
        for atom in monomial.atoms():
            if atom not in seen:
                seen.add(atom)
                atoms.append(atom)
    return atoms


def monomials_up_to_degree(atoms: Sequence[IntervalAtom], max_degree: int,
                           limit: int = 600,
                           higher_degree_atom_limit: int = 16) -> List[Monomial]:
    """All monomials of degree <= ``max_degree`` over ``atoms`` (plus 1).

    Degree-1 monomials are formed over the full atom pool; monomials of
    degree >= 2 only combine the first ``higher_degree_atom_limit`` atoms
    (seed order puts the most relevant atoms first), which keeps quadratic
    and cubic templates at a size the LP solver handles comfortably.
    Lower-degree monomials are emitted first, so for a fixed atom sequence
    the degree-``d`` list is a prefix of the degree-``d+1`` list.
    """
    monomials: List[Monomial] = [Monomial.one()]
    seen: Set[Monomial] = {Monomial.one()}
    for atom in atoms:
        monomial = Monomial.of_atom(atom)
        if monomial not in seen:
            seen.add(monomial)
            monomials.append(monomial)
        if len(monomials) >= limit:
            return monomials
    higher_pool = list(atoms[:higher_degree_atom_limit])
    for degree in range(2, max(1, max_degree) + 1):
        for combo in combinations_with_replacement(higher_pool, degree):
            monomial = Monomial(combo)
            if monomial not in seen:
                seen.add(monomial)
                monomials.append(monomial)
            if len(monomials) >= limit:
                return monomials
    return monomials


def append_missing(monomials: List[Monomial],
                   extra: Iterable[Monomial]) -> List[Monomial]:
    """Append the monomials of ``extra`` not already present, in order.

    The deduplicated-append used wherever continuation (post-annotation)
    monomials must be folded into a template, heuristic monomials first.
    """
    known = set(monomials)
    for monomial in extra:
        if monomial not in known:
            monomials.append(monomial)
            known.add(monomial)
    return monomials


def template_monomials_for_loop(loop: ast.While, context: Context,
                                post_monomials: Iterable[Monomial],
                                config: BaseGenConfig) -> List[Monomial]:
    """The full base-function template for a loop head.

    The heuristic monomials over the loop's atom pool up to the configured
    degree, followed by the continuation's monomials.
    """
    post_list = list(post_monomials)
    atoms = atoms_for_loop(loop, context, post_list, config)
    degree = max([config.max_degree] + [m.degree() for m in post_list])
    monomials = monomials_up_to_degree(atoms, degree, config.monomial_limit)
    return append_missing(monomials, post_list)


def template_monomials_for_join(post_monomials_a: Iterable[Monomial],
                                post_monomials_b: Iterable[Monomial]
                                ) -> List[Monomial]:
    """Template used at branch joins: the union of both branch requirements."""
    merged: Set[Monomial] = {Monomial.one()}
    merged.update(post_monomials_a)
    merged.update(post_monomials_b)
    return sorted(merged, key=lambda m: m.sort_key())


def template_monomials_for_procedure(body: ast.Command, context: Context,
                                     config: BaseGenConfig) -> List[Monomial]:
    """Base functions for a procedure specification (recursive procedures)."""
    atoms: List[IntervalAtom] = []
    seen: Set[IntervalAtom] = set()

    def add(diff: LinExpr) -> None:
        atom = _normalise_atom(diff)
        if atom is None or atom in seen:
            return
        seen.add(atom)
        atoms.append(atom)

    offsets = _offset_candidates(body, config)
    seeds: List[LinExpr] = []
    for node in body.iter_nodes():
        if isinstance(node, (ast.If, ast.While, ast.Assert, ast.Assume)):
            for fact in facts_from_condition(node.condition):
                seeds.append(fact)
                seeds.append(fact + 1)
        if isinstance(node, ast.Tick) and not node.is_constant:
            try:
                seeds.append(ast.expr_to_linexpr(node.amount))
            except LoweringError:
                pass
    for var in sorted(body.used_variables()):
        seeds.append(LinExpr.var(var))
        seeds.append(-LinExpr.var(var))
    for fact in context.facts:
        seeds.append(fact)
    for seed in seeds:
        if seed.is_constant():
            continue
        for offset in offsets:
            if len(atoms) >= config.atom_limit:
                break
            add(seed + offset)
    for hint in config.hint_atoms:
        add(hint)
    return monomials_up_to_degree(atoms[:config.atom_limit], config.max_degree,
                                  config.monomial_limit)
