"""Backward constraint generation over the derivation rules of Fig. 6.

The :class:`DerivationBuilder` walks a command *backwards*: given the
annotation that must hold *after* the command (the continuation's potential),
it constructs the annotation that suffices *before* it, collecting linear
constraints in a :class:`~repro.core.constraints.ConstraintSystem` along the
way.  The correspondence with the paper's rules:

=====================  ========================================================
rule                   implementation
=====================  ========================================================
``Q:Skip``             pre = post
``Q:Abort``            pre = 0
``Q:Assert``           pre = post (context refinement happens in the AI)
``Q:Tick``             pre = post + q  (symbolic ticks add ``max(0, e)``)
``Q:Assign``           pre = post[e/x] -- *exact* substitution on base
                       functions (see DESIGN.md for the relation to the
                       paper's stable-set formulation)
``Q:Sample``           probability-weighted sum of the per-outcome assignments
``Q:PIf``              pre = p * pre_left + (1-p) * pre_right
``Q:If``/``Q:NonDet``  fresh join template constrained to dominate both
                       branches under their respective contexts (Q:Weaken)
``Q:Loop``             fresh invariant template; dominates the loop-exit
                       post-annotation and the body's pre-annotation
``Q:Call``             specification lookup + frame over unmodified monomials
``Q:Weaken``/``Relax``  difference expressed as a non-negative combination of
                       rewrite functions (:mod:`repro.core.rewrite`)
=====================  ========================================================

All generated constraints are linear in the unknown coefficients, so bound
inference reduces to LP solving exactly as in Sec. 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.annotations import PotentialAnnotation
from repro.core.basegen import (
    BaseGenConfig,
    template_monomials_for_join,
    template_monomials_for_loop,
)
from repro.core.constraints import AffExpr, ConstraintSystem, LPVar
from repro.core.rewrite import RewriteFunction, generate_rewrites
from repro.core.specs import SpecContext
from repro.lang import ast
from repro.lang.errors import AnalysisError, LoweringError
from repro.logic.absint import AbstractInterpreter
from repro.logic.conditions import facts_from_condition, negated_facts_from_condition
from repro.logic.contexts import Context
from repro.utils.polynomials import Monomial, Polynomial


@dataclass
class DerivationStep:
    """One application of a syntax-directed rule (for the certificate)."""

    node_id: int
    rule: str
    description: str
    pre: PotentialAnnotation
    post: PotentialAnnotation


@dataclass
class WeakenStep:
    """One application of ``Q:Weaken`` (for the certificate checker)."""

    origin: str
    context: Context
    stronger: PotentialAnnotation
    weaker: PotentialAnnotation
    rewrites: List[RewriteFunction]
    #: One non-negative multiplier column per rewrite function, in order.
    multipliers: List[LPVar]


class DerivationBuilder:
    """Generates templates and constraints for one program at one degree.

    One builder walks the program once, at the degree of its
    ``basegen_config``, into its own :class:`ConstraintSystem`.  Degree
    escalation builds a new builder over a new system
    (:mod:`repro.core.pipeline`); nothing is carried over but the
    memoised rewrite functions of :mod:`repro.core.rewrite`.
    """

    def __init__(self, program: ast.Program, interpreter: AbstractInterpreter,
                 system: ConstraintSystem, basegen_config: BaseGenConfig,
                 specs: Optional[SpecContext] = None) -> None:
        self.program = program
        self.interpreter = interpreter
        self.system = system
        self.basegen_config = basegen_config
        self.specs = specs if specs is not None else SpecContext()
        self.steps: List[DerivationStep] = []
        self.weakens: List[WeakenStep] = []
        self._counter = 0

    # -- bookkeeping -----------------------------------------------------------

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _fresh_names(self, prefix: str, count: int) -> List[str]:
        """``count`` successive :meth:`_fresh_name` results."""
        start = self._counter + 1
        self._counter += count
        return [f"{prefix}{number}" for number in range(start, start + count)]

    def _record(self, command: ast.Command, rule: str,
                pre: PotentialAnnotation, post: PotentialAnnotation) -> None:
        description = type(command).__name__
        self.steps.append(DerivationStep(command.node_id, rule, description, pre, post))

    def _context_before(self, command: ast.Command) -> Context:
        return self.interpreter.context_before(command)

    def _new_template(self, monomials, prefix: str) -> PotentialAnnotation:
        """Create a fresh non-negative template over ``monomials``."""
        return PotentialAnnotation.template(self.system, monomials,
                                            self._fresh_name(prefix),
                                            nonneg=True)

    # -- weakening ----------------------------------------------------------------

    def _weaken_rows(self, origin: str, rewrites: Sequence[RewriteFunction],
                     stronger: PotentialAnnotation,
                     weaker: PotentialAnnotation,
                     monomials: Set[Monomial]) -> List[LPVar]:
        """Emit the ``Q:Weaken`` equations ``stronger - weaker - F*u == 0``.

        One fresh non-negative multiplier column ``u_k`` is created per
        rewrite function; the columns are indexed by monomial once
        (``{monomial: {u_k: -coeff}}``), and each row is the template part
        ``stronger - weaker`` plus that monomial's column entries.  The
        multipliers are fresh, so the two parts never share a variable and
        no coefficient is accumulated.  Rows are emitted in monomial order
        over ``monomials`` and every monomial a rewrite mentions.  Returns
        the multipliers.
        """
        multipliers = self.system.new_columns(
            self._fresh_names(f"u_{origin}_", len(rewrites)), nonneg=True)
        columns: Dict[Monomial, Dict[LPVar, Fraction]] = {}
        for multiplier, rewrite in zip(multipliers, rewrites):
            for monomial, coeff in rewrite.polynomial.term_items():
                column = columns.get(monomial)
                if column is None:
                    columns[monomial] = {multiplier: -coeff}
                else:
                    column[multiplier] = -coeff
        rows = set(monomials)
        rows.update(columns)
        for monomial in sorted(rows, key=Monomial.sort_key):
            template = stronger.coefficient(monomial) - weaker.coefficient(monomial)
            self.system.add_eq(
                template.with_fresh_terms(columns.get(monomial, {})),
                origin=f"weaken:{origin}:{monomial}")
        return multipliers

    def weaken(self, context: Context, stronger: PotentialAnnotation,
               weaker: PotentialAnnotation, origin: str) -> None:
        """Constrain ``Phi_stronger >= Phi_weaker`` on all states satisfying ``context``.

        Following the ``Relax`` rule the difference must equal a non-negative
        combination of rewrite functions valid under ``context``; one fresh
        non-negative multiplier is introduced per rewrite function.
        """
        if context.is_unreachable or not context.is_satisfiable():
            # T(Gamma; Q) is infinite outside Gamma: nothing to prove for an
            # unreachable program point (e.g. a branch contradicting an assume).
            return
        monomials: Set[Monomial] = set(stronger.monomials()) | set(weaker.monomials())
        monomials.add(Monomial.one())
        max_degree = max((m.degree() for m in monomials), default=1)
        rewrites = generate_rewrites(context, monomials, max_degree)
        multipliers = self._weaken_rows(origin, rewrites, stronger, weaker,
                                        monomials)
        self.weakens.append(WeakenStep(origin, context, stronger, weaker,
                                       rewrites, multipliers))

    # ``perfbench/tracer.py`` wraps these names by class attribute lookup;
    # nothing calls them.  The tracer's move into ``src/`` deletes them.
    extend_weaken = weaken

    # -- rule dispatch -----------------------------------------------------------------

    def analyze_command(self, command: ast.Command,
                        post: PotentialAnnotation) -> PotentialAnnotation:
        """Return a pre-annotation valid for ``command`` with continuation ``post``."""
        handler = getattr(self, f"_rule_{type(command).__name__.lower()}", None)
        if handler is None:
            raise AnalysisError(f"no derivation rule for {type(command).__name__}")
        pre = handler(command, post)
        self._record(command, handler.__name__.replace("_rule_", "Q:"), pre, post)
        return pre

    # -- simple rules ---------------------------------------------------------------------

    def _rule_skip(self, command: ast.Skip, post: PotentialAnnotation) -> PotentialAnnotation:
        return post

    def _rule_abort(self, command: ast.Abort, post: PotentialAnnotation) -> PotentialAnnotation:
        return PotentialAnnotation.zero()

    def _rule_assert(self, command: ast.Assert, post: PotentialAnnotation) -> PotentialAnnotation:
        return post

    def _rule_assume(self, command: ast.Assume, post: PotentialAnnotation) -> PotentialAnnotation:
        return post

    def _rule_tick(self, command: ast.Tick, post: PotentialAnnotation) -> PotentialAnnotation:
        if command.is_constant:
            return post.add_constant(command.amount)
        context = self._context_before(command)
        try:
            amount = ast.expr_to_linexpr(command.amount)
        except LoweringError as exc:
            raise AnalysisError(f"tick amount is not linear: {command.amount}") from exc
        # max(0, e) >= e, so charging the interval atom is a sound upper bound
        # on the consumed amount (and exact whenever the context proves e >= 0).
        return post.add_polynomial(Polynomial.interval(amount))

    # -- assignments -------------------------------------------------------------------------

    def _rule_assign(self, command: ast.Assign, post: PotentialAnnotation) -> PotentialAnnotation:
        try:
            rhs = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return post.drop_monomials_with_variable(
                command.target, self.system,
                origin=f"nonlinear-assign:{command.target}@{command.node_id}")
        return post.substitute(command.target, rhs)

    def _rule_sample(self, command: ast.Sample, post: PotentialAnnotation) -> PotentialAnnotation:
        try:
            base = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return post.drop_monomials_with_variable(
                command.target, self.system,
                origin=f"nonlinear-sample:{command.target}@{command.node_id}")
        parts: List[Tuple[Fraction, PotentialAnnotation]] = []
        for value, probability in command.distribution.support():
            if command.op == "+":
                outcome = base + value
            elif command.op == "-":
                outcome = base - value
            else:
                outcome = base * value
            parts.append((probability, post.substitute(command.target, outcome)))
        return PotentialAnnotation.weighted_sum(parts)

    # -- branching ---------------------------------------------------------------------------------

    def _rule_probchoice(self, command: ast.ProbChoice,
                         post: PotentialAnnotation) -> PotentialAnnotation:
        left_pre = self.analyze_command(command.left, post)
        right_pre = self.analyze_command(command.right, post)
        return PotentialAnnotation.weighted_sum([
            (command.probability, left_pre),
            (1 - command.probability, right_pre),
        ])

    def _rule_if(self, command: ast.If, post: PotentialAnnotation) -> PotentialAnnotation:
        context = self._context_before(command)
        then_ctx = context.add_facts(facts_from_condition(command.condition))
        else_ctx = context.add_facts(negated_facts_from_condition(command.condition))
        then_pre = self.analyze_command(command.then_branch, post)
        else_pre = self.analyze_command(command.else_branch, post)
        monomials = template_monomials_for_join(then_pre.monomials(), else_pre.monomials())
        joined = self._new_template(monomials, "if")
        self.weaken(then_ctx, joined, then_pre, origin=f"if-then@{command.node_id}")
        self.weaken(else_ctx, joined, else_pre, origin=f"if-else@{command.node_id}")
        return joined

    def _rule_nondetchoice(self, command: ast.NonDetChoice,
                           post: PotentialAnnotation) -> PotentialAnnotation:
        context = self._context_before(command)
        left_pre = self.analyze_command(command.left, post)
        right_pre = self.analyze_command(command.right, post)
        monomials = template_monomials_for_join(left_pre.monomials(), right_pre.monomials())
        joined = self._new_template(monomials, "nd")
        self.weaken(context, joined, left_pre, origin=f"nondet-left@{command.node_id}")
        self.weaken(context, joined, right_pre, origin=f"nondet-right@{command.node_id}")
        return joined

    # -- sequencing ----------------------------------------------------------------------------------

    def _rule_seq(self, command: ast.Seq, post: PotentialAnnotation) -> PotentialAnnotation:
        current = post
        for sub in reversed(command.commands):
            current = self.analyze_command(sub, current)
        return current

    # -- loops ----------------------------------------------------------------------------------------

    def _rule_while(self, command: ast.While, post: PotentialAnnotation) -> PotentialAnnotation:
        invariant_ctx = self._context_before(command)
        monomials = template_monomials_for_loop(command, invariant_ctx,
                                                post.monomials(), self.basegen_config)
        invariant = self._new_template(monomials, "inv")
        exit_ctx = invariant_ctx.add_facts(
            negated_facts_from_condition(command.condition))
        body_ctx = invariant_ctx.add_facts(facts_from_condition(command.condition))
        # Loop exit: the invariant must cover the continuation's requirement.
        self.weaken(exit_ctx, invariant, post, origin=f"loop-exit@{command.node_id}")
        # Loop body: the invariant must be restored after one iteration.
        body_pre = self.analyze_command(command.body, invariant)
        self.weaken(body_ctx, invariant, body_pre, origin=f"loop-head@{command.node_id}")
        return invariant

    # -- procedure calls ----------------------------------------------------------------------------------

    def _rule_call(self, command: ast.Call, post: PotentialAnnotation) -> PotentialAnnotation:
        spec = self.specs.lookup(command.procedure)
        if spec is None:
            raise AnalysisError(
                f"no specification for procedure {command.procedure!r}; "
                "non-recursive calls should have been inlined")
        frame_terms: Dict[Monomial, AffExpr] = {}
        for monomial, coeff in post.terms.items():
            if spec.frameable(monomial):
                frame_terms[monomial] = coeff
            else:
                # The callee may change this base function: its potential
                # cannot be framed across the call, and the (zero) callee
                # post-annotation cannot supply it either.
                self.system.add_eq(
                    coeff, 0, origin=f"call-frame:{command.procedure}:{monomial}")
        frame = PotentialAnnotation(frame_terms)
        return spec.pre.plus(frame)

    # -- procedure bodies ----------------------------------------------------------------------------------

    def derive_procedure(self, name: str, post: PotentialAnnotation,
                         entry_context: Optional[Context] = None
                         ) -> PotentialAnnotation:
        """Derive a pre-annotation for the body of procedure ``name``."""
        proc = self.program.procedures[name]
        return self.analyze_command(proc.body, post)

    def constrain_specification(self, name: str) -> None:
        """Emit the ``ValidCtx`` obligation for the registered spec of ``name``."""
        spec = self.specs.lookup(name)
        if spec is None:
            raise AnalysisError(f"procedure {name!r} has no registered specification")
        proc = self.program.procedures[name]
        body_pre = self.analyze_command(proc.body, spec.post)
        entry_context = self.interpreter.context_before(proc.body)
        self.weaken(entry_context, spec.pre, body_pre, origin=f"spec:{name}")
