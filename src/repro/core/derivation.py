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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.utils.linear import LinExpr
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
    """One application of ``Q:Weaken`` (for the certificate checker).

    ``rows`` maps each constrained monomial to the index of its equality in
    the :class:`~repro.core.constraints.ConstraintSystem`; degree escalation
    extends exactly these rows (new multiplier/template columns) instead of
    re-emitting them.
    """

    origin: str
    context: Context
    stronger: PotentialAnnotation
    weaker: PotentialAnnotation
    rewrites: List[RewriteFunction]
    #: One non-negative multiplier column per rewrite function, in order.
    multipliers: List[LPVar]
    rows: Dict[Monomial, int] = field(default_factory=dict)


@dataclass
class TemplateRecord:
    """One template created during the base derivation (extendable later)."""

    name: str
    annotation: PotentialAnnotation


class DerivationBuilder:
    """Generates templates and constraints for one program.

    The builder has two modes.  The *base* walk (:meth:`analyze_command`)
    derives a fixed degree from scratch, journaling every template, weaken
    and coefficient-drop it performs.  The *extension* walk
    (:meth:`extend_command`) replays the exact same syntax-directed rule
    sequence for the next degree, carrying ``(full, delta)`` annotation
    pairs: the full annotation is the degree-``d+1`` value, the delta part
    is its projection onto the freshly created LP variables.  Because every
    derivation rule is affine in the template coefficients and the rational
    constants are identical across degrees, the delta of each derived
    annotation mentions only new variables -- so escalation appends new
    rows / extends old rows into new columns without ever rewriting the
    degree-``d`` system.
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
        self.templates: List[TemplateRecord] = []
        #: Ordered journal of per-monomial constraint rows emitted outside
        #: weakenings (nonlinear-assignment drops, call frames).
        self.row_events: List[Tuple[str, Dict[Monomial, int]]] = []
        self._counter = 0
        # -- extension-walk state --
        self._extending = False
        self._step_cursor = 0
        self._template_cursor = 0
        self._weaken_cursor = 0
        self._row_event_cursor = 0
        self._spec_deltas: Dict[str, PotentialAnnotation] = {}

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
        """Create and journal a fresh template (base walk only)."""
        name = self._fresh_name(prefix)
        annotation = PotentialAnnotation.template(self.system, monomials,
                                                  name, nonneg=True)
        self.templates.append(TemplateRecord(name, annotation))
        return annotation

    def _log_rows(self, tag: str) -> Dict[Monomial, int]:
        """Journal (base walk) a per-monomial constraint-row map."""
        rows: Dict[Monomial, int] = {}
        self.row_events.append((tag, rows))
        return rows

    # -- weakening ----------------------------------------------------------------

    def _weaken_rows(self, origin: str, rewrites: Sequence[RewriteFunction],
                     stronger: PotentialAnnotation,
                     weaker: PotentialAnnotation,
                     monomials: Set[Monomial],
                     emit: Callable[[Monomial, AffExpr, str], None]
                     ) -> List[LPVar]:
        """Emit the ``Q:Weaken`` equations ``stronger - weaker - F*u == 0``.

        Shared by :meth:`weaken` and :meth:`extend_weaken`.  One fresh
        non-negative multiplier column ``u_k`` is created per rewrite
        function; the columns are indexed by monomial once (``{monomial:
        {u_k: -coeff}}``), and each row is the template part ``stronger -
        weaker`` plus that monomial's column entries.  The multipliers are
        fresh, so the two parts never share a variable and no coefficient
        is accumulated.  Rows are emitted in monomial order over
        ``monomials`` and every monomial a rewrite mentions; ``emit``
        receives ``(monomial, row, origin)``.  Returns the multipliers.
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
            emit(monomial, template.with_fresh_terms(columns.get(monomial, {})),
                 f"weaken:{origin}:{monomial}")
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
        rows: Dict[Monomial, int] = {}

        def emit(monomial: Monomial, row: AffExpr, row_origin: str) -> None:
            index = self.system.add_eq(row, origin=row_origin)
            if index is not None:
                rows[monomial] = index

        multipliers = self._weaken_rows(origin, rewrites, stronger, weaker,
                                        monomials, emit)
        self.weakens.append(WeakenStep(origin, context, stronger, weaker,
                                       rewrites, multipliers, rows))

    # -- rule dispatch -----------------------------------------------------------------

    def analyze_command(self, command: ast.Command,
                        post: PotentialAnnotation) -> PotentialAnnotation:
        """Return a pre-annotation valid for ``command`` with continuation ``post``."""
        assert not self._extending, "use extend_command during escalation"
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
                origin=f"nonlinear-assign:{command.target}@{command.node_id}",
                rows=self._log_rows("drop"))
        return post.substitute(command.target, rhs)

    def _rule_sample(self, command: ast.Sample, post: PotentialAnnotation) -> PotentialAnnotation:
        try:
            base = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return post.drop_monomials_with_variable(
                command.target, self.system,
                origin=f"nonlinear-sample:{command.target}@{command.node_id}",
                rows=self._log_rows("drop"))
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
        rows = self._log_rows("call")
        for monomial, coeff in post.terms.items():
            if spec.frameable(monomial):
                frame_terms[monomial] = coeff
            else:
                # The callee may change this base function: its potential
                # cannot be framed across the call, and the (zero) callee
                # post-annotation cannot supply it either.
                index = self.system.add_eq(
                    coeff, 0, origin=f"call-frame:{command.procedure}:{monomial}")
                if index is not None:
                    rows[monomial] = index
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

    # ======================================================================
    # Degree escalation: the append-only extension walk
    # ======================================================================

    def begin_extension(self, basegen_config: BaseGenConfig) -> None:
        """Start replaying the derivation at the next degree.

        The caller must have opened an extension round on the constraint
        system first.  The walk consumes the journals (steps, templates,
        weakens, row events) in the exact order the base walk produced
        them -- the derivation is syntax-directed, so replaying the same
        AST visits the same rule sequence.
        """
        if self._extending:
            raise RuntimeError("extension walk already in progress")
        self.basegen_config = basegen_config
        self._extending = True
        self._step_cursor = 0
        self._template_cursor = 0
        self._weaken_cursor = 0
        self._row_event_cursor = 0
        self._spec_deltas = {}

    def end_extension(self) -> None:
        """Finish the replay; assert every journal entry was consumed."""
        if not self._extending:
            raise RuntimeError("no extension walk in progress")
        if (self._step_cursor != len(self.steps)
                or self._template_cursor != len(self.templates)
                or self._weaken_cursor != len(self.weakens)
                or self._row_event_cursor != len(self.row_events)):
            raise AnalysisError(
                "degree-escalation replay diverged from the base derivation "
                f"(steps {self._step_cursor}/{len(self.steps)}, templates "
                f"{self._template_cursor}/{len(self.templates)}, weakens "
                f"{self._weaken_cursor}/{len(self.weakens)}, rows "
                f"{self._row_event_cursor}/{len(self.row_events)})")
        self._extending = False

    def register_spec_delta(self, name: str, delta: PotentialAnnotation) -> None:
        """Record the new-monomial part of an extended procedure spec."""
        self._spec_deltas[name] = delta

    def _next_row_event(self, tag: str) -> Dict[Monomial, int]:
        expected_tag, rows = self.row_events[self._row_event_cursor]
        if expected_tag != tag:
            raise AnalysisError(
                f"escalation replay drift: expected a {expected_tag!r} row "
                f"event, replayed {tag!r}")
        self._row_event_cursor += 1
        return rows

    def _extend_rows(self, rows: Dict[Monomial, int], monomial: Monomial,
                     delta: AffExpr, origin: str) -> None:
        """Route a per-monomial delta to its existing row or a fresh one."""
        if delta.is_zero():
            return
        index = rows.get(monomial)
        if index is not None:
            self.system.extend_constraint(index, delta)
        else:
            index = self.system.add_eq(delta, origin=origin)
            if index is not None:
                rows[monomial] = index

    # -- extension dispatch -------------------------------------------------

    def extend_command(self, command: ast.Command, post: PotentialAnnotation,
                       dpost: PotentialAnnotation
                       ) -> Tuple[PotentialAnnotation, PotentialAnnotation]:
        """Replay one command at the next degree; return ``(pre, delta_pre)``.

        ``post`` is the full next-degree continuation annotation and
        ``dpost`` its new-variable delta (``post == base_post + dpost``).
        The recorded :class:`DerivationStep` is updated in place so the
        certificate reflects the escalated derivation.
        """
        handler = getattr(self, f"_ext_{type(command).__name__.lower()}", None)
        if handler is None:
            raise AnalysisError(f"no escalation rule for {type(command).__name__}")
        pre, dpre = handler(command, post, dpost)
        step = self.steps[self._step_cursor]
        if step.node_id != command.node_id:
            raise AnalysisError(
                f"escalation replay drift at node {command.node_id} "
                f"(recorded step has node {step.node_id})")
        self.steps[self._step_cursor] = DerivationStep(
            step.node_id, step.rule, step.description, pre, post)
        self._step_cursor += 1
        return pre, dpre

    def extend_specification(self, name: str) -> None:
        """Replay the ``ValidCtx`` obligation of a procedure spec."""
        spec = self.specs.lookup(name)
        if spec is None:
            raise AnalysisError(f"procedure {name!r} has no registered specification")
        proc = self.program.procedures[name]
        body_pre, dbody_pre = self.extend_command(
            proc.body, spec.post, PotentialAnnotation.zero())
        entry_context = self.interpreter.context_before(proc.body)
        self.extend_weaken(entry_context, spec.pre,
                           self._spec_deltas.get(name, PotentialAnnotation.zero()),
                           body_pre, dbody_pre, origin=f"spec:{name}")

    def extend_template(self, monomials
                        ) -> Tuple[PotentialAnnotation, PotentialAnnotation]:
        """Grow the next journaled template to cover ``monomials``."""
        record = self.templates[self._template_cursor]
        self._template_cursor += 1
        merged, delta = PotentialAnnotation.extend_template(
            self.system, record.annotation, monomials, record.name, nonneg=True)
        record.annotation = merged
        return merged, delta

    # -- extended weakening --------------------------------------------------

    def extend_weaken(self, context: Context,
                      stronger: PotentialAnnotation, dstronger: PotentialAnnotation,
                      weaker: PotentialAnnotation, dweaker: PotentialAnnotation,
                      origin: str) -> None:
        """Replay a ``Q:Weaken`` at the next degree.

        The degree-``d`` rows stay as they are; this emits, per monomial,
        only the *delta* contribution -- new template coefficients and the
        columns of the newly applicable rewrite functions (e.g. the lifted
        degree-2 products).  Deltas land on the recorded row of the
        monomial when one exists, else in a fresh row; either way the
        combined system is row-for-row what a from-scratch derivation at
        the higher degree would build, with the base rewrites kept as a
        (sound) superset.
        """
        if context.is_unreachable or not context.is_satisfiable():
            return  # the base walk skipped this weakening too
        record = self.weakens[self._weaken_cursor]
        self._weaken_cursor += 1
        if record.origin != origin:
            raise AnalysisError(
                f"escalation replay drift: expected weakening "
                f"{record.origin!r}, replayed {origin!r}")
        monomials: Set[Monomial] = set(stronger.monomials()) | set(weaker.monomials())
        monomials.add(Monomial.one())
        max_degree = max((m.degree() for m in monomials), default=1)
        rewrites = generate_rewrites(context, monomials, max_degree)
        # Polynomials cache their hash, and the memoised rewrites shared
        # with the base walk compare by identity.
        known = {rewrite.polynomial for rewrite in record.rewrites}
        fresh = [rewrite for rewrite in rewrites
                 if rewrite.polynomial not in known]

        def emit(monomial: Monomial, row: AffExpr, row_origin: str) -> None:
            self._extend_rows(record.rows, monomial, row, origin=row_origin)

        delta_monomials: Set[Monomial] = set(dstronger.terms) | set(dweaker.terms)
        multipliers = self._weaken_rows(origin, fresh, dstronger, dweaker,
                                        delta_monomials, emit)
        record.stronger = stronger
        record.weaker = weaker
        # generate_rewrites returns shared memoised lists: concatenate into
        # fresh lists instead of mutating.
        record.rewrites = list(record.rewrites) + fresh
        record.multipliers = list(record.multipliers) + multipliers

    # -- per-rule extension handlers -----------------------------------------
    # Each mirrors its ``_rule_*`` twin on (full, delta) pairs.  Rational
    # contributions (tick amounts, probabilities, substitution scales) are
    # identical across degrees, so they act on the full annotation while the
    # delta tracks exactly the new-variable part.

    def _ext_skip(self, command, post, dpost):
        return post, dpost

    def _ext_abort(self, command, post, dpost):
        return PotentialAnnotation.zero(), PotentialAnnotation.zero()

    def _ext_assert(self, command, post, dpost):
        return post, dpost

    def _ext_assume(self, command, post, dpost):
        return post, dpost

    def _ext_tick(self, command, post, dpost):
        if command.is_constant:
            return post.add_constant(command.amount), dpost
        try:
            amount = ast.expr_to_linexpr(command.amount)
        except LoweringError as exc:
            raise AnalysisError(f"tick amount is not linear: {command.amount}") from exc
        return post.add_polynomial(Polynomial.interval(amount)), dpost

    def _ext_drop(self, var: str, post: PotentialAnnotation,
                  dpost: PotentialAnnotation, origin: str
                  ) -> Tuple[PotentialAnnotation, PotentialAnnotation]:
        rows = self._next_row_event("drop")
        kept_delta: Dict[Monomial, AffExpr] = {}
        for monomial, coeff in dpost.terms.items():
            if var in monomial.variables():
                self._extend_rows(rows, monomial, coeff, origin=origin)
            else:
                kept_delta[monomial] = coeff
        kept_full = {monomial: coeff for monomial, coeff in post.terms.items()
                     if var not in monomial.variables()}
        return PotentialAnnotation(kept_full), PotentialAnnotation(kept_delta)

    def _ext_assign(self, command, post, dpost):
        try:
            rhs = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return self._ext_drop(
                command.target, post, dpost,
                origin=f"nonlinear-assign:{command.target}@{command.node_id}")
        return (post.substitute(command.target, rhs),
                dpost.substitute(command.target, rhs))

    def _ext_sample(self, command, post, dpost):
        try:
            base = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return self._ext_drop(
                command.target, post, dpost,
                origin=f"nonlinear-sample:{command.target}@{command.node_id}")
        full_parts: List[Tuple[Fraction, PotentialAnnotation]] = []
        delta_parts: List[Tuple[Fraction, PotentialAnnotation]] = []
        for value, probability in command.distribution.support():
            if command.op == "+":
                outcome = base + value
            elif command.op == "-":
                outcome = base - value
            else:
                outcome = base * value
            full_parts.append((probability,
                               post.substitute(command.target, outcome)))
            delta_parts.append((probability,
                                dpost.substitute(command.target, outcome)))
        return (PotentialAnnotation.weighted_sum(full_parts),
                PotentialAnnotation.weighted_sum(delta_parts))

    def _ext_probchoice(self, command, post, dpost):
        left, dleft = self.extend_command(command.left, post, dpost)
        right, dright = self.extend_command(command.right, post, dpost)
        weights = [(command.probability, left), (1 - command.probability, right)]
        dweights = [(command.probability, dleft), (1 - command.probability, dright)]
        return (PotentialAnnotation.weighted_sum(weights),
                PotentialAnnotation.weighted_sum(dweights))

    def _ext_if(self, command, post, dpost):
        context = self._context_before(command)
        then_ctx = context.add_facts(facts_from_condition(command.condition))
        else_ctx = context.add_facts(negated_facts_from_condition(command.condition))
        then_pre, dthen = self.extend_command(command.then_branch, post, dpost)
        else_pre, delse = self.extend_command(command.else_branch, post, dpost)
        monomials = template_monomials_for_join(then_pre.monomials(),
                                                else_pre.monomials())
        joined, djoined = self.extend_template(monomials)
        self.extend_weaken(then_ctx, joined, djoined, then_pre, dthen,
                           origin=f"if-then@{command.node_id}")
        self.extend_weaken(else_ctx, joined, djoined, else_pre, delse,
                           origin=f"if-else@{command.node_id}")
        return joined, djoined

    def _ext_nondetchoice(self, command, post, dpost):
        context = self._context_before(command)
        left_pre, dleft = self.extend_command(command.left, post, dpost)
        right_pre, dright = self.extend_command(command.right, post, dpost)
        monomials = template_monomials_for_join(left_pre.monomials(),
                                                right_pre.monomials())
        joined, djoined = self.extend_template(monomials)
        self.extend_weaken(context, joined, djoined, left_pre, dleft,
                           origin=f"nondet-left@{command.node_id}")
        self.extend_weaken(context, joined, djoined, right_pre, dright,
                           origin=f"nondet-right@{command.node_id}")
        return joined, djoined

    def _ext_seq(self, command, post, dpost):
        current, dcurrent = post, dpost
        for sub in reversed(command.commands):
            current, dcurrent = self.extend_command(sub, current, dcurrent)
        return current, dcurrent

    def _ext_while(self, command, post, dpost):
        invariant_ctx = self._context_before(command)
        monomials = template_monomials_for_loop(command, invariant_ctx,
                                                post.monomials(),
                                                self.basegen_config)
        invariant, dinvariant = self.extend_template(monomials)
        exit_ctx = invariant_ctx.add_facts(
            negated_facts_from_condition(command.condition))
        body_ctx = invariant_ctx.add_facts(facts_from_condition(command.condition))
        self.extend_weaken(exit_ctx, invariant, dinvariant, post, dpost,
                           origin=f"loop-exit@{command.node_id}")
        body_pre, dbody = self.extend_command(command.body, invariant, dinvariant)
        self.extend_weaken(body_ctx, invariant, dinvariant, body_pre, dbody,
                           origin=f"loop-head@{command.node_id}")
        return invariant, dinvariant

    def _ext_call(self, command, post, dpost):
        spec = self.specs.lookup(command.procedure)
        if spec is None:
            raise AnalysisError(
                f"no specification for procedure {command.procedure!r}; "
                "non-recursive calls should have been inlined")
        rows = self._next_row_event("call")
        frame_terms: Dict[Monomial, AffExpr] = {}
        frame_delta: Dict[Monomial, AffExpr] = {}
        for monomial, coeff in dpost.terms.items():
            if spec.frameable(monomial):
                frame_delta[monomial] = coeff
            else:
                self._extend_rows(
                    rows, monomial, coeff,
                    origin=f"call-frame:{command.procedure}:{monomial}")
        for monomial, coeff in post.terms.items():
            if spec.frameable(monomial):
                frame_terms[monomial] = coeff
        dspec = self._spec_deltas.get(command.procedure,
                                      PotentialAnnotation.zero())
        return (spec.pre.plus(PotentialAnnotation(frame_terms)),
                dspec.plus(PotentialAnnotation(frame_delta)))
