"""Forward abstract interpretation inferring logical contexts (paper Sec. 7.1).

The abstract interpreter computes, for every command node, a :class:`Context`
(a conjunction of linear inequalities) that holds whenever control reaches
that node.  The derivation system later consults these contexts to decide
which rewrite functions are applicable during weakening, and the
base-function heuristic mines them for interval atoms.

The domain is deliberately simple -- the paper reports that a simple AI with
linear inequalities "is sufficient to infer many bounds and provides good
performance"; a richer domain (e.g. Apron octagons/polyhedra) could be
substituted behind the same interface.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lang import ast
from repro.lang.errors import LoweringError
from repro.lang.transform import modified_variables
from repro.logic.conditions import facts_from_condition, negated_facts_from_condition
from repro.logic.contexts import Context
from repro.utils.linear import LinExpr

#: Maps command node ids to the context holding *before* the command runs.
ContextMap = Dict[int, Context]

#: Number of fixpoint iterations before widening kicks in.
WIDENING_DELAY = 3
#: Hard cap on fixpoint iterations (the widening guarantees termination much
#: earlier; the cap is a defensive measure).
MAX_ITERATIONS = 20


class AbstractInterpreter:
    """Forward AI over :class:`Context` for one program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.contexts: ContextMap = {}
        self.post_contexts: ContextMap = {}
        #: Procedures whose fixpoints are already recorded.  The contexts a
        #: run computes are degree independent, so the pipeline
        #: (:mod:`repro.core.pipeline`) keeps one interpreter alive across
        #: degree escalations and re-entry is a no-op.
        self._analyzed: Dict[str, Context] = {}

    # -- public API ----------------------------------------------------------

    def analyze_procedure(self, name: str,
                          entry: Optional[Context] = None) -> Context:
        """Run the AI over a procedure body; return the exit context."""
        proc = self.program.procedures[name]
        start = entry if entry is not None else Context.top()
        exit_context = self.analyze_command(proc.body, start)
        if entry is None:
            self._analyzed[name] = exit_context
        return exit_context

    def ensure_procedure(self, name: str) -> Context:
        """Analyze ``name`` from the top entry context exactly once.

        Repeated calls (degree retries, staged pipelines) return the
        recorded exit context without re-running the fixpoint iteration.
        """
        cached = self._analyzed.get(name)
        if cached is not None:
            return cached
        return self.analyze_procedure(name)

    def analyze_command(self, command: ast.Command, ctx: Context) -> Context:
        """Record pre-contexts for every node of ``command``; return the post."""
        self.contexts[command.node_id] = ctx
        post = self._transfer(command, ctx)
        self.post_contexts[command.node_id] = post
        return post

    def context_before(self, command: ast.Command) -> Context:
        """The recorded context in front of ``command`` (top if never visited)."""
        return self.contexts.get(command.node_id, Context.top())

    def context_after(self, command: ast.Command) -> Context:
        return self.post_contexts.get(command.node_id, Context.top())

    # -- transfer functions -------------------------------------------------------

    def _transfer(self, command: ast.Command, ctx: Context) -> Context:
        if isinstance(command, (ast.Skip, ast.Tick, ast.Call)):
            if isinstance(command, ast.Call):
                return self._transfer_call(command, ctx)
            return ctx
        if isinstance(command, ast.Abort):
            return Context.unreachable_context()
        if isinstance(command, (ast.Assert, ast.Assume)):
            return ctx.add_facts(facts_from_condition(command.condition))
        if isinstance(command, ast.Assign):
            return self._transfer_assign(command, ctx)
        if isinstance(command, ast.Sample):
            return self._transfer_sample(command, ctx)
        if isinstance(command, ast.Seq):
            current = ctx
            for sub in command.commands:
                current = self.analyze_command(sub, current)
            return current
        if isinstance(command, ast.If):
            then_ctx = ctx.add_facts(facts_from_condition(command.condition))
            else_ctx = ctx.add_facts(negated_facts_from_condition(command.condition))
            then_post = self.analyze_command(command.then_branch, then_ctx)
            else_post = self.analyze_command(command.else_branch, else_ctx)
            return then_post.join(else_post)
        if isinstance(command, ast.NonDetChoice):
            left_post = self.analyze_command(command.left, ctx)
            right_post = self.analyze_command(command.right, ctx)
            return left_post.join(right_post)
        if isinstance(command, ast.ProbChoice):
            left_post = self.analyze_command(command.left, ctx)
            right_post = self.analyze_command(command.right, ctx)
            return left_post.join(right_post)
        if isinstance(command, ast.While):
            return self._transfer_while(command, ctx)
        raise TypeError(f"unknown command {command!r}")

    def _transfer_assign(self, command: ast.Assign, ctx: Context) -> Context:
        try:
            rhs = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return ctx.havoc(command.target)
        return ctx.assign(command.target, rhs)

    def _transfer_sample(self, command: ast.Sample, ctx: Context) -> Context:
        try:
            base = ast.expr_to_linexpr(command.expr)
        except LoweringError:
            return ctx.havoc(command.target)
        support = command.distribution.support()
        values = [value for value, _ in support]
        low, high = min(values), max(values)
        if command.op == "+":
            return ctx.assign_interval(command.target, base, low, high)
        if command.op == "-":
            return ctx.assign_interval(command.target, base, -high, -low)
        # Multiplication by a sampled value: only constant bases stay linear.
        if base.is_constant():
            outcomes = sorted(base.const_term * value for value in values)
            return ctx.assign_interval(command.target, LinExpr.zero(),
                                       outcomes[0], outcomes[-1])
        return ctx.havoc(command.target)

    def _transfer_call(self, command: ast.Call, ctx: Context) -> Context:
        result = ctx
        for var in sorted(modified_variables(self.program, command.procedure)):
            result = result.havoc(var)
        return result

    def _transfer_while(self, command: ast.While, ctx: Context) -> Context:
        invariant = ctx
        for iteration in range(MAX_ITERATIONS):
            body_entry = invariant.add_facts(facts_from_condition(command.condition))
            body_post = self._transfer_silent(command.body, body_entry)
            joined = invariant.join(body_post)
            if iteration >= WIDENING_DELAY:
                joined = invariant.widen(joined)
            # Syntactic equality is the common stabilisation case and avoids
            # the two-way semantic entailment check entirely.
            if joined == invariant:
                break
            if joined.entails_context(invariant) and invariant.entails_context(joined):
                invariant = joined
                break
            invariant = joined
        # Record contexts for the loop head and (in a final stable pass) the body.
        self.contexts[command.node_id] = invariant
        body_entry = invariant.add_facts(facts_from_condition(command.condition))
        self.analyze_command(command.body, body_entry)
        exit_ctx = invariant.add_facts(
            negated_facts_from_condition(command.condition))
        return exit_ctx

    def _transfer_silent(self, command: ast.Command, ctx: Context) -> Context:
        """Run a transfer without recording contexts (used inside fixpoints)."""
        saved_pre = dict(self.contexts)
        saved_post = dict(self.post_contexts)
        result = self.analyze_command(command, ctx)
        self.contexts = saved_pre
        self.post_contexts = saved_post
        return result


def analyze_program(program: ast.Program,
                    entry: Optional[Context] = None) -> AbstractInterpreter:
    """Convenience wrapper: analyze the main procedure and every other procedure."""
    interpreter = AbstractInterpreter(program)
    interpreter.analyze_procedure(program.main, entry)
    for name in program.procedures:
        if name != program.main:
            interpreter.analyze_procedure(name, Context.top())
    return interpreter
