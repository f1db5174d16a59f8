"""Small-step and multi-step evaluation.

One step finds the leftmost evaluation position (under s, at a case
scrutinee, at the function then the argument of an application), then
contracts the redex there: case selection, beta with the function value
substituted for the self binder, or an effect, which emits its label.
"""

import enum
from dataclasses import dataclass

from .budget import check_budget
from .syntax import (
    App, Case, Eff, Expr, Lam, Succ, Zero, is_value, subst,
)
from .traces import Trace

### evaluation contexts


class EvalContext:
    pass


@dataclass(frozen=True)
class Hole(EvalContext):
    pass


@dataclass(frozen=True)
class SuccC(EvalContext):
    body: EvalContext


@dataclass(frozen=True)
class CaseC(EvalContext):
    zero_branch: Expr
    succ_var: str
    succ_branch: Expr
    scrutinee: EvalContext


@dataclass(frozen=True)
class AppFnC(EvalContext):
    fn: EvalContext
    arg: Expr


@dataclass(frozen=True)
class AppArgC(EvalContext):
    fn_value: Expr  # must be a value
    arg: EvalContext


# hand-written, like decompose, not read off the syntax table: engines stay independent
def plug(ctx: EvalContext, e: Expr) -> Expr:
    c = type(ctx)
    if c is Hole:
        return e
    if c is AppFnC:
        return App(plug(ctx.fn, e), ctx.arg)
    if c is AppArgC:
        return App(ctx.fn_value, plug(ctx.arg, e))
    if c is SuccC:
        return Succ(plug(ctx.body, e))
    if c is CaseC:
        return Case(ctx.zero_branch, ctx.succ_var, ctx.succ_branch, plug(ctx.scrutinee, e))
    raise TypeError(f"not a context: {ctx!r}")


def decompose(e: Expr):
    """Split a non-value into (context, redex candidate); None for values.

    The redex candidate is whatever sits at the evaluation position - a
    case over a value, an application of two values, an effect, or a stray
    variable/let (which contract() will refuse, i.e. the term is stuck).
    """
    if is_value(e):
        return None
    return _split(e)


def _split(e: Expr):
    """decompose for a non-value e.  A successor's body is then one too, so
    a chain of them is descended without asking is_value again."""
    c = type(e)
    if c is App:
        f, a = e.fn, e.arg
        if not is_value(f):
            ctx, r = _split(f)
            return AppFnC(ctx, a), r
        if not is_value(a):
            ctx, r = _split(a)
            return AppArgC(f, ctx), r
        return Hole(), e
    if c is Succ:
        ctx, r = _split(e.body)
        return SuccC(ctx), r
    if c is Case:
        if is_value(e.scrutinee):
            return Hole(), e
        ctx, r = _split(e.scrutinee)
        return CaseC(e.zero_branch, e.succ_var, e.succ_branch, ctx), r
    # Eff is itself the redex; Var and Let have no rule and will fail to
    # contract
    return Hole(), e


def contract(r: Expr):
    """One contraction of a redex: (result, trace) or None if stuck."""
    c = type(r)
    if c is App:
        f, v = r.fn, r.arg
        if type(f) is Lam and is_value(v):
            return subst(f.body, {f.self_var: f, f.param: v}), ()
    elif c is Eff:
        return r.body, (r.label,)
    elif c is Case:
        sc = r.scrutinee
        if type(sc) is Zero:
            return r.zero_branch, ()
        if type(sc) is Succ and is_value(sc.body):
            return subst(r.succ_branch, {r.succ_var: sc.body}), ()
    return None


### stepping


@dataclass(frozen=True)
class StepResult:
    expr: Expr
    trace: Trace


def small_step(e: Expr):
    """One step, or None when e is a value or stuck."""
    dec = decompose(e)
    if dec is None:
        return None
    ctx, r = dec
    c = contract(r)
    if c is None:
        return None
    e2, tr = c
    return StepResult(plug(ctx, e2), tr)


class RunStatus(enum.Enum):
    REACHED_VALUE = "ReachedValue"
    OUT_OF_BUDGET = "OutOfBudget"
    STUCK = "Stuck"


@dataclass(frozen=True)
class MultiResult:
    final: Expr
    trace: Trace
    steps: int
    status: RunStatus


def multi_step(e: Expr, budget: int) -> MultiResult:
    check_budget(budget)
    labels: list = []
    steps = 0
    while True:
        if is_value(e):
            return MultiResult(e, tuple(labels), steps, RunStatus.REACHED_VALUE)
        if steps == budget:
            return MultiResult(e, tuple(labels), steps, RunStatus.OUT_OF_BUDGET)
        r = small_step(e)
        if r is None:
            return MultiResult(e, tuple(labels), steps, RunStatus.STUCK)
        e = r.expr
        labels += r.trace
        steps += 1


def step_trace(e: Expr, budget: int):
    """The trajectory [e0, e1, ...] out to the budget, a value, or stuckness."""
    check_budget(budget)
    out = [e]
    for _ in range(budget):
        r = small_step(e)
        if r is None:
            break
        e = r.expr
        out.append(e)
    return out
