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
    App, Case, Eff, Expr, Lam, Let, Succ, Var, Zero, is_value, subst,
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
    match ctx:
        case Hole():
            return e
        case SuccC(c):
            return Succ(plug(c, e))
        case CaseC(zb, xv, sb, c):
            return Case(zb, xv, sb, plug(c, e))
        case AppFnC(c, arg):
            return App(plug(c, e), arg)
        case AppArgC(v, c):
            return App(v, plug(c, e))
    raise TypeError(f"not a context: {ctx!r}")


def decompose(e: Expr):
    """Split a non-value into (context, redex candidate); None for values.

    The redex candidate is whatever sits at the evaluation position - a
    case over a value, an application of two values, an effect, or a stray
    variable/let (which contract() will refuse, i.e. the term is stuck).
    """
    if is_value(e):
        return None
    match e:
        case Succ(b):
            ctx, r = decompose(b)  # b is a non-value or e would be one
            return SuccC(ctx), r
        case Case(zb, xv, sb, sc):
            if is_value(sc):
                return Hole(), e
            ctx, r = decompose(sc)
            return CaseC(zb, xv, sb, ctx), r
        case App(f, a):
            if not is_value(f):
                ctx, r = decompose(f)
                return AppFnC(ctx, a), r
            if not is_value(a):
                ctx, r = decompose(a)
                return AppArgC(f, ctx), r
            return Hole(), e
        case _:
            # Eff is itself the redex; Var and Let have no rule and will
            # fail to contract
            return Hole(), e


def contract(r: Expr):
    """One contraction of a redex: (result, trace) or None if stuck."""
    match r:
        case Case(zb, _, _, Zero()):
            return zb, ()
        case Case(_, xv, sb, Succ(v)) if is_value(v):
            return subst(sb, {xv: v}), ()
        case App(Lam(f, x, b) as lam, v) if is_value(v):
            return subst(b, {f: lam, x: v}), ()
        case Eff(l, b):
            return b, (l,)
        case _:
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
    out = [e]
    for _ in range(budget):
        r = small_step(e)
        if r is None:
            break
        e = r.expr
        out.append(e)
    return out
