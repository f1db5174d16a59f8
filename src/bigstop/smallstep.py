"""Small-step and multi-step evaluation.

One step finds the leftmost evaluation position (under s, at a case
scrutinee, at the function then the argument of an application), then
contracts the redex there: case selection, beta with the function value
substituted for the self binder, or an effect, which emits its label.
"""

import enum

from .budget import check_budget
from .record import record
from .syntax import App, Case, Eff, Expr, Lam, Succ, Zero, beta, is_value, subst
from .traces import Trace

### evaluation contexts
# A context is the tuple of terms around the hole, outermost first.  Each
# holds the hole at its evaluation position: a successor's body, a case's
# scrutinee, or an application's function while that is no value, else its
# argument.  Hand-written, not read off the syntax table: engines stay
# independent.


def plug(ctx: tuple, e: Expr) -> Expr:
    for p in reversed(ctx):
        c = type(p)
        if c is Succ:
            e = Succ(e)
        elif c is Case:
            e = Case(p.zero_branch, p.succ_var, p.succ_branch, e)
        elif c is App:
            # decompose only goes into a function that is no value
            e = App(p.fn, e) if is_value(p.fn) else App(e, p.arg)
        else:
            raise TypeError(f"not a context: {ctx!r}")
    return e


def decompose(e: Expr):
    """Split a non-value into (context, redex candidate); None for values.

    The redex candidate is whatever sits at the evaluation position - a
    case over a value, an application of two values, an effect, or a stray
    variable/let (which contract() will refuse, i.e. the term is stuck).
    Every term on the way down is a non-value, so a successor's body is
    descended without asking is_value again.
    """
    if is_value(e):
        return None
    ctx = []
    while True:
        c = type(e)
        if c is Succ:
            ctx.append(e)
            e = e.body
        elif c is App and not is_value(e.fn):
            ctx.append(e)
            e = e.fn
        elif c is App and not is_value(e.arg):
            ctx.append(e)
            e = e.arg
        elif c is Case and not is_value(e.scrutinee):
            ctx.append(e)
            e = e.scrutinee
        else:
            # Eff is itself the redex; Var and Let have no rule and will
            # fail to contract
            return tuple(ctx), e


def contract(r: Expr):
    """One contraction of a redex: (result, trace) or None if stuck."""
    c = type(r)
    if c is App:
        f, v = r.fn, r.arg
        if type(f) is Lam and is_value(v):
            return beta(f, v), ()
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


@record
class StepResult:
    expr: Expr
    trace: Trace


def _step(e: Expr):
    """One step as a (term, trace) pair, or None when e is a value or stuck."""
    dec = decompose(e)
    if dec is None:
        return None
    ctx, r = dec
    c = contract(r)
    if c is None or not ctx:
        return c
    return plug(ctx, c[0]), c[1]


def small_step(e: Expr):
    """One step, or None when e is a value or stuck."""
    r = _step(e)
    return None if r is None else StepResult(*r)


class RunStatus(enum.Enum):
    REACHED_VALUE = "ReachedValue"
    OUT_OF_BUDGET = "OutOfBudget"
    STUCK = "Stuck"


@record
class MultiResult:
    final: Expr
    trace: Trace
    steps: int
    status: RunStatus


def multi_step(e: Expr, budget: int) -> MultiResult:
    return _run(_step, e, budget)


def _run(step, e: Expr, budget: int) -> MultiResult:
    """Take step, a (term, trace) pair or None, until the budget or a term
    step refuses, a value included; the loop of multi_step and of
    mnf.mnf_multi_step, each with its own step."""
    check_budget(budget)
    labels: list = []
    steps = 0
    while steps < budget:
        r = step(e)
        if r is None:
            break
        e, tr = r
        labels += tr
        steps += 1
    status = (RunStatus.REACHED_VALUE if is_value(e)
              else RunStatus.OUT_OF_BUDGET if steps == budget else RunStatus.STUCK)
    return MultiResult(e, tuple(labels), steps, status)


def step_trace(e: Expr, budget: int):
    """The trajectory [e0, e1, ...] out to the budget, a value, or stuckness."""
    check_budget(budget)
    out = [e]
    for _ in range(budget):
        r = _step(e)
        if r is None:
            break
        e = r[0]
        out.append(e)
    return out
