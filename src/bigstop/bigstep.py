"""Conventional big-step evaluation with fuel.

Fuel is spent exactly where the small-step engine would spend a step, so
big_step(e, n) converges exactly when multi_step(e, n) reaches a value,
with the same value and trace.  Premisses are evaluated left to right,
which is what sequences the effects.
"""

from .budget import Budget, BudgetExhausted
from .record import record
from .syntax import App, Case, Eff, Expr, Lam, Succ, Zero, is_value, subst
from .traces import Trace


@record
class Value:
    value: Expr
    trace: Trace


@record
class FuelExhausted:
    pass


@record
class Stuck:
    at: Expr


BigStepOutcome = Value | FuelExhausted | Stuck


class _StuckEval(Exception):
    def __init__(self, at: Expr):
        self.at = at


def big_step(e: Expr, fuel: int) -> BigStepOutcome:
    b = Budget(fuel)
    labels: list = []
    try:
        v = _eval(e, b, labels)
    except BudgetExhausted:
        return FuelExhausted()
    except _StuckEval as s:
        return Stuck(s.at)
    return Value(v, tuple(labels))


def _eval(e: Expr, b: Budget, labels: list) -> Expr:
    """The value of e; every label emitted on the way is appended to labels."""
    if is_value(e):
        return e
    c = type(e)
    if c is App:
        f = _eval(e.fn, b, labels)
        v = _eval(e.arg, b, labels)
        b.spend()
        if type(f) is not Lam:
            raise _StuckEval(App(f, v))
        return _eval(subst(f.body, {f.self_var: f, f.param: v}), b, labels)
    if c is Succ:
        return Succ(_eval(e.body, b, labels))
    if c is Eff:
        b.spend()
        labels.append(e.label)
        return _eval(e.body, b, labels)
    if c is Case:
        v = _eval(e.scrutinee, b, labels)
        b.spend()
        if type(v) is Zero:
            return _eval(e.zero_branch, b, labels)
        if type(v) is Succ:
            return _eval(subst(e.succ_branch, {e.succ_var: v.body}), b, labels)
        raise _StuckEval(Case(e.zero_branch, e.succ_var, e.succ_branch, v))
    raise _StuckEval(e)  # a variable or a let has no rule
