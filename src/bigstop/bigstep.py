"""Conventional big-step evaluation with fuel.

Fuel is spent exactly where the small-step engine would spend a step, so
big_step(e, n) converges exactly when multi_step(e, n) reaches a value,
with the same value and trace.  Premisses are evaluated left to right,
which is what sequences the effects.  The evaluator is one loop over the
term in focus and a stack of what waits on its value: it runs at any depth
and returns, never raises, when the fuel runs out or the term is stuck.
"""

from .budget import check_budget
from .record import record
from .syntax import App, Case, Eff, Expr, Lam, Succ, Zero, beta, is_value, subst
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

_ARG, _BETA, _SUCC, _CASE = range(4)  # what waits on a value: see big_step


def big_step(e: Expr, fuel: int) -> BigStepOutcome:
    n = check_budget(fuel)
    labels: list = []
    rest = ()  # (kind, term, rest): what waits on the value of e, innermost first
    while True:
        if is_value(e):
            if not rest:
                return Value(e, tuple(labels))
            kind, t, rest = rest
            if kind == _ARG:  # e is the function, t its argument
                rest = (_BETA, e, rest)
                e = t
            elif kind == _SUCC:
                e = Succ(e)
            elif not n:
                return FuelExhausted()
            elif kind == _BETA:  # t is the function, e its argument
                n -= 1
                if type(t) is not Lam:
                    return Stuck(App(t, e))
                e = beta(t, e)
            else:  # t is the case, e its scrutinee
                n -= 1
                if type(e) is Zero:
                    e = t.zero_branch
                elif type(e) is Succ:
                    e = subst(t.succ_branch, {t.succ_var: e.body})
                else:
                    return Stuck(Case(t.zero_branch, t.succ_var, t.succ_branch, e))
            continue
        c = type(e)
        if c is App:
            rest = (_ARG, e.arg, rest)
            e = e.fn
        elif c is Succ:
            rest = (_SUCC, None, rest)
            e = e.body
        elif c is Case:
            rest = (_CASE, e, rest)
            e = e.scrutinee
        elif c is not Eff:
            return Stuck(e)  # a variable or a let has no rule
        elif not n:
            return FuelExhausted()
        else:
            n -= 1
            labels.append(e.label)
            e = e.body
