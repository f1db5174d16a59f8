"""Conventional big-step evaluation with fuel.

Fuel is spent exactly where the small-step engine would spend a step, so
big_step(e, n) converges exactly when multi_step(e, n) reaches a value,
with the same value and trace.  Premisses are evaluated left to right,
which is what sequences the effects.
"""

from dataclasses import dataclass

from .budget import Budget
from .syntax import App, Case, Eff, Expr, Lam, Let, Succ, Var, Zero, is_value, subst
from .traces import Trace


@dataclass(frozen=True)
class Value:
    value: Expr
    trace: Trace


@dataclass(frozen=True)
class FuelExhausted:
    pass


@dataclass(frozen=True)
class Stuck:
    at: Expr


BigStepOutcome = Value | FuelExhausted | Stuck


class _OutOfFuel(Exception):
    pass


class _StuckEval(Exception):
    def __init__(self, at: Expr):
        self.at = at


def big_step(e: Expr, fuel: int) -> BigStepOutcome:
    b = Budget(fuel)
    labels: list = []
    try:
        v = _eval(e, b, labels)
    except _OutOfFuel:
        return FuelExhausted()
    except _StuckEval as s:
        return Stuck(s.at)
    return Value(v, tuple(labels))


def _spend(b: Budget) -> None:
    if b.remaining == 0:
        raise _OutOfFuel()
    b.spend()


def _eval(e: Expr, b: Budget, labels: list) -> Expr:
    """The value of e; every label emitted on the way is appended to labels."""
    if is_value(e):
        return e
    match e:
        case Succ(body):
            return Succ(_eval(body, b, labels))
        case Case(zb, xv, sb, sc):
            v = _eval(sc, b, labels)
            _spend(b)
            if isinstance(v, Zero):
                return _eval(zb, b, labels)
            if isinstance(v, Succ):
                return _eval(subst(sb, {xv: v.body}), b, labels)
            raise _StuckEval(Case(zb, xv, sb, v))
        case App(fn, arg):
            f = _eval(fn, b, labels)
            v = _eval(arg, b, labels)
            _spend(b)
            if not isinstance(f, Lam):
                raise _StuckEval(App(f, v))
            return _eval(subst(f.body, {f.self_var: f, f.param: v}), b, labels)
        case Eff(l, body):
            _spend(b)
            labels.append(l)
            return _eval(body, b, labels)
        case Var() | Let():
            raise _StuckEval(e)
    raise _StuckEval(e)
