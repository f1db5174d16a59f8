"""Monadic normal form: translation, erasure, and its own engines.

In MNF every constructor argument that evaluation would descend into is
already a value; all sequencing happens through `let`.  The translation
binds each non-value evaluation position to a fresh name, left to right,
so a source term and its image emit the same trace and converge to the
same value up to erasing the lets back out.
"""

import itertools

from .budget import Budget, check_budget
from .bigstop import (
    BigStopResult, Derivation, NotMNF, StuckError, val_leaf,
)
from .syntax import (
    App, BLANK, Case, Eff, Expr, Lam, Let, Succ, Var, Zero,
    all_names, check_mnf, free_vars, is_value, rebuild, scoped_children, subst,
)
from .smallstep import MultiResult, RunStatus, StepResult
from .traces import emit


def to_mnf(e: Expr) -> Expr:
    """Translate a plain term into monadic normal form.

    Fresh let names are t0, t1, ... skipping anything already used in e.
    """
    used = all_names(e)
    counter = itertools.count()

    def fresh() -> str:
        while True:
            name = f"t{next(counter)}"
            if name not in used:
                used.add(name)
                return name

    # hand-written, not read off the syntax table: each constructor is sequenced its own way
    def norm(e: Expr) -> Expr:
        c = type(e)
        if c is Var or c is Zero:
            return e
        if c is App:
            return bind(e.fn, lambda vf: bind(e.arg, lambda va: App(vf, va)))
        if c is Succ:
            return bind(e.body, Succ)
        if c is Lam:
            return Lam(e.self_var, e.param, norm(e.body))
        if c is Eff:
            return Eff(e.label, norm(e.body))
        if c is Case:
            return bind(e.scrutinee, lambda v: Case(norm(e.zero_branch), e.succ_var, norm(e.succ_branch), v))
        if c is Let:
            return Let(e.var, norm(e.bound), norm(e.body))
        raise TypeError(f"not an expression: {e!r}")

    def bind(e: Expr, k) -> Expr:
        # normalize e into something legal in a value position
        c = type(e)
        if c is Var or c is Zero:
            return k(e)
        if c is Lam:
            return k(norm(e))
        if c is Succ:
            return bind(e.body, lambda v: k(Succ(v)))
        t = fresh()
        return Let(t, norm(e), k(Var(t)))

    return norm(e)


def let_erase(e: Expr) -> Expr:
    """Inline every let back out; left inverse of to_mnf."""
    if isinstance(e, Let):
        return _inline(let_erase(e.body), e.var, let_erase(e.bound))
    return rebuild(e, [let_erase(kid) for kid, _ in scoped_children(e)])


def _inline(e: Expr, name: str, repl: Expr) -> Expr:
    """Substitute an arbitrary term, renaming binders when they would
    capture a free variable of the replacement."""
    if name == BLANK:
        return e
    fv = free_vars(repl)

    def freshen(n: str, body_names) -> str:
        c = 0
        cand = n
        while cand in fv or cand in body_names:
            cand = f"{n}_{c}"
            c += 1
        return cand

    def go(e: Expr) -> Expr:
        match e:
            case Var(x):
                return repl if x == name else e
            case Lam(f, x, b):
                if name in (f, x):
                    return e
                if f in fv or x in fv:
                    taken = all_names(b)
                    f2 = freshen(f, taken) if f in fv and f != BLANK else f
                    b = b if f2 == f else _rename(b, f, f2)
                    x2 = freshen(x, taken | {f2}) if x in fv and x != BLANK else x
                    b = b if x2 == x else _rename(b, x, x2)
                    return Lam(f2, x2, go(b))
                return Lam(f, x, go(b))
            case Case(zb, xv, sb, sc):
                zb2, sc2 = go(zb), go(sc)
                if name == xv:
                    return Case(zb2, xv, sb, sc2)
                if xv in fv and xv != BLANK:
                    xv2 = freshen(xv, all_names(sb))
                    sb = _rename(sb, xv, xv2)
                    xv = xv2
                return Case(zb2, xv, go(sb), sc2)
            case Let(x, e1, b):
                e12 = go(e1)
                if name == x:
                    return Let(x, e12, b)
                if x in fv and x != BLANK:
                    x2 = freshen(x, all_names(b))
                    b = _rename(b, x, x2)
                    x = x2
                return Let(x, e12, go(b))
        # a node that binds nothing: substitute in each subterm
        return rebuild(e, [go(kid) for kid, _ in scoped_children(e)])

    return go(e)


def _rename(e: Expr, old: str, new: str) -> Expr:
    return _inline(e, old, Var(new))


### engines


def mnf_small_step(e: Expr):
    """One MNF step, or None for values and stuck terms."""
    c = type(e)
    if c is Let:
        e1 = e.bound
        if is_value(e1):
            return StepResult(subst(e.body, {e.var: e1}), ())
        r = mnf_small_step(e1)
        if r is None:
            return None
        return StepResult(Let(e.var, r.expr, e.body), r.trace)
    if c is App:
        f, v = e.fn, e.arg
        if type(f) is Lam and is_value(v):
            return StepResult(subst(f.body, {f.self_var: f, f.param: v}), ())
    elif c is Eff:
        return StepResult(e.body, (e.label,))
    elif c is Case:
        sc = e.scrutinee
        if type(sc) is Zero:
            return StepResult(e.zero_branch, ())
        if type(sc) is Succ and is_value(sc.body):
            return StepResult(subst(e.succ_branch, {e.succ_var: sc.body}), ())
    return None


def mnf_multi_step(e: Expr, budget: int) -> MultiResult:
    check_budget(budget)
    labels: list = []
    steps = 0
    while True:
        if is_value(e):
            return MultiResult(e, tuple(labels), steps, RunStatus.REACHED_VALUE)
        if steps == budget:
            return MultiResult(e, tuple(labels), steps, RunStatus.OUT_OF_BUDGET)
        r = mnf_small_step(e)
        if r is None:
            return MultiResult(e, tuple(labels), steps, RunStatus.STUCK)
        e = r.expr
        labels += r.trace
        steps += 1


def mnf_bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Budgeted evaluation of an MNF term with an StM-* derivation."""
    if not check_mnf(e):
        raise NotMNF(f"not in monadic normal form: {e!r}")
    d = _mstop(e, Budget(budget), [])
    return BigStopResult(d.rhs, tuple(d.trace), d)


def _mstop(e: Expr, b: Budget, log: list) -> Derivation:
    if is_value(e) or b.remaining == 0:
        return Derivation("StM-Stop", e, e, (), ())
    c = type(e)
    if c is Let:
        x, body = e.var, e.body
        p1 = _mstop(e.bound, b, log)
        v1 = p1.rhs
        if not is_value(v1) or b.remaining == 0:
            return Derivation(
                "StM-Let1", e, Let(x, v1, body), p1.trace, (p1,)
            )
        b.spend()
        pb = _mstop(subst(body, {x: v1}), b, log)
        return Derivation(
            "StM-Let2", e, pb.rhs, p1.trace + pb.trace,
            (p1, val_leaf(v1), pb),
        )
    if c is App:
        f, a = e.fn, e.arg
        if not (is_value(f) and is_value(a)):
            raise NotMNF(f"application of non-values: {e!r}")
        if type(f) is not Lam:
            raise StuckError(e)
        b.spend()
        pb = _mstop(subst(f.body, {f.self_var: f, f.param: a}), b, log)
        return Derivation("StM-App", e, pb.rhs, pb.trace, (val_leaf(a), pb))
    if c is Eff:
        b.spend()
        head = emit(log, e.label)
        p = _mstop(e.body, b, log)
        return Derivation("StM-Eff", e, p.rhs, head + p.trace, (p,))
    if c is Case:
        sc = e.scrutinee
        if type(sc) is Zero:
            b.spend()
            pb = _mstop(e.zero_branch, b, log)
            return Derivation("StM-CaseZ", e, pb.rhs, pb.trace, (pb,))
        if type(sc) is Succ and is_value(sc):
            b.spend()
            w = sc.body
            pb = _mstop(subst(e.succ_branch, {e.succ_var: w}), b, log)
            return Derivation(
                "StM-CaseS", e, pb.rhs, pb.trace, (val_leaf(w), pb)
            )
        raise StuckError(e)
    if c is Succ:
        raise NotMNF(f"successor of a non-value: {e!r}")
    raise StuckError(e)
