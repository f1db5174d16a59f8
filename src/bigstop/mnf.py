"""Monadic normal form: translation, erasure, and its own engines.

In MNF every constructor argument that evaluation would descend into is
already a value; all sequencing happens through `let`.  The translation
binds each non-value evaluation position to a fresh name, left to right,
so a source term and its image emit the same trace and converge to the
same value up to erasing the lets back out.
"""

import itertools

from .budget import check_budget
from .record import paused
from .bigstop import (
    BigStopResult, Derivation, StuckError, val_leaf,
)
from .syntax import (
    App, BLANK, Case, Eff, Expr, Lam, Let, Succ, Var, Zero,
    all_names, beta, check_mnf, free_vars, is_value, print_expr, rebuild, scoped_children, subst,
)
from .smallstep import MultiResult, StepResult, _run
from .traces import Span, since


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


def _spine(e: Expr):
    # the lets whose bound is no value, outermost first, and the term under
    # them; an MNF step there is administrative when that term is a let
    lets = []
    while type(e) is Let and not is_value(e.bound):
        lets.append(e)
        e = e.bound
    return lets, e


def _mnf_step(e: Expr):
    """One MNF step as a (term, trace) pair, or None for values and stuck
    terms.  The step is taken inside every let whose bound is no value, and
    those lets are rebuilt around its result."""
    lets, e = _spine(e)
    c = type(e)
    if c is Let:
        e, tr = subst(e.body, {e.var: e.bound}), ()
    elif c is App and type(e.fn) is Lam and is_value(e.arg):
        f = e.fn
        e, tr = beta(f, e.arg), ()
    elif c is Eff:
        e, tr = e.body, (e.label,)
    elif c is Case and type(e.scrutinee) is Zero:
        e, tr = e.zero_branch, ()
    elif c is Case and type(e.scrutinee) is Succ and is_value(e.scrutinee.body):
        e, tr = subst(e.succ_branch, {e.succ_var: e.scrutinee.body}), ()
    else:
        return None
    for let in reversed(lets):
        e = Let(let.var, e, let.body)
    return e, tr


def mnf_small_step(e: Expr):
    """One MNF step, or None for values and stuck terms."""
    r = _mnf_step(e)
    return None if r is None else StepResult(*r)


def mnf_multi_step(e: Expr, budget: int) -> MultiResult:
    return _run(_mnf_step, e, budget)


class NotMNF(Exception):
    pass


@paused
def mnf_bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Budgeted evaluation of an MNF term with an StM-* derivation."""
    if not check_mnf(e):
        raise NotMNF(f"not in monadic normal form: {print_expr(e)}")
    d = _mstop(e, check_budget(budget), [], {})
    return BigStopResult(d.rhs, tuple(d.trace), d)


# what a node of _mstop waits on: the run of its let's bound or body, or of
# the term its redex contracts to
_ON_BOUND, _ON_BODY, _ON_APP, _ON_EFF, _ON_CASEZ, _ON_CASES = range(6)


def _mstop(e: Expr, n: int, log: list, leaves: dict) -> Derivation:
    """One loop over the term in focus and a stack of the nodes that wait on
    its run, innermost first, as (kind, lhs, start, p1, rest): start is
    where the log stood at the node's entry, p1 its finished run (a let's
    bound) or its Val leaf.  leaves holds the run's StM-Stop and Val leaves
    (bigstop.shared_leaf); a node's trace is what the log gained between
    its entry and its exit."""
    if is_value(e) or not n:
        return Derivation("StM-Stop", e, e, (), ())
    rest = ()
    while True:
        while n and not is_value(e):
            c = type(e)
            if c is Let:
                rest = (_ON_BOUND, e, len(log), None, rest)
                e = e.bound
                continue
            if c is App:
                f, a = e.fn, e.arg
                if type(f) is not Lam:
                    raise StuckError(e)
                rest = (_ON_APP, e, 0, val_leaf(leaves, a), rest)
                e = beta(f, a)
            elif c is Eff:
                rest = (_ON_EFF, e, len(log), None, rest)
                log.append(e.label)
                e = e.body
            elif c is Case and type(e.scrutinee) is Zero:
                rest = (_ON_CASEZ, e, 0, None, rest)
                e = e.zero_branch
            elif c is Case and type(e.scrutinee) is Succ and is_value(e.scrutinee):
                w = e.scrutinee.body
                rest = (_ON_CASES, e, 0, val_leaf(leaves, w), rest)
                e = subst(e.succ_branch, {e.succ_var: w})
            else:
                raise StuckError(e)
            n -= 1
        k = id(e)  # shared_leaf, written out on the hottest path
        d = leaves.get(k)
        if d is None:
            d = leaves[k] = Derivation("StM-Stop", e, e, (), ())
        while rest:
            kind, t, start, p1, rest = rest
            if kind == _ON_BOUND:
                v1 = d.rhs
                if not is_value(v1) or not n:
                    d = Derivation("StM-Let1", t, Let(t.var, v1, t.body), d.trace, (d,))
                    continue
                n -= 1
                rest = (_ON_BODY, t, start, d, rest)
                e = subst(t.body, {t.var: v1})
                break
            if kind == _ON_BODY:
                d = Derivation("StM-Let2", t, d.rhs, since(log, start), (p1, val_leaf(leaves, p1.rhs), d))
            elif kind == _ON_APP:
                d = Derivation("StM-App", t, d.rhs, d.trace, (p1, d))
            elif kind == _ON_EFF:
                d = Derivation("StM-Eff", t, d.rhs, Span(log, start, len(log)), (d,))
            elif kind == _ON_CASEZ:
                d = Derivation("StM-CaseZ", t, d.rhs, d.trace, (d,))
            else:
                d = Derivation("StM-CaseS", t, d.rhs, d.trace, (p1, d))
        else:
            return d
