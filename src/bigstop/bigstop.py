"""Big-stop evaluation: big-step derivations that may stop early.

The judgment relates a term to the term it has become when the step
budget runs out; on a large enough budget that is the final value and the
derivation collapses to an ordinary big-step one (the "strict" form, where
every stop node's right-hand side is a value).

A derivation node records the rule, both sides of its conclusion, the
emitted trace, and its premisses, in order.  Stop nodes are St-Stop(k):
k = 0 freezes the whole term, k >= 1 is the congruence form that evaluates
the first k positions of the head constructor and leaves the rest alone.
"Val" marks a value side condition.

The evaluators log every label a run emits in one list, and a node's trace
is the span of that log its subtree emitted (traces.Span), so building and
checking a trace copies no labels.
"""

import json
import re
from dataclasses import dataclass, field

from .budget import Budget
from .smallstep import decompose, plug
from .syntax import (
    App, Case, Eff, Expr, Lam, Let, Succ, Var, Zero,
    is_value, is_mnf_value, parse_expr, print_expr, subst,
)
from .traces import (
    ANN_EMPTY, ANN_ZERO, ANNIHILATOR, AnnTrace, Trace, ann_concat, ann_concat_all, emit,
)
from .typecheck import ArrowT, TypeFailure, infer_type


class StuckError(Exception):
    """A redex with no rule was reached while budget remained."""

    def __init__(self, at: Expr):
        super().__init__(f"stuck at {print_expr(at)}")
        self.at = at


class NotMNF(Exception):
    pass


@dataclass(frozen=True)
class Derivation:
    rule: str
    lhs: Expr
    rhs: Expr
    trace: object  # Trace or Span for most dialects, AnnTrace for StA-*
    premises: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class BigStopResult:
    stopped: Expr
    trace: Trace
    derivation: Derivation


_STOP_RE = re.compile(r"^St-Stop\((\d+)\)$")


def stop_k(rule: str):
    m = _STOP_RE.match(rule)
    return int(m.group(1)) if m else None


def val_leaf(v: Expr) -> Derivation:
    return Derivation("Val", v, v, (), ())


### node builders (shared by the evaluator, compose, and the converters so
### that all three produce literally identical trees)

def mk_stop0(e: Expr) -> Derivation:
    return Derivation("St-Stop(0)", e, e, (), ())


def mk_stop1(lhs: Expr, p: Derivation) -> Derivation:
    match lhs:
        case Succ(_):
            rhs: Expr = Succ(p.rhs)
        case Case(zb, xv, sb, _):
            rhs = Case(zb, xv, sb, p.rhs)
        case App(_, arg):
            rhs = App(p.rhs, arg)
        case _:
            raise ValueError(f"St-Stop(1) does not apply to {print_expr(lhs)}")
    return Derivation("St-Stop(1)", lhs, rhs, p.trace, (p,))


def mk_stop2(lhs: Expr, p1: Derivation, p2: Derivation) -> Derivation:
    if not isinstance(lhs, App):
        raise ValueError(f"St-Stop(2) does not apply to {print_expr(lhs)}")
    return Derivation(
        "St-Stop(2)", lhs, App(p1.rhs, p2.rhs), p1.trace + p2.trace,
        (p1, val_leaf(p1.rhs), p2),
    )


def mk_casez(lhs: Expr, ps: Derivation, pb: Derivation) -> Derivation:
    return Derivation("StE-CaseZ", lhs, pb.rhs, ps.trace + pb.trace, (ps, pb))


def mk_cases(lhs: Expr, ps: Derivation, pb: Derivation) -> Derivation:
    assert isinstance(ps.rhs, Succ)
    return Derivation(
        "StE-CaseS", lhs, pb.rhs, ps.trace + pb.trace,
        (ps, val_leaf(ps.rhs.body), pb),
    )


def mk_appnode(lhs: Expr, p1: Derivation, p2: Derivation, pb: Derivation) -> Derivation:
    return Derivation(
        "StE-App", lhs, pb.rhs, p1.trace + p2.trace + pb.trace,
        (p1, p2, val_leaf(p2.rhs), pb),
    )


def mk_eff(lhs: Expr, p: Derivation, head: Trace | None = None) -> Derivation:
    """head is the emitted label's own trace; the evaluator passes the span
    it logged the label as."""
    assert isinstance(lhs, Eff)
    head = (lhs.label,) if head is None else head
    return Derivation("StE-Eff", lhs, p.rhs, head + p.trace, (p,))


### the evaluator


def bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Evaluate e for at most `budget` contractions.

    Always succeeds on well-typed closed terms: if the budget dies the
    result is wherever the term got to, as a checkable derivation whose
    conclusion matches multi_step(e, budget) exactly.
    """
    d = _stop(e, Budget(budget), [])
    return BigStopResult(d.rhs, tuple(d.trace), d)


def _stop(e: Expr, b: Budget, log: list) -> Derivation:
    if is_value(e) or b.remaining == 0:
        return mk_stop0(e)
    match e:
        case Succ(body):
            return mk_stop1(e, _stop(body, b, log))
        case Case(zb, xv, sb, sc):
            ps = _stop(sc, b, log)
            v = ps.rhs
            if not is_value(v) or b.remaining == 0:
                return mk_stop1(e, ps)
            if isinstance(v, Zero):
                b.spend()
                return mk_casez(e, ps, _stop(zb, b, log))
            if isinstance(v, Succ):
                b.spend()
                return mk_cases(e, ps, _stop(subst(sb, {xv: v.body}), b, log))
            raise StuckError(Case(zb, xv, sb, v))
        case App(fn, arg):
            p1 = _stop(fn, b, log)
            f = p1.rhs
            if not is_value(f):
                return mk_stop1(e, p1)
            p2 = _stop(arg, b, log)
            v = p2.rhs
            if not is_value(v) or b.remaining == 0:
                return mk_stop2(e, p1, p2)
            if not isinstance(f, Lam):
                raise StuckError(App(f, v))
            b.spend()
            body = subst(f.body, {f.self_var: f, f.param: v})
            return mk_appnode(e, p1, p2, _stop(body, b, log))
        case Eff(label, body):
            b.spend()
            head = emit(log, label)
            return mk_eff(e, _stop(body, b, log), head)
        case Var() | Let():
            raise StuckError(e)
    raise StuckError(e)


def is_progressing(d: Derivation) -> bool:
    """True iff some node performs work, i.e. is neither a stop nor a
    value side condition."""
    if d.rule != "Val" and stop_k(d.rule) is None:
        return True
    return any(is_progressing(p) for p in d.premises)


### checking derivations


@dataclass(frozen=True)
class RuleViolation:
    path: tuple
    reason: str

    def __str__(self):
        where = "/".join(str(i) for i in self.path) or "root"
        return f"at {where}: {self.reason}"


def check_derivation(d: Derivation, dialect: str = "plain"):
    """Re-derive every node; None if valid, else the first RuleViolation
    in preorder.  Dialects: plain, mnf, ec, annihilator."""
    try:
        checker = _CHECKERS[dialect]
    except KeyError:
        raise ValueError(f"unknown dialect {dialect!r}") from None
    return checker(d, ())


def _bad(path, reason):
    """A violation at path.  A checker's path is () at the root and
    (parent path, premiss index) below it, so descending costs one pair;
    only a violation flattens it."""
    flat = []
    while path:
        path, i = path
        flat.append(i)
    return RuleViolation(tuple(reversed(flat)), reason)


def _check_val(d, path):
    if d.premises:
        return _bad(path, "Val takes no premisses")
    if d.lhs != d.rhs or not is_value(d.lhs):
        return _bad(path, "Val must conclude v = v for a value")
    if d.trace not in ((), ANN_EMPTY):
        return _bad(path, "Val emits nothing")
    return None


def _premise_count(d, path, n):
    if len(d.premises) != n:
        return _bad(path, f"{d.rule} wants {n} premisses, got {len(d.premises)}")
    return None


def _check_plain(d: Derivation, path) -> RuleViolation | None:
    r = d.rule
    if r == "Val":
        return _check_val(d, path)
    k = stop_k(r)
    if k == 0:
        if d.premises or d.lhs != d.rhs or d.trace != ():
            return _bad(path, "St-Stop(0) freezes the term with an empty trace")
        return None
    if k == 1:
        if (v := _premise_count(d, path, 1)):
            return v
        p, = d.premises
        match d.lhs:
            case Succ(body):
                ok = p.lhs == body and d.rhs == Succ(p.rhs)
            case Case(zb, xv, sb, sc):
                ok = p.lhs == sc and d.rhs == Case(zb, xv, sb, p.rhs)
            case App(fn, arg):
                ok = p.lhs == fn and d.rhs == App(p.rhs, arg)
            case _:
                return _bad(path, "St-Stop(1) applies under s, case, or application")
        if not ok:
            return _bad(path, "St-Stop(1) conclusion does not match its premiss")
        if d.trace != p.trace:
            return _bad(path, "St-Stop(1) trace must equal the premiss trace")
        return _check_plain(p, (path, 0))
    if k == 2:
        if (v := _premise_count(d, path, 3)):
            return v
        if not isinstance(d.lhs, App):
            return _bad(path, "St-Stop(2) applies to applications only")
        p1, vl, p2 = d.premises
        if vl.rule != "Val" or vl.lhs != p1.rhs:
            return _bad(path, "St-Stop(2) needs val for the finished first position")
        if p1.lhs != d.lhs.fn or p2.lhs != d.lhs.arg:
            return _bad(path, "St-Stop(2) premisses must cover fn then arg")
        if d.rhs != App(p1.rhs, p2.rhs):
            return _bad(path, "St-Stop(2) conclusion does not match its premisses")
        if d.trace != p1.trace + p2.trace:
            return _bad(path, "St-Stop(2) trace must be the premiss traces in order")
        return _first(
            _check_plain(p1, (path, 0)),
            _check_val(vl, (path, 1)),
            _check_plain(p2, (path, 2)),
        )
    if k is not None:
        return _bad(path, f"no constructor has {k} evaluation positions")
    if r == "StE-CaseZ":
        if (v := _premise_count(d, path, 2)):
            return v
        if not isinstance(d.lhs, Case):
            return _bad(path, "StE-CaseZ applies to case")
        ps, pb = d.premises
        if ps.lhs != d.lhs.scrutinee or not isinstance(ps.rhs, Zero):
            return _bad(path, "scrutinee premiss must conclude z")
        if pb.lhs != d.lhs.zero_branch:
            return _bad(path, "branch premiss must start at the zero branch")
        if d.rhs != pb.rhs or d.trace != ps.trace + pb.trace:
            return _bad(path, "StE-CaseZ conclusion does not match its premisses")
        return _first(_check_plain(ps, (path, 0)), _check_plain(pb, (path, 1)))
    if r == "StE-CaseS":
        if (v := _premise_count(d, path, 3)):
            return v
        if not isinstance(d.lhs, Case):
            return _bad(path, "StE-CaseS applies to case")
        ps, vl, pb = d.premises
        if vl.rule != "Val" or not is_value(vl.lhs):
            return _bad(path, "StE-CaseS needs val for the predecessor")
        if ps.lhs != d.lhs.scrutinee or ps.rhs != Succ(vl.lhs):
            return _bad(path, "scrutinee premiss must conclude s of the val premiss")
        want = subst(d.lhs.succ_branch, {d.lhs.succ_var: vl.lhs})
        if pb.lhs != want:
            return _bad(path, "branch premiss must start at the substituted branch")
        if d.rhs != pb.rhs or d.trace != ps.trace + pb.trace:
            return _bad(path, "StE-CaseS conclusion does not match its premisses")
        return _first(
            _check_plain(ps, (path, 0)),
            _check_val(vl, (path, 1)),
            _check_plain(pb, (path, 2)),
        )
    if r == "StE-App":
        if (v := _premise_count(d, path, 4)):
            return v
        if not isinstance(d.lhs, App):
            return _bad(path, "StE-App applies to applications")
        p1, p2, vl, pb = d.premises
        if p1.lhs != d.lhs.fn or p2.lhs != d.lhs.arg:
            return _bad(path, "StE-App premisses must cover fn then arg")
        if not isinstance(p1.rhs, Lam):
            return _bad(path, "function position must have become a function")
        if vl.rule != "Val" or vl.lhs != p2.rhs:
            return _bad(path, "StE-App needs val for the argument value")
        lam = p1.rhs
        want = subst(lam.body, {lam.self_var: lam, lam.param: p2.rhs})
        if pb.lhs != want:
            return _bad(path, "body premiss must start at the substituted body")
        if d.rhs != pb.rhs or d.trace != p1.trace + p2.trace + pb.trace:
            return _bad(path, "StE-App conclusion does not match its premisses")
        return _first(
            _check_plain(p1, (path, 0)),
            _check_plain(p2, (path, 1)),
            _check_val(vl, (path, 2)),
            _check_plain(pb, (path, 3)),
        )
    if r == "StE-Eff":
        if (v := _premise_count(d, path, 1)):
            return v
        if not isinstance(d.lhs, Eff):
            return _bad(path, "StE-Eff applies to eff")
        p, = d.premises
        if p.lhs != d.lhs.body or d.rhs != p.rhs:
            return _bad(path, "StE-Eff premiss must continue with the body")
        if d.trace != (d.lhs.label,) + p.trace:
            return _bad(path, "StE-Eff must emit its label first")
        return _check_plain(p, (path, 0))
    return _bad(path, f"unknown rule {r!r} for the plain dialect")


def _first(*violations):
    for v in violations:
        if v is not None:
            return v
    return None


def _check_mnf(d: Derivation, path) -> RuleViolation | None:
    r = d.rule
    if r == "Val":
        return _check_val(d, path)
    if r == "StM-Stop":
        if d.premises or d.lhs != d.rhs or d.trace != ():
            return _bad(path, "StM-Stop freezes the term with an empty trace")
        return None
    if r == "StM-Let1":
        if (v := _premise_count(d, path, 1)):
            return v
        if not isinstance(d.lhs, Let):
            return _bad(path, "StM-Let1 applies to let")
        p, = d.premises
        if p.lhs != d.lhs.bound or d.rhs != Let(d.lhs.var, p.rhs, d.lhs.body):
            return _bad(path, "StM-Let1 evaluates the bound term in place")
        if d.trace != p.trace:
            return _bad(path, "StM-Let1 trace must equal the premiss trace")
        return _check_mnf(p, (path, 0))
    if r == "StM-Let2":
        if (v := _premise_count(d, path, 3)):
            return v
        if not isinstance(d.lhs, Let):
            return _bad(path, "StM-Let2 applies to let")
        p1, vl, pb = d.premises
        if vl.rule != "Val" or vl.lhs != p1.rhs:
            return _bad(path, "StM-Let2 needs val for the bound value")
        if p1.lhs != d.lhs.bound:
            return _bad(path, "StM-Let2 first premiss evaluates the bound term")
        if pb.lhs != subst(d.lhs.body, {d.lhs.var: p1.rhs}):
            return _bad(path, "StM-Let2 body premiss must start at the substituted body")
        if d.rhs != pb.rhs or d.trace != p1.trace + pb.trace:
            return _bad(path, "StM-Let2 conclusion does not match its premisses")
        return _first(
            _check_mnf(p1, (path, 0)),
            _check_val(vl, (path, 1)),
            _check_mnf(pb, (path, 2)),
        )
    if r == "StM-CaseZ":
        if (v := _premise_count(d, path, 1)):
            return v
        if not (isinstance(d.lhs, Case) and isinstance(d.lhs.scrutinee, Zero)):
            return _bad(path, "StM-CaseZ applies to case over z")
        pb, = d.premises
        if pb.lhs != d.lhs.zero_branch or d.rhs != pb.rhs or d.trace != pb.trace:
            return _bad(path, "StM-CaseZ continues with the zero branch")
        return _check_mnf(pb, (path, 0))
    if r == "StM-CaseS":
        if (v := _premise_count(d, path, 2)):
            return v
        lhs = d.lhs
        if not (isinstance(lhs, Case) and isinstance(lhs.scrutinee, Succ)):
            return _bad(path, "StM-CaseS applies to case over a successor")
        vl, pb = d.premises
        w = lhs.scrutinee.body
        if vl.rule != "Val" or vl.lhs != w or not is_value(w):
            return _bad(path, "StM-CaseS needs val for the predecessor")
        if pb.lhs != subst(lhs.succ_branch, {lhs.succ_var: w}):
            return _bad(path, "StM-CaseS branch premiss must be substituted")
        if d.rhs != pb.rhs or d.trace != pb.trace:
            return _bad(path, "StM-CaseS conclusion does not match its premiss")
        return _first(_check_val(vl, (path, 0)), _check_mnf(pb, (path, 1)))
    if r == "StM-App":
        if (v := _premise_count(d, path, 2)):
            return v
        lhs = d.lhs
        if not (isinstance(lhs, App) and isinstance(lhs.fn, Lam)):
            return _bad(path, "StM-App applies to a function applied to a value")
        vl, pb = d.premises
        if vl.rule != "Val" or vl.lhs != lhs.arg or not is_value(lhs.arg):
            return _bad(path, "StM-App needs val for the argument")
        lam = lhs.fn
        if pb.lhs != subst(lam.body, {lam.self_var: lam, lam.param: lhs.arg}):
            return _bad(path, "StM-App body premiss must be substituted")
        if d.rhs != pb.rhs or d.trace != pb.trace:
            return _bad(path, "StM-App conclusion does not match its premiss")
        return _first(_check_val(vl, (path, 0)), _check_mnf(pb, (path, 1)))
    if r == "StM-Eff":
        if (v := _premise_count(d, path, 1)):
            return v
        if not isinstance(d.lhs, Eff):
            return _bad(path, "StM-Eff applies to eff")
        p, = d.premises
        if p.lhs != d.lhs.body or d.rhs != p.rhs or d.trace != (d.lhs.label,) + p.trace:
            return _bad(path, "StM-Eff must emit its label then continue")
        return _check_mnf(p, (path, 0))
    return _bad(path, f"unknown rule {r!r} for the mnf dialect")


def _spine_contexts(e: Expr):
    """Every (context, subterm) split of e along the evaluation spine."""
    from .smallstep import AppArgC, AppFnC, CaseC, Hole, SuccC

    out = [(Hole(), e)]
    match e:
        case Succ(b):
            out += [(SuccC(c), s) for c, s in _spine_contexts(b)]
        case Case(zb, xv, sb, sc):
            out += [(CaseC(zb, xv, sb, c), s) for c, s in _spine_contexts(sc)]
        case App(f, a):
            out += [(AppFnC(c, a), s) for c, s in _spine_contexts(f)]
            if is_value(f):
                out += [(AppArgC(f, c), s) for c, s in _spine_contexts(a)]
    return out


def _check_ec(d: Derivation, path) -> RuleViolation | None:
    r = d.rule
    if r == "Val":
        return _check_val(d, path)
    if r == "EC-Stop":
        if d.premises or d.lhs != d.rhs or d.trace != ():
            return _bad(path, "EC-Stop freezes the term with an empty trace")
        return None
    if r == "EC-Val":
        if d.premises or d.lhs != d.rhs or d.trace != () or not is_value(d.lhs):
            return _bad(path, "EC-Val concludes v = v for a value")
        return None
    if r == "EC-CaseZ":
        if (v := _premise_count(d, path, 1)):
            return v
        lhs = d.lhs
        if not (isinstance(lhs, Case) and isinstance(lhs.scrutinee, Zero)):
            return _bad(path, "EC-CaseZ applies to case over z")
        pb, = d.premises
        if pb.lhs != lhs.zero_branch or d.rhs != pb.rhs or d.trace != pb.trace:
            return _bad(path, "EC-CaseZ continues with the zero branch")
        return _check_ec(pb, (path, 0))
    if r == "EC-CaseS":
        if (v := _premise_count(d, path, 2)):
            return v
        lhs = d.lhs
        if not (isinstance(lhs, Case) and isinstance(lhs.scrutinee, Succ)):
            return _bad(path, "EC-CaseS applies to case over a successor")
        vl, pb = d.premises
        w = lhs.scrutinee.body
        if vl.rule != "Val" or vl.lhs != w or not is_value(w):
            return _bad(path, "EC-CaseS needs val for the predecessor")
        if pb.lhs != subst(lhs.succ_branch, {lhs.succ_var: w}):
            return _bad(path, "EC-CaseS branch premiss must be substituted")
        if d.rhs != pb.rhs or d.trace != pb.trace:
            return _bad(path, "EC-CaseS conclusion does not match its premiss")
        return _first(_check_val(vl, (path, 0)), _check_ec(pb, (path, 1)))
    if r == "EC-App":
        if (v := _premise_count(d, path, 2)):
            return v
        lhs = d.lhs
        if not (isinstance(lhs, App) and isinstance(lhs.fn, Lam) and is_value(lhs.arg)):
            return _bad(path, "EC-App applies to a function applied to a value")
        vl, pb = d.premises
        if vl.rule != "Val" or vl.lhs != lhs.arg:
            return _bad(path, "EC-App needs val for the argument")
        lam = lhs.fn
        if pb.lhs != subst(lam.body, {lam.self_var: lam, lam.param: lhs.arg}):
            return _bad(path, "EC-App body premiss must be substituted")
        if d.rhs != pb.rhs or d.trace != pb.trace:
            return _bad(path, "EC-App conclusion does not match its premiss")
        return _first(_check_val(vl, (path, 0)), _check_ec(pb, (path, 1)))
    if r == "EC-Eff":
        if (v := _premise_count(d, path, 1)):
            return v
        if not isinstance(d.lhs, Eff):
            return _bad(path, "EC-Eff applies to eff")
        p, = d.premises
        if p.lhs != d.lhs.body or d.rhs != p.rhs or d.trace != (d.lhs.label,) + p.trace:
            return _bad(path, "EC-Eff must emit its label then continue")
        return _check_ec(p, (path, 0))
    if r == "EC-Seq":
        if (v := _premise_count(d, path, 2)):
            return v
        p1, p2 = d.premises
        found = any(
            sub == p1.lhs and plug(ctx, p1.rhs) == p2.lhs
            for ctx, sub in _spine_contexts(d.lhs)
        )
        if not found:
            return _bad(path, "EC-Seq premisses do not fit any evaluation context")
        if d.rhs != p2.rhs or d.trace != p1.trace + p2.trace:
            return _bad(path, "EC-Seq conclusion does not match its premisses")
        return _first(_check_ec(p1, (path, 0)), _check_ec(p2, (path, 1)))
    return _bad(path, f"unknown rule {r!r} for the ec dialect")


def _ann_trace(d):
    return d.trace if isinstance(d.trace, AnnTrace) else AnnTrace(d.trace, False)


def _check_ann(d: Derivation, path) -> RuleViolation | None:
    r = d.rule
    if r == "Val":
        return _check_val(d, path)
    t = d.trace
    if not isinstance(t, AnnTrace):
        return _bad(path, "annihilator nodes carry cut-off traces")
    if r == "StA-Val":
        if d.premises or d.lhs != d.rhs or not is_value(d.lhs) or t != ANN_EMPTY:
            return _bad(path, "StA-Val concludes v = v with the empty trace")
        return None
    if r == "StA-Stop":
        if (v := _premise_count(d, path, 1)):
            return v
        vl, = d.premises
        if vl.rule != "Val" or vl.lhs != d.rhs:
            return _bad(path, "StA-Stop needs val for its (arbitrary) result value")
        if t != ANN_ZERO:
            return _bad(path, "StA-Stop emits exactly the cut-off marker")
        return _check_val(vl, (path, 0))
    if r == "StA-Succ":
        if (v := _premise_count(d, path, 1)):
            return v
        if not isinstance(d.lhs, Succ):
            return _bad(path, "StA-Succ applies under s")
        p, = d.premises
        if p.lhs != d.lhs.body or d.rhs != Succ(p.rhs) or not is_value(p.rhs):
            return _bad(path, "StA-Succ wraps its premiss value")
        if t != _ann_trace(p):
            return _bad(path, "StA-Succ trace must equal the premiss trace")
        return _check_ann(p, (path, 0))
    if r == "StA-CaseZ":
        if (v := _premise_count(d, path, 2)):
            return v
        if not isinstance(d.lhs, Case):
            return _bad(path, "StA-CaseZ applies to case")
        ps, pb = d.premises
        if ps.lhs != d.lhs.scrutinee or not isinstance(ps.rhs, Zero):
            return _bad(path, "scrutinee premiss must conclude z")
        if pb.lhs != d.lhs.zero_branch or d.rhs != pb.rhs:
            return _bad(path, "StA-CaseZ continues with the zero branch")
        if t != ann_concat(_ann_trace(ps), _ann_trace(pb)):
            return _bad(path, "StA-CaseZ trace must absorb after a cut")
        return _first(_check_ann(ps, (path, 0)), _check_ann(pb, (path, 1)))
    if r == "StA-CaseS":
        if (v := _premise_count(d, path, 3)):
            return v
        if not isinstance(d.lhs, Case):
            return _bad(path, "StA-CaseS applies to case")
        ps, vl, pb = d.premises
        if vl.rule != "Val" or ps.rhs != Succ(vl.lhs) or not is_value(vl.lhs):
            return _bad(path, "StA-CaseS needs val for the predecessor")
        if ps.lhs != d.lhs.scrutinee:
            return _bad(path, "scrutinee premiss must start at the scrutinee")
        if pb.lhs != subst(d.lhs.succ_branch, {d.lhs.succ_var: vl.lhs}) or d.rhs != pb.rhs:
            return _bad(path, "StA-CaseS branch premiss must be substituted")
        if t != ann_concat(_ann_trace(ps), _ann_trace(pb)):
            return _bad(path, "StA-CaseS trace must absorb after a cut")
        return _first(
            _check_ann(ps, (path, 0)),
            _check_val(vl, (path, 1)),
            _check_ann(pb, (path, 2)),
        )
    if r == "StA-App":
        if (v := _premise_count(d, path, 4)):
            return v
        if not isinstance(d.lhs, App):
            return _bad(path, "StA-App applies to applications")
        p1, p2, vl, pb = d.premises
        if p1.lhs != d.lhs.fn or p2.lhs != d.lhs.arg:
            return _bad(path, "StA-App premisses must cover fn then arg")
        if not isinstance(p1.rhs, Lam):
            return _bad(path, "function position must have become a function")
        if vl.rule != "Val" or vl.lhs != p2.rhs:
            return _bad(path, "StA-App needs val for the argument value")
        lam = p1.rhs
        if pb.lhs != subst(lam.body, {lam.self_var: lam, lam.param: p2.rhs}):
            return _bad(path, "StA-App body premiss must be substituted")
        if d.rhs != pb.rhs:
            return _bad(path, "StA-App concludes with the body result")
        if t != ann_concat_all(_ann_trace(p1), _ann_trace(p2), _ann_trace(pb)):
            return _bad(path, "StA-App trace must absorb after a cut")
        return _first(
            _check_ann(p1, (path, 0)),
            _check_ann(p2, (path, 1)),
            _check_val(vl, (path, 2)),
            _check_ann(pb, (path, 3)),
        )
    if r == "StA-Eff":
        if (v := _premise_count(d, path, 1)):
            return v
        if not isinstance(d.lhs, Eff):
            return _bad(path, "StA-Eff applies to eff")
        p, = d.premises
        if p.lhs != d.lhs.body or d.rhs != p.rhs:
            return _bad(path, "StA-Eff continues with the body")
        if t != ann_concat(AnnTrace((d.lhs.label,), False), _ann_trace(p)):
            return _bad(path, "StA-Eff must emit its label first")
        return _check_ann(p, (path, 0))
    return _bad(path, f"unknown rule {r!r} for the annihilator dialect")


_CHECKERS = {
    "plain": _check_plain,
    "mnf": _check_mnf,
    "ec": _check_ec,
    "annihilator": _check_ann,
}


### strictness and the big-step correspondence


class NotStrict(Exception):
    """The derivation has a stop node whose right-hand side is not a value."""

    def __init__(self, path):
        super().__init__(f"non-strict stop node at {'/'.join(map(str, path)) or 'root'}")
        self.path = path


def is_strict(d: Derivation) -> bool:
    """True when every stop node in the tree stopped at a value.

    Strict derivations are exactly the ones that survive the round trip
    through big-step form: on checker-valid trees a stop node with a value
    right-hand side can only be St-Stop(0) or a Succ congruence.
    """
    if stop_k(d.rule) is not None and not is_value(d.rhs):
        return False
    return all(is_strict(p) for p in d.premises)


_TO_BIGSTEP = {
    "StE-CaseZ": "BE-CaseZ",
    "StE-CaseS": "BE-CaseS",
    "StE-App": "BE-App",
    "StE-Eff": "BE-Eff",
}

_FROM_BIGSTEP = {v: k for k, v in _TO_BIGSTEP.items()}


def strict_to_bigstep(d: Derivation, _path=()) -> Derivation:
    """Rewrite a strict derivation into big-step form (BE-* rules).

    Raises NotStrict at the first stop node that did not reach a value.
    """
    k = stop_k(d.rule)
    if k is not None:
        if not is_value(d.rhs):
            raise NotStrict(_path)
        if k == 0:
            return Derivation("BE-Val", d.lhs, d.rhs, d.trace, ())
        if k == 1 and isinstance(d.lhs, Succ):
            p = strict_to_bigstep(d.premises[0], _path + (0,))
            return Derivation("BE-Succ", d.lhs, d.rhs, d.trace, (p,))
        raise NotStrict(_path)
    if d.rule == "Val":
        return d
    try:
        rule = _TO_BIGSTEP[d.rule]
    except KeyError:
        raise NotStrict(_path) from None
    prems = tuple(
        strict_to_bigstep(p, _path + (i,)) for i, p in enumerate(d.premises)
    )
    return Derivation(rule, d.lhs, d.rhs, d.trace, prems)


def bigstep_to_strict(d: Derivation) -> Derivation:
    """Inverse of strict_to_bigstep."""
    if d.rule == "BE-Val":
        return mk_stop0(d.lhs)
    if d.rule == "Val":
        return d
    if d.rule == "BE-Succ":
        return mk_stop1(d.lhs, bigstep_to_strict(d.premises[0]))
    rule = _FROM_BIGSTEP.get(d.rule)
    if rule is None:
        raise ValueError(f"not a big-step rule: {d.rule!r}")
    prems = tuple(bigstep_to_strict(p) for p in d.premises)
    return Derivation(rule, d.lhs, d.rhs, d.trace, prems)


def check_bigstep(d: Derivation):
    """Validity of a BE-* derivation, via the strict correspondence."""
    return check_derivation(bigstep_to_strict(d), "plain")


### composing derivations (constructive transitivity)


class ComposeMismatch(Exception):
    pass


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    """Given e1 stops at e2 and e2 stops at e3, build e1 stops at e3.

    On evaluator output this reproduces bigstop_eval(e, m+n) exactly.
    """
    if d1.rhs != d2.lhs:
        raise ComposeMismatch(
            f"cannot compose: {print_expr(d1.rhs)} vs {print_expr(d2.lhs)}"
        )
    if stop_k(d1.rule) == 0 or d1.rule == "Val":
        return d2
    if stop_k(d2.rule) == 0 or d2.rule == "Val":
        return d1
    match d1.rule:
        case "StE-Eff":
            return mk_eff(d1.lhs, compose(d1.premises[0], d2))
        case "StE-CaseZ":
            ps, pb = d1.premises
            return mk_casez(d1.lhs, ps, compose(pb, d2))
        case "StE-CaseS":
            ps, _, pb = d1.premises
            return mk_cases(d1.lhs, ps, compose(pb, d2))
        case "StE-App":
            p1, p2, _, pb = d1.premises
            return mk_appnode(d1.lhs, p1, p2, compose(pb, d2))
    k1 = stop_k(d1.rule)
    if k1 is None:
        raise ComposeMismatch(f"cannot compose out of rule {d1.rule!r}")

    # d1 is a congruence stop; merge with whatever d2 does next
    k2 = stop_k(d2.rule)
    if k1 == 1 and k2 == 1:
        return mk_stop1(d1.lhs, compose(d1.premises[0], d2.premises[0]))
    if k1 == 1 and k2 == 2:
        q1, _, q2 = d2.premises
        return mk_stop2(d1.lhs, compose(d1.premises[0], q1), q2)
    if k1 == 2 and k2 == 1:
        p1, _, p2 = d1.premises
        return mk_stop2(d1.lhs, compose(p1, d2.premises[0]), p2)
    if k1 == 2 and k2 == 2:
        p1, _, p2 = d1.premises
        q1, _, q2 = d2.premises
        return mk_stop2(d1.lhs, compose(p1, q1), compose(p2, q2))
    if k2 is not None:
        raise ComposeMismatch(f"stop shapes {d1.rule} then {d2.rule} do not fit")

    match d2.rule, d1.lhs:
        case "StE-CaseZ", Case():
            qs, qb = d2.premises
            return mk_casez(d1.lhs, compose(d1.premises[0], qs), qb)
        case "StE-CaseS", Case():
            qs, _, qb = d2.premises
            return mk_cases(d1.lhs, compose(d1.premises[0], qs), qb)
        case "StE-App", App():
            q1, q2, _, qb = d2.premises
            if k1 == 1:
                return mk_appnode(d1.lhs, compose(d1.premises[0], q1), q2, qb)
            p1, _, p2 = d1.premises
            return mk_appnode(d1.lhs, compose(p1, q1), compose(p2, q2), qb)
    raise ComposeMismatch(f"cannot compose {d1.rule} with {d2.rule}")


### the annihilator dialect


_IDENTITY = Lam("_", "x", Var("x"))


def _placeholder(demand: str) -> Expr:
    return _IDENTITY if demand == "fn" else Zero()


def annihilator_derivation(e: Expr, budget: int, demand: str | None = None) -> Derivation:
    """Build the StA-* derivation for e at the given budget.

    When the budget dies mid-run the lazy stop rule closes every pending
    position with a placeholder value and the trace ends in the cut-off
    marker, absorbing everything that would have followed.
    """
    if demand is None:
        try:
            demand = "fn" if isinstance(infer_type(e), ArrowT) else "nat"
        except TypeFailure:
            demand = "nat"
    return _ann(e, Budget(budget), demand, [])


def annihilator_eval(e: Expr, budget: int):
    """(value, cut-off trace) for e under the annihilator semantics."""
    d = annihilator_derivation(e, budget)
    return d.rhs, AnnTrace(tuple(d.trace.prefix), d.trace.annihilated)


def _ann(e: Expr, b: Budget, demand: str, log: list) -> Derivation:
    if is_value(e):
        return Derivation("StA-Val", e, e, ANN_EMPTY, ())
    if b.remaining == 0:
        v = _placeholder(demand)
        return Derivation("StA-Stop", e, v, ANN_ZERO, (val_leaf(v),))
    match e:
        case Succ(body):
            p = _ann(body, b, "nat", log)
            return Derivation("StA-Succ", e, Succ(p.rhs), p.trace, (p,))
        case Case(zb, xv, sb, sc):
            ps = _ann(sc, b, "nat", log)
            v = ps.rhs
            if isinstance(v, Zero):
                if b.remaining:
                    b.spend()
                pb = _ann(zb, b, demand, log)
                return Derivation(
                    "StA-CaseZ", e, pb.rhs, ann_concat(ps.trace, pb.trace), (ps, pb)
                )
            if isinstance(v, Succ):
                if b.remaining:
                    b.spend()
                pb = _ann(subst(sb, {xv: v.body}), b, demand, log)
                return Derivation(
                    "StA-CaseS", e, pb.rhs, ann_concat(ps.trace, pb.trace),
                    (ps, val_leaf(v.body), pb),
                )
            raise StuckError(Case(zb, xv, sb, v))
        case App(fn, arg):
            p1 = _ann(fn, b, "fn", log)
            p2 = _ann(arg, b, "nat", log)
            f = p1.rhs
            if not isinstance(f, Lam):
                raise StuckError(App(f, p2.rhs))
            if b.remaining:
                b.spend()
            pb = _ann(subst(f.body, {f.self_var: f, f.param: p2.rhs}), b, demand, log)
            return Derivation(
                "StA-App", e, pb.rhs,
                ann_concat_all(p1.trace, p2.trace, pb.trace),
                (p1, p2, val_leaf(p2.rhs), pb),
            )
        case Eff(l, body):
            b.spend()
            head = AnnTrace(emit(log, l), False)
            p = _ann(body, b, demand, log)
            return Derivation("StA-Eff", e, p.rhs, ann_concat(head, p.trace), (p,))
        case Var() | Let():
            raise StuckError(e)
    raise StuckError(e)


### the evaluation-context dialect


def ec_bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Budgeted evaluation presented as context-decomposition chains:
    each contraction is one EC-Seq link whose left premiss is the redex
    rule and whose right premiss continues with the plugged-back term."""
    d = _ec(e, Budget(budget), [])
    return BigStopResult(d.rhs, tuple(d.trace), d)


def _ec(e: Expr, b: Budget, log: list) -> Derivation:
    if b.remaining == 0:
        return Derivation("EC-Stop", e, e, (), ())
    if is_value(e):
        return Derivation("EC-Val", e, e, (), ())
    ctx, r = decompose(e)
    step = _ec_redex(r, b, log)
    rest = _ec(plug(ctx, step.rhs), b, log)
    return Derivation("EC-Seq", e, rest.rhs, step.trace + rest.trace, (step, rest))


def _ec_redex(r: Expr, b: Budget, log: list) -> Derivation:
    def halt(x: Expr) -> Derivation:
        return Derivation("EC-Stop", x, x, (), ())

    match r:
        case Case(zb, _, _, Zero()):
            b.spend()
            return Derivation("EC-CaseZ", r, zb, (), (halt(zb),))
        case Case(_, xv, sb, Succ(v)) if is_value(v):
            b.spend()
            out = subst(sb, {xv: v})
            return Derivation("EC-CaseS", r, out, (), (val_leaf(v), halt(out)))
        case App(Lam(f, x, body) as lam, v) if is_value(v):
            b.spend()
            out = subst(body, {f: lam, x: v})
            return Derivation("EC-App", r, out, (), (val_leaf(v), halt(out)))
        case Eff(l, body):
            b.spend()
            return Derivation("EC-Eff", r, body, emit(log, l), (halt(body),))
    raise StuckError(r)


### JSON round-trip


def derivation_to_json(d: Derivation) -> dict:
    if isinstance(d.trace, AnnTrace):
        labels = list(d.trace.prefix) + ([ANNIHILATOR] if d.trace.annihilated else [])
    else:
        labels = list(d.trace)
    return {
        "rule": d.rule,
        "from": print_expr(d.lhs),
        "to": print_expr(d.rhs),
        "trace": labels,
        "premises": [derivation_to_json(p) for p in d.premises],
    }


def derivation_from_json(obj) -> Derivation:
    if isinstance(obj, str):
        obj = json.loads(obj)
    labels = obj["trace"]
    if obj["rule"].startswith("StA-"):
        if labels and labels[-1] == ANNIHILATOR:
            trace: object = AnnTrace(tuple(labels[:-1]), True)
        else:
            trace = AnnTrace(tuple(labels), False)
    else:
        trace = tuple(labels)
    return Derivation(
        obj["rule"],
        parse_expr(obj["from"]),
        parse_expr(obj["to"]),
        trace,
        tuple(derivation_from_json(p) for p in obj["premises"]),
    )


def derivation_to_json_str(d: Derivation) -> str:
    return json.dumps(derivation_to_json(d))
