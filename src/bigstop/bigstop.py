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
import operator
import re
from collections.abc import Callable
from itertools import accumulate

from .budget import Budget
from .record import record
from .smallstep import decompose, plug
from .syntax import (
    App, Case, Eff, Expr, Lam, Let, ParseError, Succ, Var, Zero,
    is_value, parse_expr, print_expr, subst,
)
from .traces import (
    ANN_EMPTY, ANN_ZERO, AnnTrace, Span, Trace, ann_concat, ann_concat_all, emit,
)
from .typecheck import ArrowT, TypeFailure, infer_type


class StuckError(Exception):
    """A redex with no rule was reached while budget remained."""

    def __init__(self, at: Expr):
        super().__init__(f"stuck at {print_expr(at)}")
        self.at = at


class NotMNF(Exception):
    pass


@record
class Derivation:
    rule: str
    lhs: Expr
    rhs: Expr
    trace: object  # Trace or Span for most dialects, AnnTrace for StA-*
    premises: tuple = ()


@record
class BigStopResult:
    stopped: Expr
    trace: Trace
    derivation: Derivation


_STOP_K = {"St-Stop(0)": 0, "St-Stop(1)": 1, "St-Stop(2)": 2}


def stop_k(rule: str):
    """k for a stop rule St-Stop(k), else None."""
    return _STOP_K.get(rule)


def val_leaf(v: Expr) -> Derivation:
    return Derivation("Val", v, v, (), ())


### node builders (shared by the evaluator, compose, and the converters so
### that all three produce literally identical trees)

def mk_stop0(e: Expr) -> Derivation:
    return Derivation("St-Stop(0)", e, e, (), ())


def mk_stop1(lhs: Expr, p: Derivation) -> Derivation:
    c = type(lhs)
    if c is App:
        rhs: Expr = App(p.rhs, lhs.arg)
    elif c is Succ:
        rhs = Succ(p.rhs)
    elif c is Case:
        rhs = Case(lhs.zero_branch, lhs.succ_var, lhs.succ_branch, p.rhs)
    else:
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
    c = type(e)
    if c is App:
        p1 = _stop(e.fn, b, log)
        f = p1.rhs
        if not is_value(f):
            return mk_stop1(e, p1)
        p2 = _stop(e.arg, b, log)
        v = p2.rhs
        if not is_value(v) or b.remaining == 0:
            return mk_stop2(e, p1, p2)
        if type(f) is not Lam:
            raise StuckError(App(f, v))
        b.spend()
        body = subst(f.body, {f.self_var: f, f.param: v})
        return mk_appnode(e, p1, p2, _stop(body, b, log))
    if c is Succ:
        return mk_stop1(e, _stop(e.body, b, log))
    if c is Eff:
        b.spend()
        head = emit(log, e.label)
        return mk_eff(e, _stop(e.body, b, log), head)
    if c is Case:
        ps = _stop(e.scrutinee, b, log)
        v = ps.rhs
        if not is_value(v) or b.remaining == 0:
            return mk_stop1(e, ps)
        if type(v) is Zero:
            b.spend()
            return mk_casez(e, ps, _stop(e.zero_branch, b, log))
        if type(v) is Succ:
            b.spend()
            return mk_cases(e, ps, _stop(subst(e.succ_branch, {e.succ_var: v.body}), b, log))
        raise StuckError(Case(e.zero_branch, e.succ_var, e.succ_branch, v))
    raise StuckError(e)  # a variable or a let has no rule


def _nodes(d: Derivation):
    """Every node of d, with an explicit stack, so any depth walks."""
    todo = [d]
    while todo:
        d = todo.pop()
        yield d
        todo += d.premises


_IDLE = frozenset({
    "Val", *_STOP_K, "EC-Stop", "EC-Val", "EC-Seq", "StM-Stop", "StM-Let1", "StA-Stop", "StA-Val", "StA-Succ",
})


def is_progressing(d: Derivation) -> bool:
    """True iff some node performs work: one that is neither the Val side
    condition nor a stop, value or congruence rule of its dialect."""
    return any(n.rule not in _IDLE for n in _nodes(d))


### checking derivations
#
# Each dialect is a table from rule names to Rule entries, and one walker
# checks every node against its entry.  A rule is written once: the
# structural rules that the plain and annihilator dialects share have one
# entry each, so do the redex rules of the MNF and evaluation-context
# dialects.  The table uses subst but none of the evaluator's
# node builders, so the checker stays independent of the evaluator.


@record
class RuleViolation:
    path: tuple
    reason: str

    def __str__(self):
        where = "/".join(str(i) for i in self.path) or "root"
        return f"at {where}: {self.reason}"


@record
class Premiss:
    """One premiss of a rule: a Val side condition, or a run in the rule's
    own dialect.  at(lhs, premises) is the term it must start at (for a
    Val, the value it asserts), from the conclusion's lhs and the premisses
    before it; None leaves it to a side condition.  A run's result must
    pass `ends`, when given."""

    val: bool
    at: Callable | None
    ends: Callable | None = None


@record
class Rule:
    """One inference rule: the lhs terms it applies to (None: any), its
    premisses in order, and the conclusion's rhs as rhs(lhs, premises)
    (None: where the last premiss ends, or the lhs if there is none).  Its
    trace is the lhs's label if `emits`, then the traces of its run
    premisses in order, then the cut-off marker if `cut`.  `side` is a
    condition on the whole node that the premisses cannot state (EC-Seq's
    context)."""

    applies: Callable | None = None
    premises: tuple = ()
    rhs: Callable | None = None
    emits: bool = False
    cut: bool = False
    side: Callable | None = None


def _run(at, ends=None) -> Premiss:
    return Premiss(False, at, ends)


def _val(at) -> Premiss:
    return Premiss(True, at)


def _kind(cls):
    return lambda e: isinstance(e, cls)


def _part(name: str):
    return lambda lhs, ps: getattr(lhs, name)


def _beta(lam: Lam, v: Expr) -> Expr:
    return subst(lam.body, {lam.self_var: lam, lam.param: v})


def _branch(case: Case, pred: Expr) -> Expr:
    return subst(case.succ_branch, {case.succ_var: pred})


def _fits_context(d: Derivation) -> bool:
    """EC-Seq: the first premiss runs a subterm on the evaluation spine of
    the lhs, and the second continues from the term with its result
    plugged back.  Both terms are walked down the spine together and agree
    off it; the hole is where they hold that premiss's start and result."""
    p1, p2 = d.premises
    todo = [(d.lhs, p2.lhs)]
    while todo:
        e, t = todo.pop()
        if e == p1.lhs and t == p1.rhs:
            return True
        c = type(e)
        if type(t) is not c:
            continue
        if c is App:
            if e.arg == t.arg:
                todo.append((e.fn, t.fn))
            if e.fn == t.fn and is_value(e.fn):
                todo.append((e.arg, t.arg))
        elif c is Succ:
            todo.append((e.body, t.body))
        elif c is Case:
            if (e.zero_branch, e.succ_var, e.succ_branch) == (t.zero_branch, t.succ_var, t.succ_branch):
                todo.append((e.scrutinee, t.scrutinee))
    return False


_VAL = Rule(is_value)            # the side condition "v is a value"
_FREEZE = Rule()                 # St-Stop(0), StM-Stop, EC-Stop
_VALUE = Rule(is_value)          # EC-Val, StA-Val

# St-Stop(1) runs the first evaluation position of s, case or application:
# how to read that position, and how to rebuild the term with it replaced
_POSITION1 = {
    Succ: (lambda e: e.body, lambda e, v: Succ(v)),
    Case: (lambda e: e.scrutinee, lambda e, v: Case(e.zero_branch, e.succ_var, e.succ_branch, v)),
    App: (lambda e: e.fn, lambda e, v: App(v, e.arg)),
}
_STOP1 = Rule(
    lambda e: type(e) in _POSITION1,
    (_run(lambda lhs, ps: _POSITION1[type(lhs)][0](lhs)),),
    rhs=lambda lhs, ps: _POSITION1[type(lhs)][1](lhs, ps[0].rhs),
)
_STOP2 = Rule(
    _kind(App),
    (_run(_part("fn")), _val(lambda lhs, ps: ps[0].rhs), _run(_part("arg"))),
    rhs=lambda lhs, ps: App(ps[0].rhs, ps[2].rhs),
)

# the structural rules of the plain (StE) and annihilator (StA) dialects
_CASEZ = Rule(
    _kind(Case),
    (_run(_part("scrutinee"), ends=_kind(Zero)), _run(_part("zero_branch"))),
)
_CASES = Rule(
    _kind(Case),
    (
        _run(_part("scrutinee"), ends=lambda v: isinstance(v, Succ) and is_value(v)),
        _val(lambda lhs, ps: ps[0].rhs.body),
        _run(lambda lhs, ps: _branch(lhs, ps[0].rhs.body)),
    ),
)
_APP = Rule(
    _kind(App),
    (
        _run(_part("fn"), ends=_kind(Lam)),
        _run(_part("arg")),
        _val(lambda lhs, ps: ps[1].rhs),
        _run(lambda lhs, ps: _beta(ps[0].rhs, ps[1].rhs)),
    ),
)
_EFF = Rule(_kind(Eff), (_run(_part("body")),), emits=True)

# the redex rules of the MNF (StM) and evaluation-context (EC) dialects
_REDEX_CASEZ = Rule(
    lambda e: isinstance(e, Case) and isinstance(e.scrutinee, Zero),
    (_run(_part("zero_branch")),),
)
_REDEX_CASES = Rule(
    lambda e: isinstance(e, Case) and isinstance(e.scrutinee, Succ) and is_value(e.scrutinee),
    (
        _val(lambda lhs, ps: lhs.scrutinee.body),
        _run(lambda lhs, ps: _branch(lhs, lhs.scrutinee.body)),
    ),
)
_REDEX_APP = Rule(
    lambda e: isinstance(e, App) and isinstance(e.fn, Lam) and is_value(e.arg),
    (_val(_part("arg")), _run(lambda lhs, ps: _beta(lhs.fn, lhs.arg))),
)

_RULES = {
    "plain": {
        "Val": _VAL,
        "St-Stop(0)": _FREEZE,
        "St-Stop(1)": _STOP1,
        "St-Stop(2)": _STOP2,
        "StE-CaseZ": _CASEZ,
        "StE-CaseS": _CASES,
        "StE-App": _APP,
        "StE-Eff": _EFF,
    },
    "mnf": {
        "Val": _VAL,
        "StM-Stop": _FREEZE,
        "StM-Let1": Rule(
            _kind(Let),
            (_run(_part("bound")),),
            rhs=lambda lhs, ps: Let(lhs.var, ps[0].rhs, lhs.body),
        ),
        "StM-Let2": Rule(
            _kind(Let),
            (
                _run(_part("bound")),
                _val(lambda lhs, ps: ps[0].rhs),
                _run(lambda lhs, ps: subst(lhs.body, {lhs.var: ps[0].rhs})),
            ),
        ),
        "StM-CaseZ": _REDEX_CASEZ,
        "StM-CaseS": _REDEX_CASES,
        "StM-App": _REDEX_APP,
        "StM-Eff": _EFF,
    },
    "ec": {
        "Val": _VAL,
        "EC-Stop": _FREEZE,
        "EC-Val": _VALUE,
        "EC-CaseZ": _REDEX_CASEZ,
        "EC-CaseS": _REDEX_CASES,
        "EC-App": _REDEX_APP,
        "EC-Eff": _EFF,
        "EC-Seq": Rule(None, (_run(None), _run(None)), side=_fits_context),
    },
    "annihilator": {
        "Val": _VAL,
        "StA-Val": _VALUE,
        # the lazy stop closes its position with any value, and cuts
        "StA-Stop": Rule(None, (_val(None),), rhs=lambda lhs, ps: ps[0].lhs, cut=True),
        "StA-Succ": Rule(
            _kind(Succ),
            (_run(_part("body"), ends=is_value),),
            rhs=lambda lhs, ps: Succ(ps[0].rhs),
        ),
        "StA-CaseZ": _CASEZ,
        "StA-CaseS": _CASES,
        "StA-App": _APP,
        "StA-Eff": _EFF,
    },
}


def _ann_join(a: AnnTrace, b) -> AnnTrace:
    b = b if isinstance(b, AnnTrace) else AnnTrace(b, False)
    return b if a is ANN_EMPTY else ann_concat(a, b)


# each dialect's trace monoid: its empty trace, and how a trace is extended
_TRACES = {dialect: ((), operator.add) for dialect in ("plain", "mnf", "ec")}
_TRACES["annihilator"] = (ANN_EMPTY, _ann_join)


def check_derivation(d: Derivation, dialect: str = "plain"):
    """Re-derive every node; None if valid, else the first RuleViolation
    in preorder.  Dialects: plain, mnf, ec, annihilator."""
    try:
        rules, (empty, join) = _RULES[dialect], _TRACES[dialect]
    except KeyError:
        raise ValueError(f"unknown dialect {dialect!r}") from None
    todo = [(d, ())]
    while todo:
        d, path = todo.pop()
        rule = rules.get(d.rule)
        if rule is None:
            return _bad(path, f"unknown rule {d.rule!r} for the {dialect} dialect")
        lhs, ps = d.lhs, d.premises
        if len(ps) != len(rule.premises):
            return _bad(path, f"{d.rule} wants {len(rule.premises)} premisses, got {len(ps)}")
        if rule.applies is not None and not rule.applies(lhs):
            return _bad(path, f"{d.rule} does not apply to this term")
        trace = join(empty, (lhs.label,)) if rule.emits else empty
        for i, want in enumerate(rule.premises):
            p = ps[i]
            if want.val:
                if p.rule != "Val":
                    return _bad(path, f"{d.rule} premiss {i} must be a Val side condition")
            else:
                try:
                    trace = join(trace, p.trace)
                except TypeError:  # e.g. a cut-off trace under a plain rule
                    return _bad(path, f"{d.rule} premiss {i} carries another dialect's trace")
            if want.at is not None and p.lhs != want.at(lhs, ps):
                return _bad(path, f"{d.rule} premiss {i} starts at the wrong term")
            if want.ends is not None and not want.ends(p.rhs):
                return _bad(path, f"{d.rule} cannot continue from the result of premiss {i}")
        if rule.side is not None and not rule.side(d):
            return _bad(path, f"{d.rule} premisses do not fit any evaluation context")
        if d.rhs != (rule.rhs(lhs, ps) if rule.rhs else ps[-1].rhs if ps else lhs):
            return _bad(path, f"{d.rule} conclusion does not match its premisses")
        if rule.cut:
            trace = join(trace, ANN_ZERO)
        if d.trace != trace and not (rule is _VAL and d.trace in ((), ANN_EMPTY)):
            return _bad(path, f"{d.rule} emits the wrong trace")
        i = len(ps)
        while i:  # push the premisses so that the first is checked next
            i -= 1
            todo.append((ps[i], (path, i)))
    return None


def _bad(path, reason):
    return RuleViolation(_flat(path), reason)


def _flat(path) -> tuple:
    """A path as premiss indices from the root.  A path is () at the root
    and (parent path, premiss index) below it, so descending costs one
    pair; only a violation flattens it."""
    flat = []
    while path:
        path, i = path
        flat.append(i)
    return tuple(reversed(flat))


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
    return all(stop_k(n.rule) is None or is_value(n.rhs) for n in _nodes(d))


_TO_BIGSTEP = {
    "StE-CaseZ": "BE-CaseZ",
    "StE-CaseS": "BE-CaseS",
    "StE-App": "BE-App",
    "StE-Eff": "BE-Eff",
}

_FROM_BIGSTEP = {v: k for k, v in _TO_BIGSTEP.items()}


def _rebuild(d: Derivation, visit) -> Derivation:
    """d rebuilt bottom-up with an explicit stack, so any depth converts.

    visit(node, path) gives the node's new form: a Derivation, or a pair
    (premisses, build) where build makes it from their new forms.  Nodes
    are visited in preorder, so visit raises at the first bad node in
    preorder.  Paths are linked, as in the checker."""
    done: list = []
    todo: list = [(d, (), None)]
    while todo:
        node, path, build = todo.pop()
        if build is not None:  # node counts the rebuilt premisses atop done
            cut = len(done) - node
            done[cut:] = [build(tuple(done[cut:]))]
            continue
        new = visit(node, path)
        if isinstance(new, Derivation):
            done.append(new)
            continue
        prems, build = new
        todo.append((len(prems), None, build))
        todo += [(prems[i], (path, i), None) for i in reversed(range(len(prems)))]
    return done[0]


def strict_to_bigstep(d: Derivation) -> Derivation:
    """Rewrite a strict derivation into big-step form (BE-* rules).

    Raises NotStrict at the first stop node that did not reach a value.
    """
    def visit(d: Derivation, path):
        k = stop_k(d.rule)
        if k is not None:
            if not is_value(d.rhs):
                raise NotStrict(_flat(path))
            if k == 0:
                return Derivation("BE-Val", d.lhs, d.rhs, d.trace, ())
            if k == 1 and isinstance(d.lhs, Succ):
                return (d.premises[0],), lambda ps: Derivation("BE-Succ", d.lhs, d.rhs, d.trace, ps)
            raise NotStrict(_flat(path))
        if d.rule == "Val":
            return d
        rule = _TO_BIGSTEP.get(d.rule)
        if rule is None:
            raise NotStrict(_flat(path))
        return d.premises, lambda ps: Derivation(rule, d.lhs, d.rhs, d.trace, ps)

    return _rebuild(d, visit)


def bigstep_to_strict(d: Derivation) -> Derivation:
    """Inverse of strict_to_bigstep."""
    def visit(d: Derivation, path):
        if d.rule == "BE-Val":
            return mk_stop0(d.lhs)
        if d.rule == "Val":
            return d
        if d.rule == "BE-Succ":
            return (d.premises[0],), lambda ps: mk_stop1(d.lhs, ps[0])
        rule = _FROM_BIGSTEP.get(d.rule)
        if rule is None:
            raise ValueError(f"not a big-step rule: {d.rule!r}")
        return d.premises, lambda ps: Derivation(rule, d.lhs, d.rhs, d.trace, ps)

    return _rebuild(d, visit)


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


def _placeholder(demand: str | Expr) -> Expr:
    """A cut position's value; an unresolved demand is the run's own term."""
    if isinstance(demand, Expr):
        try:
            demand = "fn" if isinstance(infer_type(demand), ArrowT) else "nat"
        except TypeFailure:
            demand = "nat"
    return _IDENTITY if demand == "fn" else Zero()


def annihilator_derivation(e: Expr, budget: int, demand: str | None = None) -> Derivation:
    """Build the StA-* derivation for e at the given budget.

    When the budget dies mid-run the lazy stop rule closes every pending
    position with a placeholder value and the trace ends in the cut-off
    marker, absorbing everything that would have followed.  A cut at a tail
    position (case branch, application or effect body) meets `demand`, by
    default fn if e's type is an arrow, else nat; that type is inferred only
    when such a cut happens, so at most once a run.
    """
    return _ann(e, Budget(budget), e if demand is None else demand, [])


def annihilator_eval(e: Expr, budget: int):
    """(value, cut-off trace) for e under the annihilator semantics."""
    d = annihilator_derivation(e, budget)
    return d.rhs, AnnTrace(tuple(d.trace.prefix), d.trace.annihilated)


def _ann(e: Expr, b: Budget, demand: str | Expr, log: list) -> Derivation:
    if is_value(e):
        return Derivation("StA-Val", e, e, ANN_EMPTY, ())
    if b.remaining == 0:
        return _cut(e, demand)
    c = type(e)
    if c is App:
        p1 = _ann(e.fn, b, "fn", log)
        p2 = _ann(e.arg, b, "nat", log)
        f = p1.rhs
        if type(f) is not Lam:
            raise StuckError(App(f, p2.rhs))
        pb = _contract(subst(f.body, {f.self_var: f, f.param: p2.rhs}), b, demand, log)
        return Derivation(
            "StA-App", e, pb.rhs,
            ann_concat_all(p1.trace, p2.trace, pb.trace),
            (p1, p2, val_leaf(p2.rhs), pb),
        )
    if c is Succ:
        p = _ann(e.body, b, "nat", log)
        return Derivation("StA-Succ", e, Succ(p.rhs), p.trace, (p,))
    if c is Eff:
        b.spend()
        head = AnnTrace(emit(log, e.label), False)
        p = _ann(e.body, b, demand, log)
        return Derivation("StA-Eff", e, p.rhs, ann_concat(head, p.trace), (p,))
    if c is Case:
        ps = _ann(e.scrutinee, b, "nat", log)
        v = ps.rhs
        if type(v) is Zero:
            pb = _contract(e.zero_branch, b, demand, log)
            return Derivation(
                "StA-CaseZ", e, pb.rhs, ann_concat(ps.trace, pb.trace), (ps, pb)
            )
        if type(v) is Succ:
            pb = _contract(subst(e.succ_branch, {e.succ_var: v.body}), b, demand, log)
            return Derivation(
                "StA-CaseS", e, pb.rhs, ann_concat(ps.trace, pb.trace),
                (ps, val_leaf(v.body), pb),
            )
        raise StuckError(Case(e.zero_branch, e.succ_var, e.succ_branch, v))
    raise StuckError(e)  # a variable or a let has no rule


def _cut(e: Expr, demand: str | Expr) -> Derivation:
    v = _placeholder(demand)
    return Derivation("StA-Stop", e, v, ANN_ZERO, (val_leaf(v),))


def _contract(e: Expr, b: Budget, demand: str | Expr, log: list) -> Derivation:
    """Pay for a contraction and run the branch or body e it leads to; with
    no budget left to pay, e is cut, even when it is a value."""
    if b.remaining == 0:
        return _cut(e, demand)
    b.spend()
    return _ann(e, b, demand, log)


### the evaluation-context dialect


def ec_bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Budgeted evaluation presented as context-decomposition chains:
    each contraction is one EC-Seq link whose left premiss is the redex
    rule and whose right premiss continues with the plugged-back term."""
    d = _ec(e, Budget(budget), [])
    return BigStopResult(d.rhs, tuple(d.trace), d)


def _ec(e: Expr, b: Budget, log: list) -> Derivation:
    """A loop over the contractions, then their links folded into the EC-Seq
    chain from its end."""
    links = []
    while b.remaining and (split := decompose(e)) is not None:
        ctx, r = split
        step = _ec_redex(r, b, log)
        links.append((e, step))
        e = plug(ctx, step.rhs)
    d = Derivation("EC-Val" if b.remaining else "EC-Stop", e, e, (), ())
    for e, step in reversed(links):
        d = Derivation("EC-Seq", e, d.rhs, step.trace + d.trace, (step, d))
    return d


def _ec_redex(r: Expr, b: Budget, log: list) -> Derivation:
    def halt(x: Expr) -> Derivation:
        return Derivation("EC-Stop", x, x, (), ())

    c = type(r)
    if c is App:
        f, v = r.fn, r.arg
        if type(f) is Lam and is_value(v):
            b.spend()
            out = subst(f.body, {f.self_var: f, f.param: v})
            return Derivation("EC-App", r, out, (), (val_leaf(v), halt(out)))
    elif c is Eff:
        b.spend()
        return Derivation("EC-Eff", r, r.body, emit(log, r.label), (halt(r.body),))
    elif c is Case:
        sc = r.scrutinee
        if type(sc) is Zero:
            b.spend()
            zb = r.zero_branch
            return Derivation("EC-CaseZ", r, zb, (), (halt(zb),))
        if type(sc) is Succ and is_value(sc.body):
            b.spend()
            v = sc.body
            out = subst(r.succ_branch, {r.succ_var: v})
            return Derivation("EC-CaseS", r, out, (), (val_leaf(v), halt(out)))
    raise StuckError(r)


### JSON round-trip
#
# A file holds each shared thing once: a table of the distinct terms as
# source text, the labels every trace points into, and one row per node in
# preorder.  A row is [rule, lhs, rhs, start, end, n]: lhs and rhs index the
# terms, the trace is labels[start:end], and the node's n premisses are the
# subtrees whose rows follow it.  An annihilator trace puts its cut flag
# before n.  The labels hold each label log the tree's spans share once, so
# a run's file grows with the run, not with the square of it.

FORMAT = 2

# A format 2 file nests three deep: the file, its three lists, a row.  The C
# JSON decoder recurses once per level and can overflow the C stack before
# it meets the recursion limit, so deeper text is refused before it runs.
_DEPTH = 3
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.S)  # unterminated: to the end
_NOT_BRACKET = bytes(c for c in range(256) if c not in b"[]{}")
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _nested_too_deeply(text: str) -> bool:
    """Whether the brackets outside strings nest deeper than _DEPTH."""
    outside = _STRING.sub("", text).encode()
    steps = map(_STEP.__getitem__, outside.translate(None, _NOT_BRACKET))
    return max(accumulate(steps), default=0) > _DEPTH


class DerivationFormatError(ValueError):
    """Input that derivation_to_json did not write: bad JSON, a missing or
    unknown format, or tables and rows that do not fit together."""


def derivation_to_json(d: Derivation) -> dict:
    """d as a dict in the format above, ready for json.dump."""
    terms: list = []
    by_id: dict = {}  # the tree keeps every term alive, so ids stay unique
    by_text: dict = {}
    labels: list = []
    offsets: dict = {}  # id of a span's log -> where labels holds it

    def term(e: Expr) -> int:
        i = by_id.get(id(e))
        if i is None:
            text = print_expr(e)
            i = by_text.get(text)
            if i is None:
                i = by_text[text] = len(terms)
                terms.append(text)
            by_id[id(e)] = i
        return i

    def bounds(t) -> tuple:
        if type(t) is Span:
            at = offsets.get(id(t.log))
            if at is None:
                at = offsets[id(t.log)] = len(labels)
                labels.extend(t.log)
            return at + t.start, at + t.end
        if not t:
            return 0, 0
        start = len(labels)
        labels.extend(t)  # a trace that is no span (a forged or composed one)
        return start, len(labels)

    rows = []
    todo = [d]
    while todo:
        n = todo.pop()
        t = n.trace
        if type(t) is AnnTrace:
            rows.append([n.rule, term(n.lhs), term(n.rhs), *bounds(t.prefix), t.annihilated, len(n.premises)])
        else:
            rows.append([n.rule, term(n.lhs), term(n.rhs), *bounds(t), len(n.premises)])
        todo += reversed(n.premises)
    return {"format": FORMAT, "terms": terms, "labels": labels, "nodes": rows}


def derivation_to_json_str(d: Derivation) -> str:
    return json.dumps(derivation_to_json(d), separators=(",", ":"))


def derivation_from_json(obj) -> Derivation:
    """The derivation that derivation_to_json wrote as obj (or as its JSON
    text).  Raises DerivationFormatError on any other input."""
    try:
        if isinstance(obj, str):
            if _nested_too_deeply(obj):
                raise DerivationFormatError(f"nested too deeply for format {FORMAT}")
            obj = json.loads(obj)
        return _decode(obj)
    except DerivationFormatError:
        raise
    except RecursionError:
        raise DerivationFormatError("nested too deeply to decode") from None
    except (ValueError, TypeError, KeyError) as err:
        raise DerivationFormatError(f"malformed derivation file: {err!r}") from None


def _decode(obj) -> Derivation:
    if type(obj) is not dict or obj.get("format") != FORMAT:
        raise DerivationFormatError(f"not a format {FORMAT} derivation file")
    texts, labels, rows = obj["terms"], obj["labels"], obj["nodes"]
    if not (type(texts) is type(labels) is type(rows) is list):
        raise DerivationFormatError("terms, labels and nodes must be lists")
    if not all(type(x) is str for x in texts) or not all(type(x) is str for x in labels):
        raise DerivationFormatError("terms and labels must be strings")
    terms = []
    for i, text in enumerate(texts):
        try:
            terms.append(parse_expr(text))
        except ParseError as err:
            raise DerivationFormatError(f"term {i} does not parse: {err}") from None
    n_terms, n_labels = len(terms), len(labels)
    # rows in reverse: a node's premisses are built before it and wait on
    # the stack, its first premiss on top
    done: list = []
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        if type(row) is not list or len(row) not in (6, 7):
            raise DerivationFormatError(f"node {k}: a row has 6 or 7 entries")
        rule, lhs, rhs, start, end, n = row[0], row[1], row[2], row[3], row[4], row[-1]
        if type(rule) is not str or {type(lhs), type(rhs), type(start), type(end), type(n)} != {int}:
            raise DerivationFormatError(f"node {k}: a rule name and five integers expected")
        if not (0 <= lhs < n_terms and 0 <= rhs < n_terms):
            raise DerivationFormatError(f"node {k}: term index out of range")
        if not (0 <= start and end <= n_labels):
            raise DerivationFormatError(f"node {k}: trace bounds out of range")
        if start > end:
            raise DerivationFormatError(f"node {k}: trace starts after it ends")
        if not 0 <= n <= len(done):
            raise DerivationFormatError(f"node {k}: premisses run past the last row")
        trace = Span(labels, start, end) if start < end else ()
        if len(row) == 7:
            if type(row[5]) is not bool:
                raise DerivationFormatError(f"node {k}: the cut flag is not a boolean")
            trace = AnnTrace(trace, row[5])
        premises = ()
        if n:
            premises = tuple(reversed(done[-n:]))
            del done[-n:]
        done.append(Derivation(rule, terms[lhs], terms[rhs], trace, premises))
    if len(done) != 1:
        raise DerivationFormatError(f"the rows make {len(done)} trees, not one")
    return done[0]
