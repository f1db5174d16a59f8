"""Big-stop evaluation: big-step derivations that may stop early.

The judgment relates a term to the term it has become when the step
budget runs out; on a large enough budget that is the final value.  A
big-step derivation is then a plain one whose conclusion is a value: every
stop node in it ends in a value, as St-Stop(0) on a value (the big-step
value rule) or St-Stop(1) on a successor (the successor rule), so big-step
trees need no rules of their own.

A derivation node records the rule, both sides of its conclusion, the
emitted trace, and its premisses, in order.  Stop nodes are St-Stop(k):
k = 0 freezes the whole term, k >= 1 is the congruence form that evaluates
the first k positions of the head constructor and leaves the rest alone.
"Val" marks a value side condition.

The evaluators log every label a run emits in one list, and a node's trace
is the span of that log its subtree emitted (traces.Span), so building and
checking a trace copies no labels: each engine takes it from where the log
stood at the node's entry and exit.  Every dialect's trace is such a label
sequence; an annihilator run that is cut off ends its trace in the reserved
label "0", which it logs once, at its first cut.

The evaluators and compose are loops over explicit stacks, each evaluator
with its budget in a local int, so a tree of any depth is built within the
interpreter's default recursion limit.

A run's equal leaves are one object: each engine keeps one leaf per rule
and term object for the length of a run (shared_leaf), so a loop's tree
holds a handful of leaf objects however long it runs.  The tree is the
same under ==, hashing, JSON and _nodes, and the checker checks each
distinct node object once.
"""

import json
import operator
import re
from collections.abc import Callable
from itertools import accumulate

from .budget import check_budget
from .record import record
from .smallstep import decompose, plug
from .syntax import (
    App, Case, Eff, Expr, Lam, Let, ParseError, Succ, SubstOpenValue, Var, Zero,
    beta, is_value, parse_expr, print_expr, subst,
)
from .traces import ANNIHILATOR, AnnTrace, Span, Trace, ann_join, emit, since
from .typecheck import ArrowT, TypeFailure, infer_type


class StuckError(Exception):
    """A redex with no rule was reached while budget remained."""

    def __init__(self, at: Expr):
        super().__init__(f"stuck at {print_expr(at)}")
        self.at = at


@record
class Derivation:
    rule: str
    lhs: Expr
    rhs: Expr
    trace: object  # a Trace, or a Span of the run's label log
    premises: tuple = ()


@record
class BigStopResult:
    stopped: Expr
    trace: Trace
    derivation: Derivation


# An engine keeps one dict of leaves for the length of a run, so equal
# leaves of a run are one object: its own leaf rule's leaf at a term object
# e under id(e), and the Val leaf at e under -id(e), which is no id.  The
# dict holds each leaf, and the leaf its term, so the ids stay unique.


def shared_leaf(leaves: dict, rule: str, e: Expr) -> Derivation:
    """The run's one leaf of the engine's own leaf rule at e."""
    k = id(e)
    d = leaves.get(k)
    if d is None:
        d = leaves[k] = Derivation(rule, e, e, (), ())
    return d


def val_leaf(leaves: dict, v: Expr) -> Derivation:
    """The run's one Val leaf at v."""
    k = -id(v)
    d = leaves.get(k)
    if d is None:
        d = leaves[k] = Derivation("Val", v, v, (), ())
    return d


### the evaluator


def bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Evaluate e for at most `budget` contractions.

    Always succeeds on well-typed closed terms: if the budget dies the
    result is wherever the term got to, as a checkable derivation whose
    conclusion matches multi_step(e, budget) exactly.
    """
    d = _stop(e, check_budget(budget), [], {})
    return BigStopResult(d.rhs, tuple(d.trace), d)


# what a node of _stop or _ann waits on: the run of its function, argument,
# beta body, successor body, effect body, scrutinee, or case branch
_ON_FN, _ON_ARG, _ON_BETA, _ON_SUCC, _ON_EFF, _ON_SCRUT, _ON_CASEZ, _ON_CASES = range(8)


def _stop(e: Expr, n: int, log: list, leaves: dict) -> Derivation:
    """One loop over the term in focus and a stack of the nodes that wait on
    its run, innermost first, as (kind, lhs, start, p1, p2, rest): start is
    where the log stood at the node's entry, p1 and p2 its finished runs.
    It descends to a leaf, then hands each finished run to the node above,
    which either starts its next run or is finished in turn.  A node's
    trace is what the log gained between its entry and its exit."""
    if is_value(e) or not n:
        return Derivation("St-Stop(0)", e, e, (), ())
    rest = ()
    while True:
        while n and not is_value(e):
            c = type(e)
            if c is App:
                f = e.fn
                if is_value(f):  # the function's run is its leaf: on to the argument
                    rest = (_ON_ARG, e, len(log), shared_leaf(leaves, "St-Stop(0)", f), None, rest)
                    e = e.arg
                else:
                    rest = (_ON_FN, e, len(log), None, None, rest)
                    e = f
            elif c is Eff:
                n -= 1
                rest = (_ON_EFF, e, len(log), None, None, rest)
                log.append(e.label)
                e = e.body
            elif c is Case:
                rest = (_ON_SCRUT, e, len(log), None, None, rest)
                e = e.scrutinee
            elif c is Succ:
                rest = (_ON_SUCC, e, 0, None, None, rest)
                e = e.body
            else:
                raise StuckError(e)  # a variable or a let has no rule
        k = id(e)  # shared_leaf, written out on the hottest path
        d = leaves.get(k)
        if d is None:
            d = leaves[k] = Derivation("St-Stop(0)", e, e, (), ())
        while rest:
            kind, t, start, p1, p2, rest = rest
            if kind == _ON_FN:
                f = d.rhs
                if not is_value(f):
                    d = Derivation("St-Stop(1)", t, App(f, t.arg), d.trace, (d,))
                    continue
                rest = (_ON_ARG, t, start, d, None, rest)
                e = t.arg
                break
            if kind == _ON_ARG:
                f, v = p1.rhs, d.rhs
                if not is_value(v) or not n:
                    d = Derivation("St-Stop(2)", t, App(f, v), since(log, start), (p1, val_leaf(leaves, f), d))
                    continue
                if type(f) is not Lam:
                    raise StuckError(App(f, v))
                rest = (_ON_BETA, t, start, p1, d, rest)
                e = beta(f, v)
            elif kind == _ON_SCRUT:
                v = d.rhs
                if not is_value(v) or not n:
                    d = Derivation("St-Stop(1)", t, Case(t.zero_branch, t.succ_var, t.succ_branch, v), d.trace, (d,))
                    continue
                if type(v) is Zero:
                    rest = (_ON_CASEZ, t, start, d, None, rest)
                    e = t.zero_branch
                elif type(v) is Succ:
                    rest = (_ON_CASES, t, start, d, None, rest)
                    e = subst(t.succ_branch, {t.succ_var: v.body})
                else:
                    raise StuckError(Case(t.zero_branch, t.succ_var, t.succ_branch, v))
            else:
                if kind == _ON_BETA:
                    d = Derivation("StE-App", t, d.rhs, since(log, start), (p1, p2, val_leaf(leaves, p2.rhs), d))
                elif kind == _ON_EFF:
                    d = Derivation("StE-Eff", t, d.rhs, Span(log, start, len(log)), (d,))
                elif kind == _ON_CASEZ:
                    d = Derivation("StE-CaseZ", t, d.rhs, since(log, start), (p1, d))
                elif kind == _ON_CASES:
                    d = Derivation("StE-CaseS", t, d.rhs, since(log, start), (p1, val_leaf(leaves, p1.rhs.body), d))
                else:
                    d = Derivation("St-Stop(1)", t, Succ(d.rhs), d.trace, (d,))
                continue
            n -= 1  # a contraction leads to e
            break
        else:
            return d


def _nodes(d: Derivation):
    """Every node of d, with an explicit stack, so any depth walks.  A node
    comes once per position: a run's shared leaf comes at each of its."""
    todo = [d]
    while todo:
        d = todo.pop()
        yield d
        todo += d.premises


### checking derivations
#
# Each dialect is a table from rule names to Rule entries, and one walker
# checks every node against its entry.  A rule is written once: the
# structural rules that the plain and annihilator dialects share have one
# entry each, so do the redex rules of the MNF and evaluation-context
# dialects.  A big-step tree is a plain tree that ends in a value.  A
# value side condition is stated once, by the Val premiss that asserts it.
# The tables use subst but no evaluator code, so the checker stays
# independent of the evaluator.  compose builds its nodes from the plain
# table too, and the evaluator reads no table, so compose produces trees
# without the evaluator.


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
_SUCC = Rule(_kind(Succ), (_run(_part("body")),), rhs=lambda lhs, ps: Succ(ps[0].rhs))
_CASEZ = Rule(
    _kind(Case),
    (_run(_part("scrutinee"), ends=_kind(Zero)), _run(_part("zero_branch"))),
)
_CASES = Rule(
    _kind(Case),
    (
        _run(_part("scrutinee"), ends=_kind(Succ)),
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
        _run(lambda lhs, ps: beta(ps[0].rhs, ps[1].rhs)),
    ),
)
_EFF = Rule(_kind(Eff), (_run(_part("body")),), emits=True)

# the redex rules of the MNF (StM) and evaluation-context (EC) dialects
_REDEX_CASEZ = Rule(
    lambda e: isinstance(e, Case) and isinstance(e.scrutinee, Zero),
    (_run(_part("zero_branch")),),
)
_REDEX_CASES = Rule(
    lambda e: isinstance(e, Case) and isinstance(e.scrutinee, Succ),
    (
        _val(lambda lhs, ps: lhs.scrutinee.body),
        _run(lambda lhs, ps: _branch(lhs, lhs.scrutinee.body)),
    ),
)
_REDEX_APP = Rule(
    lambda e: isinstance(e, App) and isinstance(e.fn, Lam),
    (_val(_part("arg")), _run(lambda lhs, ps: beta(lhs.fn, lhs.arg))),
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
        "StA-Succ": _SUCC,
        "StA-CaseZ": _CASEZ,
        "StA-CaseS": _CASES,
        "StA-App": _APP,
        "StA-Eff": _EFF,
    },
}
DIALECTS = tuple(_RULES)

# the rules that contract nothing: a contraction has run premisses, no rhs and no side condition
_IDLE = frozenset(name for rules in _RULES.values() for name, r in rules.items()
                  if r.rhs is not None or r.side is not None or all(p.val for p in r.premises))


def is_progressing(d: Derivation) -> bool:
    """True iff some node contracts; a rule name that no table has counts."""
    return any(n.rule not in _IDLE for n in _nodes(d))


# how each dialect joins two traces; the annihilator's cut absorbs the rest
_TRACES = {"plain": operator.add, "mnf": operator.add, "ec": operator.add, "annihilator": ann_join}

# each dialect's rules as the checker reads them, read off the tables once:
# rule name -> (applies, emits, one (index, is a Val, start, ends) row per
# premiss, side, rhs, cut)
_PLANS = {
    dialect: {name: (r.applies, r.emits, tuple((i, p.val, p.at, p.ends) for i, p in enumerate(r.premises)),
                     r.side, r.rhs, r.cut)
              for name, r in rules.items()}
    for dialect, rules in _RULES.items()
}


def check_derivation(d: Derivation, dialect: str = "plain"):
    """Re-derive every node; None if valid, else the first RuleViolation
    in preorder.  Dialects: plain, mnf, ec, annihilator.

    One walker checks every node of d against its entry in the dialect's
    table, with the dialect's join of traces.  A node's validity is its
    own, so each distinct node object is checked once: a run's equal
    leaves are one object, and a node met again is skipped with its
    subtree, which leaves the first violation in preorder where it was.  A
    start that substitutes no closed value is left to the Val premiss that
    asserts one, which is checked in its turn; an open function is
    reported only if nothing else is wrong."""
    try:
        plans = _PLANS[dialect]
    except KeyError:
        raise ValueError(f"unknown dialect {dialect!r}") from None
    join = _TRACES[dialect]
    unclosed = None
    seen = set()
    todo = [(d, ())]
    while todo:
        d, path = todo.pop()
        k = id(d)  # the tree keeps every node alive, so ids stay unique
        if k in seen:
            continue
        seen.add(k)
        plan = plans.get(d.rule)
        if plan is None:
            return _bad(path, f"unknown rule {d.rule!r} for the {dialect} dialect")
        applies, emits, wants, side, rhs, cut = plan
        lhs, ps = d.lhs, d.premises
        if len(ps) != len(wants):
            return _bad(path, f"{d.rule} wants {len(wants)} premisses, got {len(ps)}")
        if applies is not None and not applies(lhs):
            return _bad(path, f"{d.rule} does not apply to this term")
        trace = (lhs.label,) if emits else ()
        for (i, val, at, ends), p in zip(wants, ps):
            if val:
                if p.rule != "Val":
                    return _bad(path, f"{d.rule} premiss {i} must be a Val side condition")
            else:
                try:
                    trace = join(trace, p.trace)
                except TypeError:
                    return _bad(path, f"{d.rule} premiss {i} holds something that is not a trace")
            if at is not None:
                try:
                    want = at(lhs, ps)
                    wrong = p.lhs is not want and p.lhs != want
                except SubstOpenValue:
                    wrong = False
                    unclosed = unclosed or _bad(path, f"{d.rule} premiss {i} substitutes no closed value")
                if wrong:
                    return _bad(path, f"{d.rule} premiss {i} starts at the wrong term")
            if ends is not None and not ends(p.rhs):
                return _bad(path, f"{d.rule} cannot continue from the result of premiss {i}")
        if side is not None and not side(d):
            return _bad(path, f"{d.rule} premisses do not fit any evaluation context")
        end = rhs(lhs, ps) if rhs else ps[-1].rhs if ps else lhs
        if d.rhs is not end and d.rhs != end:
            return _bad(path, f"{d.rule} conclusion does not match its premisses")
        if cut:
            trace = join(trace, (ANNIHILATOR,))
        if d.trace is not trace and d.trace != trace:
            return _bad(path, f"{d.rule} emits the wrong trace")
        i = len(ps)
        while i:  # push the premisses so that the first is checked next
            i -= 1
            todo.append((ps[i], (path, i)))
    return unclosed


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


### composing derivations (constructive transitivity)


class ComposeMismatch(Exception):
    pass


def compose(d1: Derivation, d2: Derivation) -> Derivation:
    """Given e1 stops at e2 and e2 stops at e3, build e1 stops at e3.

    Both sides must be plain derivations.  Every node is built from the
    plain rule table, not by the evaluator, yet on evaluator output this
    reproduces bigstop_eval(e, m+n) exactly.  A rebuilt node's trace is
    the end of d1's trace followed by the start of d2's, so every node
    takes a span of one list of both traces: linear time and memory.  One
    loop pops jobs off a stack: a pair of trees to compose, or a node to
    build once the pairs pushed after it are composed.
    """
    log, mid = [*d1.trace, *d2.trace], len(d1.trace)  # d1's trace, then from mid on d2's
    plain = _RULES["plain"]
    done, todo = [], [(d1, d2)]
    while todo:
        job = todo.pop()
        if len(job) > 2:  # (rule, lhs, trace, runs before, k composed runs, runs after)
            name, lhs, trace, before, k, after = job
            runs = before + done[-k:] + after
            del done[-k:]
            done.append(_plain_node(name, lhs, runs, trace))
            continue
        d1, d2 = job
        if d1.rhs is not d2.lhs and d1.rhs != d2.lhs:
            raise ComposeMismatch(f"cannot compose: {print_expr(d1.rhs)} vs {print_expr(d2.lhs)}")
        rule1, rule2 = plain.get(d1.rule), plain.get(d2.rule)
        for d, rule in ((d1, rule1), (d2, rule2)):
            if rule is None:
                raise ComposeMismatch(f"cannot compose {d.rule}: it is not a plain rule")
            if rule.applies is not None and not rule.applies(d.lhs):
                raise ComposeMismatch(f"{d.rule} does not apply to {print_expr(d.lhs)}")
        if not rule1.premises or not rule2.premises:  # Val and St-Stop(0) stand still
            done.append(d1 if rule1.premises else d2)
            continue
        # a side that emits nothing keeps the other's trace; otherwise d1's
        # side ran last in d1 and d2's side first in d2, so they meet at mid
        t1, t2 = d1.trace, d2.trace
        trace = t1 if not t2 else t2 if not t1 else Span(log, mid - len(t1), mid + len(t2))
        runs1, runs2 = _runs(d1, rule1), _runs(d2, rule2)
        if d1.rule not in _IDLE:  # a contraction: its last run goes on into d2
            todo += [(d1.rule, d1.lhs, trace, runs1[:-1], 1, []), (runs1[-1], d2)]
            continue
        # a congruence stop: its position runs merge with d2's first runs, and
        # the side with more runs names the rule (St-Stop(1) after St-Stop(2)
        # runs no new position)
        pairs = list(zip(runs1, runs2))
        longer, rest = (d1, runs1) if len(runs1) > len(runs2) else (d2, runs2)
        todo += [(longer.rule, d1.lhs, trace, [], len(pairs), rest[len(pairs):]), *reversed(pairs)]
    return done[0]


def _runs(d: Derivation, rule: Rule) -> list:
    """d's run premisses, in order, without its Val side conditions."""
    return [p for p, want in zip(d.premises, rule.premises) if not want.val]


def _plain_node(name: str, lhs: Expr, runs: list, trace) -> Derivation:
    """The plain rule `name` concluded at lhs from its run premisses, with
    the given trace: the Val premisses and the rhs follow from the rule's
    entry."""
    rule = _RULES["plain"][name]
    runs = iter(runs)
    ps: list = []
    for want in rule.premises:
        if want.val:
            v = want.at(lhs, ps)
            ps.append(Derivation("Val", v, v, (), ()))
            continue
        p = next(runs)
        if want.ends is not None and not want.ends(p.rhs):
            raise ComposeMismatch(f"{name} cannot continue from {print_expr(p.rhs)}")
        ps.append(p)
    rhs = rule.rhs(lhs, ps) if rule.rhs else ps[-1].rhs
    return Derivation(name, lhs, rhs, trace, tuple(ps))


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


def annihilator_derivation(e: Expr, budget: int) -> Derivation:
    """Build the StA-* derivation for e at the given budget.

    When the budget dies mid-run the lazy stop rule closes every pending
    position with a placeholder value and the trace ends in the cut-off
    marker 0, absorbing everything that would have followed.  A cut at a
    tail position (case branch, application or effect body) meets the
    demand of e itself: fn if e's type is an arrow, else nat; that type is
    inferred only when such a cut happens, so at most once a run.
    """
    return _ann(e, check_budget(budget), [], {})


def annihilator_eval(e: Expr, budget: int):
    """(value, cut-off trace) for e under the annihilator semantics."""
    d = annihilator_derivation(e, budget)
    t = tuple(d.trace)
    cut = t[-1:] == (ANNIHILATOR,)
    return d.rhs, AnnTrace(t[:-1] if cut else t, cut)


_CUT = (ANNIHILATOR,)  # the trace of every cut after a run's first


def _ann(e: Expr, n: int, log: list, leaves: dict) -> Derivation:
    """_stop's loop for the StA rules: a frame also holds the demand its
    node's tail contraction meets, as (kind, lhs, demand, start, p1, p2,
    rest).  The first cut logs the 0 and spends the budget, so no node
    starts after it and nothing more is logged: a node's trace is the log
    from its entry on, up to that 0 when its run holds the cut, as
    ann_join would make it, and every later cut's trace is just 0."""
    if is_value(e):
        return Derivation("StA-Val", e, e, (), ())
    if not n:
        return _cut(e, e, emit(log, ANNIHILATOR), leaves)
    demand, cut, rest = e, (), ()
    while True:
        while True:
            if is_value(e):
                k = id(e)  # shared_leaf, written out on the hottest path
                d = leaves.get(k)
                if d is None:
                    d = leaves[k] = Derivation("StA-Val", e, e, (), ())
                break
            if not n:
                d = _cut(e, demand, cut or emit(log, ANNIHILATOR), leaves)
                cut = _CUT
                break
            c = type(e)
            if c is App:
                f = e.fn
                if is_value(f):  # the function's run is its leaf: on to the argument
                    rest = (_ON_ARG, e, demand, len(log), shared_leaf(leaves, "StA-Val", f), None, rest)
                    e, demand = e.arg, "nat"
                else:
                    rest = (_ON_FN, e, demand, len(log), None, None, rest)
                    e, demand = f, "fn"
            elif c is Eff:
                n -= 1
                rest = (_ON_EFF, e, demand, len(log), None, None, rest)
                log.append(e.label)
                e = e.body
            elif c is Case:
                rest = (_ON_SCRUT, e, demand, len(log), None, None, rest)
                e, demand = e.scrutinee, "nat"
            elif c is Succ:
                rest = (_ON_SUCC, e, demand, 0, None, None, rest)
                e, demand = e.body, "nat"
            else:
                raise StuckError(e)  # a variable or a let has no rule
        while rest:
            kind, t, tail, start, p1, p2, rest = rest
            if kind == _ON_FN:
                rest = (_ON_ARG, t, tail, start, d, None, rest)
                e, demand = t.arg, "nat"
                break
            if kind == _ON_ARG:
                f, v = p1.rhs, d.rhs
                if type(f) is not Lam:
                    raise StuckError(App(f, v))
                rest = (_ON_BETA, t, tail, start, p1, d, rest)
                e = beta(f, v)
            elif kind == _ON_SCRUT:
                v = d.rhs
                if type(v) is Zero:
                    rest = (_ON_CASEZ, t, tail, start, d, None, rest)
                    e = t.zero_branch
                elif type(v) is Succ:
                    rest = (_ON_CASES, t, tail, start, d, None, rest)
                    e = subst(t.succ_branch, {t.succ_var: v.body})
                else:
                    raise StuckError(Case(t.zero_branch, t.succ_var, t.succ_branch, v))
            else:
                if kind == _ON_BETA:
                    d = Derivation("StA-App", t, d.rhs, since(log, start), (p1, p2, val_leaf(leaves, p2.rhs), d))
                elif kind == _ON_EFF:
                    d = Derivation("StA-Eff", t, d.rhs, Span(log, start, len(log)), (d,))
                elif kind == _ON_CASEZ:
                    d = Derivation("StA-CaseZ", t, d.rhs, since(log, start), (p1, d))
                elif kind == _ON_CASES:
                    d = Derivation("StA-CaseS", t, d.rhs, since(log, start), (p1, val_leaf(leaves, p1.rhs.body), d))
                else:
                    d = Derivation("StA-Succ", t, Succ(d.rhs), d.trace, (d,))
                continue
            # a contraction leads to e at the node's own demand; with no
            # budget left to pay for it, e is cut, even when it is a value
            demand = tail
            if n:
                n -= 1
                break
            d = _cut(e, demand, cut or emit(log, ANNIHILATOR), leaves)
            cut = _CUT
        else:
            return d


def _cut(e: Expr, demand: str | Expr, trace, leaves: dict) -> Derivation:
    v = _placeholder(demand)
    return Derivation("StA-Stop", e, v, trace, (val_leaf(leaves, v),))


### the evaluation-context dialect


def ec_bigstop_eval(e: Expr, budget: int) -> BigStopResult:
    """Budgeted evaluation presented as context-decomposition chains:
    each contraction is one EC-Seq link whose left premiss is the redex
    rule and whose right premiss continues with the plugged-back term."""
    d = _ec(e, check_budget(budget), [], {})
    return BigStopResult(d.rhs, tuple(d.trace), d)


def _ec(e: Expr, n: int, log: list, leaves: dict) -> Derivation:
    """A loop over the contractions, then their links folded into the EC-Seq
    chain from its end.  A link's trace is the log from its contraction on."""
    links = []
    while n and (split := decompose(e)) is not None:
        ctx, r = split
        start = len(log)
        step = _ec_redex(r, log, leaves)
        n -= 1
        links.append((e, step, start))
        e = plug(ctx, step.rhs)
    d = Derivation("EC-Val" if n else "EC-Stop", e, e, (), ())
    for e, step, start in reversed(links):
        d = Derivation("EC-Seq", e, d.rhs, since(log, start), (step, d))
    return d


def _ec_redex(r: Expr, log: list, leaves: dict) -> Derivation:
    c = type(r)
    if c is App:
        f, v = r.fn, r.arg
        if type(f) is Lam and is_value(v):
            out = beta(f, v)
            return Derivation("EC-App", r, out, (), (val_leaf(leaves, v), shared_leaf(leaves, "EC-Stop", out)))
    elif c is Eff:
        return Derivation("EC-Eff", r, r.body, emit(log, r.label), (shared_leaf(leaves, "EC-Stop", r.body),))
    elif c is Case:
        sc = r.scrutinee
        if type(sc) is Zero:
            zb = r.zero_branch
            return Derivation("EC-CaseZ", r, zb, (), (shared_leaf(leaves, "EC-Stop", zb),))
        if type(sc) is Succ and is_value(sc.body):
            v = sc.body
            out = subst(r.succ_branch, {r.succ_var: v})
            return Derivation("EC-CaseS", r, out, (), (val_leaf(leaves, v), shared_leaf(leaves, "EC-Stop", out)))
    raise StuckError(r)


### JSON round-trip
#
# A file holds each shared thing once: a table of the distinct terms as
# source text, the labels every trace points into, and one row per node in
# preorder.  A row is [rule, lhs, rhs, start, end, n]: lhs and rhs index the
# terms, the trace is labels[start:end], and the node's n premisses are the
# subtrees whose rows follow it.  An annihilator run's cut is the label 0 at
# the end of a trace, like any other label.  The labels hold each label log
# the tree's spans share once, so a run's file grows with the run, not with
# the square of it.  Files of earlier formats are refused.

FORMAT = 3

# A format 3 file nests three deep: the file, its three lists, a row.  The C
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
        rows.append([n.rule, term(n.lhs), term(n.rhs), *bounds(n.trace), len(n.premises)])
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
    terms, table = [], {}  # equal subterms of the terms are one object
    for i, text in enumerate(texts):
        try:
            terms.append(parse_expr(text, table))
        except ParseError as err:
            raise DerivationFormatError(f"term {i} does not parse: {err}") from None
    n_terms, n_labels = len(terms), len(labels)
    # rows in reverse: a node's premisses are built before it and wait on
    # the stack, its first premiss on top
    done: list = []
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        if type(row) is not list or len(row) != 6:
            raise DerivationFormatError(f"node {k}: a row has 6 entries")
        rule, lhs, rhs, start, end, n = row
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
        premises = ()
        if n:
            premises = tuple(reversed(done[-n:]))
            del done[-n:]
        done.append(Derivation(rule, terms[lhs], terms[rhs], trace, premises))
    if len(done) != 1:
        raise DerivationFormatError(f"the rows make {len(done)} trees, not one")
    return done[0]
