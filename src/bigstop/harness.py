"""Term generation, small-term enumeration, the worked-example corpus, the
answer tables, and the differential property suites.

Each language has one answer table, PCF_ENGINES and IMP_ENGINES: a row per
engine, (term, budget) -> Answer(term, trace, status, derivation), which
the CLI's --sem choices and the suites read alike.  One comparator, _agree,
holds rows to a reference row, multi-step.

Every suite pits at least two independently written engines against each
other; the suites never consult a single engine twice and call it agreement.
A suite is one table entry that gives its (term, budget) cases, the
comparison that returns a mismatch (_agree over rows of an answer table, or
a lockstep check of its own), and a shrinker or None; one loop in
run_property_suite counts the cases and shrinks and reports the first five
that fail.  One greedy shrinker replaces subterms with z (or sub-statements
with skip) while the failure persists.  A suite is the only statement of its
comparison, and each guarantee has one suite: `kmachine` runs every
enumerated and corpus term at fuel 64 and then the divergers at every
budget, and `imp` runs multi-step once per case and holds big-stop,
big-step and freeze to it.  The acceptance gate runs each suite at full
scale and pins its count.
"""

import itertools
import json
import random
from dataclasses import dataclass

from . import imp
from .bigstep import FuelExhausted, Stuck, Value, big_step
from .bigstop import (
    BigStopResult,
    Derivation,
    StuckError,
    annihilator_derivation,
    bigstop_eval,
    check_derivation,
    ec_bigstop_eval,
    is_progressing,
)
from .kmachine import correspondence_check
from .mnf import _spine, let_erase, mnf_bigstop_eval, mnf_small_step, to_mnf
from .record import record
from .smallstep import MultiResult, RunStatus, multi_step, small_step, step_trace
from .syntax import (
    App,
    Case,
    Eff,
    Expr,
    Lam,
    Let,
    Succ,
    Var,
    Zero,
    alpha_eq,
    expr_size,
    is_value,
    print_expr,
    rebuild,
    scoped_children,
)
from .traces import ANNIHILATOR, format_trace
from .typecheck import ArrowT, NatT, principal_type, principal_typing, types_unifiable

### generation


@dataclass
class GenConfig:
    seed: int = 0
    max_size: int = 25  # upper bound on AST nodes

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")


class GenerationExhausted(Exception):
    pass


class _GenFail(Exception):
    pass


_NAT = NatT()
_NAT1 = ArrowT(_NAT, _NAT)

# argument types tried when inventing an application
_DOM_POOL = (_NAT, _NAT, _NAT, _NAT1)

# the effect labels generated and enumerated terms emit
_LABELS = ("a", "b")


def gen_typed_expr(cfg: GenConfig) -> Expr:
    """A closed, well-typed expression built by running the typing rules
    backwards from a goal type."""
    rng = random.Random(cfg.seed)
    for _ in range(64):
        goal = _NAT if rng.random() < 0.8 else _NAT1
        try:
            return _gen(rng, goal, (), cfg.max_size, 0)
        except _GenFail:
            pass
    raise GenerationExhausted(
        f"no well-typed term within {cfg.max_size} nodes"
    )


def _gen(rng, goal, env, size, depth) -> Expr:
    if size < 1 or depth > 60:
        raise _GenFail()
    # effect nodes show up with probability 0.2 wherever there is room
    if size >= 2 and rng.random() < 0.2:
        return Eff(rng.choice(_LABELS), _gen(rng, goal, env, size - 1, depth + 1))

    opts = []
    hits = [n for n, t in env if t == goal]
    if hits:
        opts += ["var"] * 2
    if goal == _NAT:
        opts.append("zero")
        if size >= 2:
            opts += ["succ"] * 2
        if size >= 4:
            opts += ["case"] * 2
    if isinstance(goal, ArrowT):
        if size >= 2:
            opts += ["lam"] * 3
        if size >= 4:
            opts.append("spin")  # self-application seed: diverges when applied
    if size >= 3:
        opts += ["app"] * 3

    rng.shuffle(opts)
    for pick in opts:
        try:
            return _gen_one(rng, pick, goal, env, size, depth)
        except _GenFail:
            continue
    raise _GenFail()


def _gen_one(rng, pick, goal, env, size, depth) -> Expr:
    d = depth + 1
    if pick == "var":
        return Var(rng.choice([n for n, t in env if t == goal]))
    if pick == "zero":
        return Zero()
    if pick == "succ":
        return Succ(_gen(rng, _NAT, env, size - 1, d))
    if pick == "lam":
        f = _fresh(env)
        x = _fresh(env, skip=f)
        body = _gen(rng, goal.codomain, env + ((f, goal), (x, goal.domain)), size - 1, d)
        return Lam(f, x, body)
    if pick == "spin":
        f = _fresh(env)
        x = _fresh(env, skip=f)
        # fun f(x) => f x : any arrow type; loops forever once applied
        return Lam(f, x, App(Var(f), Var(x)))
    if pick == "app":
        dom = rng.choice(_DOM_POOL)
        fsize = rng.randint(1, size - 2)
        fn = _gen(rng, ArrowT(dom, goal), env, fsize, d)
        arg = _gen(rng, dom, env, size - 1 - fsize, d)
        return App(fn, arg)
    if pick == "case":
        budget = size - 1
        zs = rng.randint(1, budget - 2)
        ss = rng.randint(1, budget - 1 - zs)
        cs = budget - zs - ss
        xv = _fresh(env)
        sc = _gen(rng, _NAT, env, cs, d)
        zb = _gen(rng, goal, env, zs, d)
        sb = _gen(rng, goal, env + ((xv, _NAT),), ss, d)
        return Case(zb, xv, sb, sc)
    raise _GenFail()


def _fresh(env, skip=None):
    used = {n for n, _ in env}
    if skip:
        used.add(skip)
    i = 0
    while f"v{i}" in used:
        i += 1
    return f"v{i}"


### exhaustive enumeration

_LAM_SELF = "a"
_LAM_PARAM = "b"
_CASE_BINDERS = ("a", "b")
_UNSEEN = object()  # a candidate key not typed yet


def enumerate_exprs(max_size: int):
    """Every closed well-typed term with at most max_size AST nodes, binders
    drawn from a two-symbol alphabet, effect labels from _LABELS.  The type
    filter sits in _enum, which types each combination of parts' typings once."""
    if max_size > 8:
        raise ValueError("enumeration beyond size 8 is combinatorially hopeless")
    memo = {}
    for size in range(1, max_size + 1):
        yield from _enum(size, frozenset(), memo)


def _enum(size, env, memo):
    """The terms of exactly size nodes over the free names env that type with
    each name at its own metavariable.  The filter is exact: that typing is
    the most general one, so a dropped term types under no types for env, and
    a term with an untypable subterm is untypable itself.  Each name needs a
    distinct meta: one shared meta would drop `a b`.

    memo["ids", size, env] holds the id of each term's principal typing over
    sorted(env).  Typings compose: every typing of a part is an instance of
    its principal one, so a candidate's typing follows from its key in
    _candidates.  memo["typed"] keeps it from the key's first candidate."""
    key = (size, env)
    got = memo.get(key)
    if got is not None:
        return got
    typed = memo.setdefault("typed", {})
    ids = memo.setdefault("ids", {None: None})  # principal typing -> its id, None -> None
    out, out_ids = [], []
    for k, make, *args in _candidates(size, env, memo):
        tid = typed.get(k, _UNSEEN)
        if tid is not None:  # a candidate of a key known to fail is never built
            e = make(*args)
            if tid is _UNSEEN:
                tid = typed[k] = ids.setdefault(principal_typing(e, sorted(env)), len(ids))
            if tid is not None:
                out.append(e)
                out_ids.append(tid)
    memo["ids", size, env] = out_ids
    memo[key] = out
    return out


def _candidates(size, env, memo):
    """_enum's candidates in order, each as (key, constructor, *fields); the key
    is env, the constructor, a Case binder or Eff label, the parts' typing ids."""
    def parts(s, en):
        return list(zip(_enum(s, en, memo), memo["ids", s, en]))

    if size == 1:
        yield (env, Zero), Zero
        for x in sorted(env):
            yield (env, Var, x), Var, x
    else:
        inner = parts(size - 1, env)
        for b, t in inner:
            yield (env, Succ, t), Succ, b
        for lab in _LABELS:
            for b, t in inner:
                yield (env, Eff, lab, t), Eff, lab, b
        for b, t in parts(size - 1, env | {_LAM_SELF, _LAM_PARAM}):
            yield (env, Lam, t), Lam, _LAM_SELF, _LAM_PARAM, b
        for i in range(1, size - 1):
            for fn, tf in parts(i, env):
                for arg, ta in parts(size - 1 - i, env):
                    yield (env, App, tf, ta), App, fn, arg
        if size >= 4:
            for zs in range(1, size - 3 + 1):
                for ss in range(1, size - 2 - zs + 1):
                    cs = size - 1 - zs - ss
                    for xv in _CASE_BINDERS:
                        env_s = env | {xv}
                        for sc, tc in parts(cs, env):
                            for zb, tz in parts(zs, env):
                                for sb, ts in parts(ss, env_s):
                                    yield (env, Case, xv, tc, tz, ts), Case, zb, xv, sb, sc


### corpus of worked examples


def _omega() -> Expr:
    # (fun f(x) => f x) z  - steps to itself forever
    return App(Lam("f", "x", App(Var("f"), Var("x"))), Zero())


def corpus():
    """Named terms whose behaviour is pinned by hand-derived oracles."""
    loopy = App(Lam("g", "w", App(Var("g"), Var("w"))), Zero())
    unbounded = Lam(
        "f",
        "x",
        Case(
            Zero(),
            "y",
            App(Lam("g", "w", Eff("alloc", App(Var("g"), Var("w")))), Zero()),
            Var("x"),
        ),
    )
    bounded = Lam("f", "x", Eff("alloc", Case(Zero(), "y", loopy, Var("x"))))
    return (
        # discards a looping argument; call-by-value must spin on the argument
        ("leroy-grall", App(Lam("_", "x", Zero()),
                            App(Lam("f", "y", App(Var("f"), Var("y"))), Zero()))),
        # one step exposes a lambda that restarts the whole term when applied
        ("filinski", App(Lam("f", "x", Lam("_", "y", App(App(Var("f"), Var("x")), Var("y")))),
                         Zero())),
        ("omega", _omega()),
        # allocates one cell per loop turn on nonzero input
        ("alloc-unbounded", unbounded),
        # allocates exactly one cell on any input, then loops or finishes
        ("alloc-bounded", bounded),
    )


def corpus_term(name: str):
    for n, t in corpus():
        if n == name:
            return t
    raise KeyError(name)


### failure reports


@record
class Failure:
    term: object  # Expr or ImpConfig
    budget: int
    expected: str
    actual: str


@record
class PropertyReport:
    property: str
    trials: int
    failures: tuple
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"property: {self.property}",
            f"trials:   {self.trials}",
            f"seed:     {self.seed}",
            f"result:   {'PASS' if self.ok else 'FAIL'}",
        ]
        for f in self.failures:
            lines.append(f"  counterexample: {_show(f.term)}")
            lines.append(f"    budget:   {f.budget}")
            lines.append(f"    expected: {f.expected}")
            lines.append(f"    actual:   {f.actual}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [
                {
                    "term": _show(f.term),
                    "budget": f.budget,
                    "expected": f.expected,
                    "actual": f.actual,
                }
                for f in self.failures
            ],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _show(t) -> str:
    return imp.print_config(t) if isinstance(t, imp.ImpConfig) else print_expr(t)


### shrinking


def _shrink(t, still_fails, leaf, children, rebuild):
    """Greedy shrinking: the first subterm, in preorder, whose replacement by
    leaf still fails is replaced, and the walk starts over on the smaller
    term until no replacement fails.  Every candidate is re-checked; one
    that raises counts as passing."""
    improved = True
    while improved:
        improved = False
        # each entry is a subterm and its zipper: (parent, index, zipper)
        stack = [(t, None)]
        while stack:
            sub, up = stack.pop()
            if sub != leaf:
                cand, z = leaf, up
                while z is not None:
                    parent, i, z = z
                    kids = list(children(parent))
                    kids[i] = cand
                    cand = rebuild(parent, kids)
                try:
                    bad = still_fails(cand)
                except Exception:
                    bad = False
                if bad:
                    t = cand
                    improved = True
                    break
            kids = children(sub)
            stack.extend((kids[i], (sub, i, up)) for i in reversed(range(len(kids))))
    return t


def shrink_expr(e: Expr, still_fails) -> Expr:
    """Greedy subterm-to-z shrinking; every candidate is re-checked."""
    return _shrink(e, still_fails, Zero(), lambda e: [k for k, _ in scoped_children(e)], rebuild)


def _stmt_children(s):
    # a sequence's second statement is tried before its first: the order
    # decides which of several minimal failing programs greedy shrinking
    # stops at, and reports depend on it
    match s:
        case imp.SeqS(a, b):
            return (b, a)
        case imp.If(_, b) | imp.While(_, b):
            return (b,)
    return ()


def _stmt_rebuild(s, kids):
    match s:
        case imp.SeqS():
            b, a = kids  # in _stmt_children's order
            return imp.SeqS(a, b)
        case imp.If(g, _):
            return imp.If(g, *kids)
        case imp.While(g, _):
            return imp.While(g, *kids)
    raise TypeError(f"no children: {s!r}")


def shrink_stmt(s, still_fails):
    """Greedy sub-statement-to-skip shrinking; every candidate is re-checked."""
    return _shrink(s, still_fails, imp.Skip(), _stmt_children, _stmt_rebuild)


### IMP program pools


def enumerate_stmts(max_size: int):
    """Every statement up to max_size nodes over a tiny fixed expression
    pool: assignments draw from {0, x - 1, y} into {x, y}; guards from
    {x, y}.  Small, but enough to exercise every rule, including loops that
    count down, copy, and spin."""
    rhs = (imp.Lit(0), imp.Sub(imp.Ref("x"), imp.Lit(1)), imp.Ref("y"))
    guards = (imp.Ref("x"), imp.Ref("y"))
    memo = {}

    def level(size):
        got = memo.get(size)
        if got is not None:
            return got
        out = []
        if size == 1:
            out.append(imp.Skip())
            for tgt in ("x", "y"):
                for a in rhs:
                    out.append(imp.Assign(tgt, a))
        else:
            for g in guards:
                for b in level(size - 1):
                    out.append(imp.If(g, b))
                    out.append(imp.While(g, b))
            for i in range(1, size - 1):
                for s1 in level(i):
                    for s2 in level(size - 1 - i):
                        out.append(imp.SeqS(s1, s2))
        memo[size] = out
        return out

    for size in range(1, max_size + 1):
        yield from level(size)


def gen_stmt(rng: random.Random):
    """A random statement with a richer arithmetic pool than the enumerator."""

    def aexp(depth=0):
        r = rng.random()
        if depth >= 2 or r < 0.4:
            return rng.choice(
                (imp.Lit(rng.randint(0, 3)), imp.Ref("x"), imp.Ref("y"))
            )
        ctor = rng.choice((imp.Add, imp.Sub, imp.Mul))
        return ctor(aexp(depth + 1), aexp(depth + 1))

    def stmt(size):
        if size <= 1:
            if rng.random() < 0.3:
                return imp.Skip()
            return imp.Assign(rng.choice(("x", "y")), aexp())
        r = rng.random()
        if r < 0.4:
            i = rng.randint(1, size - 1)
            return _seq(stmt(i), stmt(size - i))
        if r < 0.7:
            return imp.If(aexp(), stmt(size - 1))
        return imp.While(aexp(), stmt(size - 1))

    return stmt(rng.randint(1, 12))


def _seq(a, b):
    """a ; b nested to the left, as the parser nests it: the concrete syntax
    has no statement grouping, so only such sequences survive a print/parse
    round trip.  b's left spine is appended onto a."""
    rest = []
    while type(b) is imp.SeqS:
        rest.append(b.second)
        b = b.first
    a = imp.SeqS(a, b)
    for s in reversed(rest):
        a = imp.SeqS(a, s)
    return a


def gen_imp_config(rng: random.Random) -> imp.ImpConfig:
    st = {"x": rng.randint(0, 3), "y": rng.randint(0, 3)}
    return imp.config(gen_stmt(rng), st)


### the suites


def run_property_suite(name, cfg=None, trials=None, max_budget=10) -> PropertyReport:
    """Run one suite: check every (term, budget) case, count them, and shrink
    and report the first few that fail."""
    cfg = cfg or GenConfig()
    try:
        suite = _SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; have {', '.join(sorted(_SUITES))}"
        ) from None
    cases, mismatch, shrink = suite(cfg, trials, max_budget)
    failures = []
    count = 0
    for term, b in cases:
        count += 1
        bad = mismatch(term, b)
        if bad and len(failures) < _MAX_REPORTED:
            if shrink is not None:
                term = shrink(term, lambda t: mismatch(t, b))
                bad = mismatch(term, b)
            failures.append(Failure(term, b, *bad))
    return PropertyReport(name, count, tuple(failures), cfg.seed)


_MAX_REPORTED = 5


### case builders: (term, budget) pairs


def _enum_pool(cfg: GenConfig):
    return enumerate_exprs(min(cfg.max_size, 7))


def _enum_cases(cfg: GenConfig, budgets):
    for e in _enum_pool(cfg):
        for b in budgets:
            yield e, b


def _gen_cases(cfg: GenConfig, trials: int, max_budget: int):
    """trials closed well-typed terms at fuel max(max_budget, 64); each trial
    gets its own seed so a failure can name the seed that rebuilds it."""
    fuel = max(max_budget, 64)
    made = 0
    seed = cfg.seed
    while made < trials:
        sub = GenConfig(seed, cfg.max_size)
        seed += 1
        try:
            e = gen_typed_expr(sub)
        except GenerationExhausted:
            continue
        made += 1
        yield e, fuel


def _imp_cases(cfg: GenConfig, trials: int, max_budget: int):
    rng = random.Random(cfg.seed)
    pool = [imp.config(s, {"x": 2, "y": 0}) for s in enumerate_stmts(min(cfg.max_size, 6))]
    pool += [gen_imp_config(rng) for _ in range(trials)]
    for c in pool:
        for b in range(max_budget + 1):
            yield c, b


### the answer tables: name -> (term, budget) -> Answer


@record
class Answer:
    """Where a run stopped, what it emitted (in the while-language: the
    statement and the store), how it ended (a RunStatus or ImpStatus), and
    a tree engine's derivation.  A field the engine does not report is None."""

    term: object
    trace: object
    status: object
    derivation: object = None


def _answer(engine, t, b) -> Answer:
    """engine(t, b)'s own result as an Answer.  A tree engine's run is out
    of budget where it stopped at no value or its trace ends in the cut.  A
    result of any other shape is a TypeError, never an answer."""
    try:
        r = engine(t, b)
    except StuckError as err:
        return Answer(err.at, None, RunStatus.STUCK)
    match r:
        case MultiResult(final, trace, _, status):
            return Answer(final, trace, status)
        case Value(v, trace):
            return Answer(v, trace, RunStatus.REACHED_VALUE)
        case Stuck(at):
            return Answer(at, None, RunStatus.STUCK)
        case BigStopResult(v, trace, d) | (Derivation(rhs=v, trace=trace) as d):  # the annihilator's is a tree
            trace = tuple(trace)
            done = is_value(v) and trace[-1:] != (ANNIHILATOR,)
            return Answer(v, trace, RunStatus.REACHED_VALUE if done else RunStatus.OUT_OF_BUDGET, d)
        case imp.ImpMultiResult(c, _, status):
            return Answer(c.stmt, c.state, status)
        case imp.ImpConfig(s, st):
            return Answer(s, st, imp.ImpStatus.REACHED_SKIP if type(s) is imp.Skip else imp.ImpStatus.OUT_OF_BUDGET)
        case imp.ImpDone(st):
            return Answer(imp.Skip(), st, imp.ImpStatus.REACHED_SKIP)
        case imp.FreezeResult(st, frozen):
            return Answer(None, st, imp.ImpStatus.OUT_OF_BUDGET if frozen else imp.ImpStatus.REACHED_SKIP)
        case FuelExhausted():  # big-step out of fuel
            return Answer(None, None, RunStatus.OUT_OF_BUDGET)
        case imp.ImpFuelExhausted():
            return Answer(None, None, imp.ImpStatus.OUT_OF_BUDGET)
    raise TypeError(f"no answer shape: {r!r}")


# each row runs its one engine, looked up when it is called
PCF_ENGINES = {
    "multi": lambda e, b: _answer(multi_step, e, b),
    "big": lambda e, b: _answer(big_step, e, b),
    "bigstop": lambda e, b: _answer(bigstop_eval, e, b),
    "annihilator": lambda e, b: _answer(annihilator_derivation, e, b),
    "mnf": lambda e, b: _answer(mnf_bigstop_eval, to_mnf(e), b),
    "ec": lambda e, b: _answer(ec_bigstop_eval, e, b),
}

IMP_ENGINES = {
    "multi": lambda c, b: _answer(imp.imp_multi_step, c, b),
    "big": lambda c, b: _answer(imp.imp_bigstep, c, b),
    "bigstop": lambda c, b: _answer(imp.imp_bigstop, c, b),
    "freeze": lambda c, b: _answer(imp.imp_bigstop_freeze, c, b),
}


### mismatches: None when the engines agree, else (expected, actual)


def _agree(reference, rows, show):
    """The mismatch of each row, in order, with the reference: both answers,
    printed by show's term and trace printers, for the first that differs.
    Status, then trace, then term are compared where the row reports them.
    A trace that ends in the cut is compared up to it and its term not at
    all; nor is a stuck term: multi-step's is whole, the others' a redex."""

    def shown(a, head=""):
        return head + " | ".join("-" if x is None else f(x) for f, x in zip(show, (a.term, a.trace)))

    def mismatch(t, b):
        want = reference(t, b)
        for row in rows:
            got = row(t, b)
            if got.status is not want.status:
                return tuple(shown(a, f"{a.status.value}: ") for a in (want, got))
            cut = got.trace is not None and got.trace[-1:] == (ANNIHILATOR,)
            trace = got.trace[:-1] if cut else got.trace
            term = None if cut or got.status is RunStatus.STUCK else got.term
            if trace is not None and trace != want.trace or term is not None and term != want.term:
                return shown(want), shown(got)
        return None

    return mismatch


def _progress_violation(e, fuel):
    ty0 = principal_type(e)
    trajectory = step_trace(e, fuel)
    last = len(trajectory) - 1
    for i, mid in enumerate(trajectory):
        # step_trace has stepped every point but the last
        if i == last and not is_value(mid) and small_step(mid) is None:
            return ("a step from every non-value intermediate",
                    f"no step at index {i}: {print_expr(mid)}")
        if not types_unifiable(ty0, principal_type(mid)):
            return (f"type compatible with {print_expr(e)} at every step",
                    f"index {i} broke it: {print_expr(mid)}")
    if not is_value(e):
        d = bigstop_eval(e, 1).derivation
        if not is_progressing(d):
            return ("a progressing budget-1 derivation for a non-value",
                    f"stop-only derivation for {print_expr(e)}")
    return None


def _derivation_violation(e, b):
    v = check_derivation(bigstop_eval(e, b).derivation)
    return None if v is None else ("a checkable derivation", str(v))


_MACHINE_FUEL = 64


def _divergers():
    return (
        corpus_term("omega"),
        corpus_term("leroy-grall"),
        App(corpus_term("alloc-unbounded"), Succ(Zero())),
    )


def _kmachine_mismatch(e, b):
    r = correspondence_check(e, b)
    if r.ok:
        return None
    return (f"machine equal to the step relation at every contraction up to {b}", r.detail)


def _mnf_mismatch(e, fuel):
    """e and its MNF image in step for up to fuel contractions; before each
    one the image takes its silent administrative steps, uncounted but fewer
    than its nodes (each removes a let outside every fun)."""
    m = to_mnf(e)
    if not alpha_eq(let_erase(m), e):
        return ("let-erasure inverts the translation", print_expr(let_erase(m)))
    n = 0
    while n < fuel:
        k = expr_size(m)
        while type(_spine(m)[1]) is Let:
            r, k = mnf_small_step(m), k - 1
            if r is None or r.trace or k < 0:
                return (f"silent administrative steps before contraction {n + 1}, at most one per node",
                        f"{'none' if r is None else format_trace(r.trace)} from {print_expr(m)}")
            m = r.expr
        direct, via = small_step(e), mnf_small_step(m)
        if direct is None and via is None:
            break
        if direct is None or via is None or direct.trace != via.trace:
            return tuple(f"contraction {n + 1}: {'none' if s is None else format_trace(s.trace)}"
                         for s in (direct, via))
        e, m, n = direct.expr, via.expr, n + 1
    if not alpha_eq(let_erase(m), e):
        return (f"after {n} contractions: {print_expr(e)}", print_expr(let_erase(m)))
    return None


def _shrink_config(c, still_fails):
    small = shrink_stmt(c.stmt, lambda s: still_fails(imp.ImpConfig(s, c.state)))
    return imp.ImpConfig(small, c.state)


def _against_multi(*rows, table=PCF_ENGINES, show=(print_expr, format_trace)):
    return _agree(table["multi"], [table[r] for r in rows], show)


# name -> (cfg, trials, max_budget) -> (cases, mismatch, shrinker or None);
# trials counts generated terms or programs, not cases
_SUITES = {
    "stop-multi": lambda cfg, trials, mb: (
        _enum_cases(cfg, range(mb + 1)), _against_multi("bigstop"), shrink_expr),
    "stop-step-big": lambda cfg, trials, mb: (
        _gen_cases(cfg, trials or 2000, mb), _against_multi("bigstop", "big"), shrink_expr),
    "progress-preservation": lambda cfg, trials, mb: (
        _gen_cases(cfg, trials or 2000, mb), _progress_violation, None),
    "derivation-integrity": lambda cfg, trials, mb: (
        itertools.chain(
            _enum_cases(cfg, range(mb + 1)),
            ((e, b) for e, fuel in _gen_cases(cfg, trials or 500, mb) for b in (fuel, 1))),
        _derivation_violation, None),
    "kmachine": lambda cfg, trials, mb: (
        itertools.chain(
            ((e, _MACHINE_FUEL) for e in itertools.chain(_enum_pool(cfg), (t for _, t in corpus()))),
            ((e, b) for e in _divergers() for b in range(max(mb, _MACHINE_FUEL) + 1))),
        _kmachine_mismatch, shrink_expr),
    "annihilator": lambda cfg, trials, mb: (
        _enum_cases(cfg, range(mb + 1)), _against_multi("annihilator"), shrink_expr),
    "ec": lambda cfg, trials, mb: (
        _enum_cases(cfg, range(mb + 1)), _against_multi("ec"), shrink_expr),
    "mnf": lambda cfg, trials, mb: (
        _gen_cases(cfg, trials or 2000, mb), _mnf_mismatch, None),
    "imp": lambda cfg, trials, mb: (
        _imp_cases(cfg, trials or 2000, mb),
        _against_multi("bigstop", "big", "freeze", table=IMP_ENGINES, show=(imp.print_stmt, imp.print_state)),
        _shrink_config),
}


def suite_names():
    return tuple(sorted(_SUITES))
