"""Term generation, small-term enumeration, the worked-example corpus, and
the differential property suites.

Every suite pits at least two independently written engines against each
other; the suites never consult a single engine twice and call it agreement.
A suite is one table entry that gives its (term, budget) cases, the
comparison that returns a mismatch, and a shrinker or None; one loop in
run_property_suite counts the cases and shrinks and reports the first five
that fail.  One greedy shrinker replaces subterms with z (or sub-statements
with skip) while the failure persists.
"""

import itertools
import json
import random
from dataclasses import dataclass

from . import imp
from .bigstep import FuelExhausted, Stuck, Value, big_step
from .bigstop import (
    StuckError,
    annihilator_eval,
    bigstop_eval,
    check_derivation,
    ec_bigstop_eval,
    is_progressing,
)
from .kmachine import correspondence_check
from .mnf import let_erase, mnf_multi_step, to_mnf
from .record import record
from .smallstep import RunStatus, multi_step, small_step, step_trace
from .syntax import (
    App,
    Case,
    Eff,
    Expr,
    Lam,
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
from .traces import format_trace
from .typecheck import ArrowT, NatT, principal_type, types_unifiable, well_typed

### generation


@dataclass
class GenConfig:
    seed: int = 0
    max_size: int = 25  # upper bound on AST nodes
    effect_labels: tuple = ("a", "b")
    target_type: object = None  # None picks a goal type per term

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


def gen_typed_expr(cfg: GenConfig) -> Expr:
    """A closed, well-typed expression built by running the typing rules
    backwards from a goal type."""
    rng = random.Random(cfg.seed)
    labels = tuple(cfg.effect_labels)
    for _ in range(64):
        goal = cfg.target_type
        if goal is None:
            goal = _NAT if rng.random() < 0.8 else _NAT1
        try:
            e = _gen(rng, goal, (), cfg.max_size, labels, 0)
        except _GenFail:
            continue
        if well_typed(e):
            return e
    raise GenerationExhausted(
        f"no term of the requested type within {cfg.max_size} nodes"
    )


def _gen(rng, goal, env, size, labels, depth) -> Expr:
    if size < 1 or depth > 60:
        raise _GenFail()
    # effect nodes show up with probability 0.2 wherever there is room
    if labels and size >= 2 and rng.random() < 0.2:
        return Eff(rng.choice(labels), _gen(rng, goal, env, size - 1, labels, depth + 1))

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
            return _gen_one(rng, pick, goal, env, size, labels, depth)
        except _GenFail:
            continue
    raise _GenFail()


def _gen_one(rng, pick, goal, env, size, labels, depth) -> Expr:
    d = depth + 1
    if pick == "var":
        return Var(rng.choice([n for n, t in env if t == goal]))
    if pick == "zero":
        return Zero()
    if pick == "succ":
        return Succ(_gen(rng, _NAT, env, size - 1, labels, d))
    if pick == "lam":
        f, x = _fresh(env), None
        x = _fresh(env, skip=f)
        body = _gen(rng, goal.codomain, env + ((f, goal), (x, goal.domain)), size - 1, labels, d)
        return Lam(f, x, body)
    if pick == "spin":
        f, x = _fresh(env), None
        x = _fresh(env, skip=f)
        # fun f(x) => f x : any arrow type; loops forever once applied
        return Lam(f, x, App(Var(f), Var(x)))
    if pick == "app":
        dom = rng.choice(_DOM_POOL)
        fsize = rng.randint(1, size - 2)
        fn = _gen(rng, ArrowT(dom, goal), env, fsize, labels, d)
        arg = _gen(rng, dom, env, size - 1 - fsize, labels, d)
        return App(fn, arg)
    if pick == "case":
        budget = size - 1
        zs = rng.randint(1, budget - 2)
        ss = rng.randint(1, budget - 1 - zs)
        cs = budget - zs - ss
        xv = _fresh(env)
        sc = _gen(rng, _NAT, env, cs, labels, d)
        zb = _gen(rng, goal, env, zs, labels, d)
        sb = _gen(rng, goal, env + ((xv, _NAT),), ss, labels, d)
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


def enumerate_exprs(max_size: int, labels=("a", "b")):
    """Every closed well-typed term with at most max_size AST nodes, binders
    drawn from a two-symbol alphabet, effect labels capped at two.

    The stream is the brute-force oracle the differential suites lean on, so
    it must stay honest: syntactic uniqueness is re-checked by hashing.
    """
    if max_size > 8:
        raise ValueError("enumeration beyond size 8 is combinatorially hopeless")
    labels = tuple(labels)[:2]
    memo = {}
    seen = set()
    for size in range(1, max_size + 1):
        for e in _enum(size, frozenset(), labels, memo):
            if e in seen:
                raise AssertionError(f"enumerator repeated a term: {print_expr(e)}")
            seen.add(e)
            if well_typed(e):
                yield e


def _enum(size, env, labels, memo):
    key = (size, env)
    got = memo.get(key)
    if got is not None:
        return got
    out = []
    if size == 1:
        out.append(Zero())
        for x in sorted(env):
            out.append(Var(x))
    else:
        inner = _enum(size - 1, env, labels, memo)
        for b in inner:
            out.append(Succ(b))
        for lab in labels:
            for b in inner:
                out.append(Eff(lab, b))
        for b in _enum(size - 1, env | {_LAM_SELF, _LAM_PARAM}, labels, memo):
            out.append(Lam(_LAM_SELF, _LAM_PARAM, b))
        for i in range(1, size - 1):
            for fn in _enum(i, env, labels, memo):
                for arg in _enum(size - 1 - i, env, labels, memo):
                    out.append(App(fn, arg))
        if size >= 4:
            for zs in range(1, size - 3 + 1):
                for ss in range(1, size - 2 - zs + 1):
                    cs = size - 1 - zs - ss
                    for xv in _CASE_BINDERS:
                        env_s = env | {xv}
                        for sc in _enum(cs, env, labels, memo):
                            for zb in _enum(zs, env, labels, memo):
                                for sb in _enum(ss, env_s, labels, memo):
                                    out.append(Case(zb, xv, sb, sc))
    memo[key] = out
    return out


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
        ("imp-countdown", imp.config(imp.parse_stmt("while x do { x := x - 1 }"), {"x": 2})),
        ("imp-loop", imp.config(imp.parse_stmt("while 1 do { skip }"))),
    )


def corpus_term(name: str):
    for n, t in corpus():
        if n == name:
            return t
    raise KeyError(name)


### failure reports


@record
class Failure:
    term: object  # Expr, Stmt, or ImpConfig
    budget: object  # int or None
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
            if f.budget is not None:
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
    if isinstance(t, imp.ImpConfig):
        return imp.print_config(t)
    if isinstance(t, imp.Stmt):
        return imp.print_stmt(t)
    return print_expr(t)


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


def gen_stmt(rng: random.Random, max_size: int = 12):
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
            return imp.SeqS(stmt(i), stmt(size - i))
        if r < 0.7:
            return imp.If(aexp(), stmt(size - 1))
        return imp.While(aexp(), stmt(size - 1))

    return _reseq(stmt(rng.randint(1, max_size)))


def _seq_atoms(s):
    if isinstance(s, imp.SeqS):
        yield from _seq_atoms(s.first)
        yield from _seq_atoms(s.second)
    else:
        yield s


def _reseq(s):
    # the concrete syntax has no statement grouping, so only left-nested
    # sequences survive a print/parse round trip; canonicalise to that
    match s:
        case imp.SeqS():
            parts = [_reseq(p) for p in _seq_atoms(s)]
            out = parts[0]
            for p in parts[1:]:
                out = imp.SeqS(out, p)
            return out
        case imp.If(g, b):
            return imp.If(g, _reseq(b))
        case imp.While(g, b):
            return imp.While(g, _reseq(b))
    return s


def gen_imp_config(rng: random.Random, max_size: int = 12) -> imp.ImpConfig:
    st = {"x": rng.randint(0, 3), "y": rng.randint(0, 3)}
    return imp.config(gen_stmt(rng, max_size), st)


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
    return enumerate_exprs(min(cfg.max_size, 7), cfg.effect_labels)


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
        sub = GenConfig(seed, cfg.max_size, cfg.effect_labels, cfg.target_type)
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


### mismatches: None when the engines agree, else (expected, actual)


def _stop_multi_mismatch(e, b):
    m = multi_step(e, b)
    try:
        s = bigstop_eval(e, b)
    except StuckError as err:
        return (f"{print_expr(m.final)} | {format_trace(m.trace)}",
                f"stuck: {err}")
    if s.stopped == m.final and s.trace == m.trace:
        return None
    return (f"{print_expr(m.final)} | {format_trace(m.trace)}",
            f"{print_expr(s.stopped)} | {format_trace(s.trace)}")


def _three_way_mismatch(e, fuel):
    m = multi_step(e, fuel)
    s = bigstop_eval(e, fuel)
    g = big_step(e, fuel)
    msummary = f"{m.status.value}: {print_expr(m.final)} | {format_trace(m.trace)}"
    if s.stopped != m.final or s.trace != m.trace:
        return (msummary, f"bigstop: {print_expr(s.stopped)} | {format_trace(s.trace)}")
    match g:
        case Value(v, tr):
            if m.status != RunStatus.REACHED_VALUE or v != m.final or tr != m.trace:
                return (msummary, f"bigstep: Value {print_expr(v)} | {format_trace(tr)}")
        case FuelExhausted():
            if m.status != RunStatus.OUT_OF_BUDGET:
                return (msummary, "bigstep: FuelExhausted")
        case Stuck(at):
            if m.status != RunStatus.STUCK:
                return (msummary, f"bigstep: Stuck at {print_expr(at)}")
    return None


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


_CONVERGENCE_FUEL = 64


def _terminating_pool(cfg):
    for e in _enum_pool(cfg):
        if multi_step(e, _CONVERGENCE_FUEL).status == RunStatus.REACHED_VALUE:
            yield e
    for _, t in corpus():
        if isinstance(t, Expr) and multi_step(t, _CONVERGENCE_FUEL).status == RunStatus.REACHED_VALUE:
            yield t


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


def _annihilator_mismatch(e, max_budget):
    # a is reachable by multi-step  <=>  a0 (or a full converged a) is the
    # trace of some annihilator run; both sides swept over the same budgets
    lhs = set()
    for b in range(max_budget + 1):
        _, t = annihilator_eval(e, b)
        lhs.add(t.prefix)
    rhs = {multi_step(e, b).trace for b in range(max_budget + 1)}
    if lhs == rhs:
        return None
    def fmt(ts):
        return "{" + ", ".join(sorted(format_trace(t) for t in ts)) + "}"
    return (f"multi prefixes {fmt(rhs)}", f"annihilator traces {fmt(lhs)}")


def _ec_mismatch(e, b):
    m = multi_step(e, b)
    s = ec_bigstop_eval(e, b)
    if s.stopped == m.final and s.trace == m.trace:
        return None
    return (f"{print_expr(m.final)} | {format_trace(m.trace)}",
            f"{print_expr(s.stopped)} | {format_trace(s.trace)}")


def _mnf_mismatch(e, fuel):
    m = to_mnf(e)
    if not alpha_eq(let_erase(m), e):
        return ("let-erasure inverts the translation", print_expr(let_erase(m)))
    direct = multi_step(e, fuel)
    if direct.status == RunStatus.REACHED_VALUE:
        # enough extra budget to pay for every let it could ever bind
        wide = (fuel + 1) * (expr_size(m) + 2)
        via = mnf_multi_step(m, wide)
        if via.status != RunStatus.REACHED_VALUE:
            return (f"convergence like the direct engine ({direct.status.value})",
                    f"translated run: {via.status.value}")
        if not alpha_eq(let_erase(via.final), direct.final):
            return (print_expr(direct.final), print_expr(let_erase(via.final)))
        if via.trace != direct.trace:
            return (format_trace(direct.trace), format_trace(via.trace))
    else:
        via = mnf_multi_step(m, fuel)
        if via.status == RunStatus.REACHED_VALUE:
            return (f"no value within {fuel} (direct engine ran out)",
                    f"translated run finished: {print_expr(via.final)}")
        a, b = direct.trace, via.trace
        if a[: len(b)] != b and b[: len(a)] != a:
            return (f"trace prefix agreement with {format_trace(a)}", format_trace(b))
    return None


def _shrink_config(c, still_fails):
    small = shrink_stmt(c.stmt, lambda s: still_fails(imp.ImpConfig(s, c.state)))
    return imp.ImpConfig(small, c.state)


def _imp_stop_multi_mismatch(c, b):
    m = imp.imp_multi_step(c, b)
    s = imp.imp_bigstop(c, b)
    if s == m.config:
        return None
    return (imp.print_config(m.config), imp.print_config(s))


def _imp_freeze_mismatch(c, b):
    m = imp.imp_multi_step(c, b)
    fz = imp.imp_bigstop_freeze(c, b)
    want_frozen = m.status == imp.ImpStatus.OUT_OF_BUDGET
    if fz.state == m.config.state and fz.frozen == want_frozen:
        return None
    return (
        f"{imp.print_state(m.config.state)} frozen={want_frozen}",
        f"{imp.print_state(fz.state)} frozen={fz.frozen}",
    )


# name -> (cfg, trials, max_budget) -> (cases, mismatch, shrinker or None);
# trials counts generated terms or programs, not cases
_SUITES = {
    "stop-multi": lambda cfg, trials, mb: (
        _enum_cases(cfg, range(mb + 1)), _stop_multi_mismatch, shrink_expr),
    "stop-step-big": lambda cfg, trials, mb: (
        _gen_cases(cfg, trials or 2000, mb), _three_way_mismatch, shrink_expr),
    "progress-preservation": lambda cfg, trials, mb: (
        _gen_cases(cfg, trials or 2000, mb), _progress_violation, None),
    "derivation-integrity": lambda cfg, trials, mb: (
        itertools.chain(_enum_cases(cfg, range(mb + 1)), _gen_cases(cfg, trials or 500, mb)),
        _derivation_violation, None),
    "kmachine-convergent": lambda cfg, trials, mb: (
        ((e, _CONVERGENCE_FUEL) for e in _terminating_pool(cfg)), _kmachine_mismatch, shrink_expr),
    "kmachine-divergent": lambda cfg, trials, mb: (
        ((e, _CONVERGENCE_FUEL) for e in _divergers()), _kmachine_mismatch, None),
    "annihilator": lambda cfg, trials, mb: (
        _enum_cases(cfg, (mb,)), _annihilator_mismatch, shrink_expr),
    "ec": lambda cfg, trials, mb: (
        _enum_cases(cfg, range(mb + 1)), _ec_mismatch, shrink_expr),
    "mnf": lambda cfg, trials, mb: (
        _gen_cases(cfg, trials or 2000, mb), _mnf_mismatch, None),
    "imp-stop-multi": lambda cfg, trials, mb: (
        _imp_cases(cfg, trials or 2000, mb), _imp_stop_multi_mismatch, _shrink_config),
    "imp-freeze": lambda cfg, trials, mb: (
        _imp_cases(cfg, trials or 2000, mb), _imp_freeze_mismatch, _shrink_config),
}


def suite_names():
    return tuple(sorted(_SUITES))
