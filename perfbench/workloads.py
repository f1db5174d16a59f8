"""The benchmark's four workloads and the comparators that judge them.

A verdict is one (program, budget) pair that every engine of the workload
has evaluated, compared against a reference: another engine where the
package has several, a closed-form answer for the pinned programs.  A
verdict returns the list of problems it found; an empty list is a pass.

Workload code reaches the package only through an Api namespace (see
make_api), so that a traced run can put a span around every call without
the workloads knowing.  Importing this module imports bigstop, so the
caller puts the package on sys.path first.
"""

import gc
import importlib
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

from bigstop import (
    App,
    Eff,
    GenConfig,
    GenerationExhausted,
    ImpStatus,
    KStatus,
    RunStatus,
    Value,
    compile as k_compile,
    config as imp_config,
    format_trace,
    numeral,
    print_expr,
)
from bigstop.bigstep import FuelExhausted
from bigstop.imp import ImpDone, ImpFuelExhausted

# Every public function a workload calls, by the package module (layer) that
# defines it.  A traced run records one span per call of each.
TRACED = {
    "harness": ("enumerate_exprs", "enumerate_stmts", "gen_typed_expr", "gen_imp_config"),
    "syntax": ("parse_expr", "alpha_eq", "expr_size", "is_value"),
    "typecheck": ("principal_type", "types_unifiable"),
    "smallstep": ("multi_step", "small_step", "step_trace"),
    "bigstep": ("big_step",),
    "bigstop": (
        "bigstop_eval", "check_derivation", "ec_bigstop_eval", "annihilator_eval",
        "is_progressing", "derivation_to_json_str", "derivation_from_json",
    ),
    "mnf": ("to_mnf", "let_erase", "mnf_multi_step", "mnf_bigstop_eval"),
    "kmachine": ("k_run", "unwind"),
    "imp": ("imp_multi_step", "imp_bigstop", "imp_bigstop_freeze", "imp_bigstep"),
}

# the enumerators are generators: materialise them so the span covers the work
_GENERATORS = ("enumerate_exprs", "enumerate_stmts")


def _listed(fn):
    return lambda *args, **kwargs: list(fn(*args, **kwargs))


def _count_contractions(counts, r):
    counts["smallstep.multi_step.contractions"] += r.steps


def _count_transitions(counts, r):
    counts["kmachine.k_run.transitions"] += r.steps


def _count_imp_steps(counts, r):
    counts["imp.imp_multi_step.steps"] += r.steps


def _count_json_bytes(counts, s):
    counts["bigstop.json.bytes"] += len(s)  # json.dumps escapes to ASCII


def _count_derivation(counts, r):
    nodes = labels = depth = 0
    todo = [(r.derivation, 1)]
    while todo:
        d, k = todo.pop()
        nodes += 1
        labels += len(d.trace)
        depth = max(depth, k)
        todo.extend((p, k + 1) for p in d.premises)
    counts["bigstop.derivation.nodes"] += nodes
    counts["bigstop.derivation.trace_labels"] += labels
    counts["bigstop.derivation.depth"] = max(counts["bigstop.derivation.depth"], depth)


_WORK_COUNTS = {
    "multi_step": _count_contractions,
    "k_run": _count_transitions,
    "imp_multi_step": _count_imp_steps,
    "derivation_to_json_str": _count_json_bytes,
    "bigstop_eval": _count_derivation,
}


def make_api(tracer=None):
    """A namespace holding every function in TRACED, plus count(name, n)
    for work counts the workload knows and a call result does not.  With a
    tracer each function records spans and work counts; without one the
    functions are the package's own and count() does nothing."""
    ns = {}
    for layer, names in TRACED.items():
        module = importlib.import_module(f"bigstop.{layer}")
        for name in names:
            fn = getattr(module, name)
            if name in _GENERATORS:
                fn = _listed(fn)
            if tracer is not None:
                fn = tracer.wrap(f"{layer}.{name}", fn, _WORK_COUNTS.get(name))
            ns[name] = fn
    if tracer is None:
        ns["count"] = lambda name, n: None
    else:
        def count(name, n):
            tracer.counts[name] += n
        ns["count"] = count
    return SimpleNamespace(**ns)


### comparators


def _short(text: str, limit: int = 120) -> str:
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} chars)"


def agree(name, want_term, want_trace, term, trace):
    """[] when (term, trace) is the reference answer, else one problem."""
    if term != want_term:
        return [f"{name}: ended at {_short(print_expr(term))}, "
                f"expected {_short(print_expr(want_term))}"]
    if trace != want_trace:
        return [f"{name}: emitted {_short(format_trace(trace))}, "
                f"expected {_short(format_trace(want_trace))}"]
    return []


def judge_stop(api, name, term, want_term, want_trace, got, dialect="plain"):
    """A big-stop result against the reference answer.  Its derivation
    must start at the input, conclude what the result claims, and pass
    check_derivation in its dialect."""
    bad = agree(name, want_term, want_trace, got.stopped, got.trace)
    d = got.derivation
    if d.lhs != term or d.rhs != got.stopped or d.trace != got.trace:
        bad.append(f"{name}: the derivation does not conclude the result")
    v = api.check_derivation(d, dialect)
    if v is not None:
        bad.append(f"{name}: derivation rejected {v}")
    return bad


def judge_machine(r, want_status, want_term, want_trace, unwound):
    """A k_run result: its status, the unwound term and the trace."""
    if r.status is not want_status:
        return [f"k_run: status {r.status.value}, expected {want_status.value}"]
    return agree("k_run", want_term, want_trace, unwound, r.trace)


def judge_big_step(g, m):
    """big_step against the multi-step run at the same budget."""
    match g:
        case Value(v, tr):
            if m.status is not RunStatus.REACHED_VALUE:
                return [f"big_step: a value where multi_step is {m.status.value}"]
            return agree("big_step", m.final, m.trace, v, tr)
        case FuelExhausted():
            if m.status is not RunStatus.OUT_OF_BUDGET:
                return [f"big_step: out of fuel where multi_step is {m.status.value}"]
        case _:
            if m.status is not RunStatus.STUCK:
                return [f"big_step: stuck where multi_step is {m.status.value}"]
    return []


### enum-sweep: the size-7 enumeration at budgets 0-10

BUDGETS = range(11)
ENUM_SIZE = 7
MACHINE_FUEL = 4096  # transitions; enough for any size-7 term that ends in 10 steps


def pairs(programs, n):
    """The first n (program, budget) pairs, every budget of each program in
    turn.  The collector is paused while the list is built: the list is the
    benchmark's own, and building it would otherwise set off collections of
    the whole input pool, a cost of the benchmark and a noisy one."""
    k = math.ceil(n / len(BUDGETS))
    programs = (programs * math.ceil(k / len(programs)))[:k]
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [(p, b) for p in programs for b in BUDGETS][:n]
    finally:
        if enabled:
            gc.enable()


def enum_setup(api, seed, n):
    pool = api.enumerate_exprs(ENUM_SIZE)
    return pairs(random.Random(seed).sample(pool, len(pool)), n)


def enum_verdict(api, item):
    e, b = item
    m = api.multi_step(e, b)
    bad = judge_stop(api, "bigstop_eval", e, m.final, m.trace, api.bigstop_eval(e, b))
    ec = api.ec_bigstop_eval(e, b)
    bad += agree("ec_bigstop_eval", m.final, m.trace, ec.stopped, ec.trace)
    _, cut = api.annihilator_eval(e, b)
    if cut.prefix != m.trace:
        bad.append(f"annihilator_eval: emitted {format_trace(cut.prefix)}, "
                   f"expected {format_trace(m.trace)}")
    if m.status is RunStatus.REACHED_VALUE:
        r = api.k_run(k_compile(e), MACHINE_FUEL)
        api.count("kmachine.contractions", m.steps)
        bad += judge_machine(r, KStatus.FINAL, m.final, m.trace, r.state.expr)
    return bad


### gen-pool: generated typed terms at fuel 64

FUEL = 64
GEN_SIZE = 25
# The pool is the stream the harness's suites draw by default (GenConfig
# seeds 0, 1, ...), and a run judges all of it; the seed sets the order.  A
# fresh pool per seed would make the tail a property of the draw: the cost
# per term is heavy-tailed (the slowest 1% of terms take a quarter of the
# time), and with fresh pools p99 moved from 55 to 86 ms across five seeds.
GEN_POOL = 2000


def gen_setup(api, seed, n):
    pool = []
    s = 0
    while len(pool) < GEN_POOL:
        try:
            pool.append(api.gen_typed_expr(GenConfig(seed=s, max_size=GEN_SIZE)))
        except GenerationExhausted:
            pass
        s += 1
    order = random.Random(seed).sample(pool, len(pool))
    return (order * math.ceil(n / len(order)))[:n]


def gen_verdict(api, e):
    m = api.multi_step(e, FUEL)
    bad = judge_stop(api, "bigstop_eval", e, m.final, m.trace, api.bigstop_eval(e, FUEL))
    bad += judge_big_step(api.big_step(e, FUEL), m)
    m1 = api.multi_step(e, 1)
    s1 = api.bigstop_eval(e, 1)
    bad += judge_stop(api, "bigstop_eval at 1", e, m1.final, m1.trace, s1)
    if not api.is_value(e) and not api.is_progressing(s1.derivation):
        bad.append("bigstop_eval at 1: no progress on a non-value")
    bad += progress_problems(api, e)
    bad += mnf_problems(api, e, m)
    return bad


def progress_problems(api, e):
    """Progress and preservation at every point of the step trajectory."""
    ty0 = api.principal_type(e)
    for i, mid in enumerate(api.step_trace(e, FUEL)):
        if not api.is_value(mid) and api.small_step(mid) is None:
            return [f"progress: no step at index {i}"]
        if not api.types_unifiable(ty0, api.principal_type(mid)):
            return [f"preservation: index {i} lost the type"]
    return []


def mnf_problems(api, e, m):
    """The MNF translation: let-erasure inverts it, and its two engines
    agree with each other and with the direct run m at fuel 64."""
    mn = api.to_mnf(e)
    if not api.alpha_eq(api.let_erase(mn), e):
        return ["to_mnf: let_erase does not invert the translation"]
    if m.status is RunStatus.REACHED_VALUE:
        # enough extra budget to pay for every let it could ever bind
        budget = (FUEL + 1) * (api.expr_size(mn) + 2)
        via = api.mnf_multi_step(mn, budget)
        if via.status is not RunStatus.REACHED_VALUE:
            return [f"mnf_multi_step: {via.status.value} where the direct run ends"]
        if not api.alpha_eq(api.let_erase(via.final), m.final) or via.trace != m.trace:
            return ["mnf_multi_step: a different value or trace than the direct run"]
    else:
        budget = FUEL
        via = api.mnf_multi_step(mn, budget)
        if via.status is RunStatus.REACHED_VALUE:
            return ["mnf_multi_step: ends where the direct run does not"]
        a, b = m.trace, via.trace
        if a[: len(b)] != b and b[: len(a)] != a:
            return ["mnf_multi_step: the traces disagree on a common prefix"]
    return judge_stop(api, "mnf_bigstop_eval", mn, via.final, via.trace,
                      api.mnf_bigstop_eval(mn, budget), dialect="mnf")


### imp-sweep: the imperative gate's pool at budgets 0-10

STMT_SIZE = 6
GENERATED = 2000


def imp_setup(api, seed, n):
    """The pool of the acceptance gate and the imp suites: every statement
    of the size-6 enumeration from x=2, y=0, plus GENERATED programs of
    gen_imp_config, here from a Random seeded by the run's seed.  The run
    draws its programs from a seeded shuffle of that pool, so generated
    programs are as rare as in the gate (about 3%) and no program repeats
    before the pool is used up."""
    rng = random.Random(seed)
    pool = [imp_config(s, {"x": 2, "y": 0}) for s in api.enumerate_stmts(STMT_SIZE)]
    pool += [api.gen_imp_config(rng) for _ in range(GENERATED)]
    return pairs(rng.sample(pool, len(pool)), n)


def imp_verdict(api, item):
    c, b = item
    m = api.imp_multi_step(c, b)
    bad = []
    if api.imp_bigstop(c, b) != m.config:
        bad.append("imp_bigstop: a different configuration than imp_multi_step")
    f = api.imp_bigstop_freeze(c, b)
    if f.state != m.config.state or f.frozen != (m.status is ImpStatus.OUT_OF_BUDGET):
        bad.append("imp_bigstop_freeze: a different store or freeze flag")
    done = m.status is ImpStatus.REACHED_SKIP
    if api.imp_bigstep(c, b) != (ImpDone(m.config.state) if done else ImpFuelExhausted()):
        bad.append("imp_bigstep: a different outcome than imp_multi_step")
    return bad


### long-run: pinned programs on a budget ladder


@dataclass(frozen=True)
class Pinned:
    """A program at a budget with its answer worked out by hand, so the
    engines are checked against something none of them computed.  A
    program that loops forever has `final` as the loop's entry; one turn
    of the loop is a beta then an eff that emits the trace's label."""
    program: str
    base: int  # the ladder's rung; budget is the base moved by the seed
    budget: int
    term: object
    final: object
    trace: tuple
    terminates: bool
    machine_fuel: int  # in k_run's own unit (transitions at the seed)
    json: bool = False


OMEGA = "(fun f(x) => eff[t] f x) z"
COUNTDOWN = "fun f(x) => case x { z => z | s(m) => eff[t] f m }"
ALLOC = "fun f(x) => case x { z => z | s(y) => (fun g(w) => eff[alloc] g w) z }"
ALLOC_LOOP = "(fun g(w) => eff[alloc] g w) z"

# (program, base budgets) per pass; countdown's are numerals.  The omega-json
# rungs run omega and add the JSON round trip, on a ladder of their own
# because the encoding grows with the cube of the budget (see NOTES.md).
# Countdown stops at 300: at 400 the machine alone took 4 s per pass.
LADDER = (
    ("omega", (1000, 2000, 4000, 8000)),
    ("countdown", (100, 200, 300)),
    ("alloc", (1000, 2000, 4000)),
    ("omega-json", (50, 100, 200, 400)),
)
JITTER = 0.01  # the seed moves each rung by about 1%


def _pinned(api, program, n, base=None):
    """The pinned answer of a program at size n: the budget for omega and
    alloc, the numeral for countdown."""
    base = n if base is None else base
    if program in ("omega", "omega-json"):
        # one loop turn per two contractions; at the seed the machine
        # spends six transitions per turn
        om = api.parse_expr(OMEGA)
        return Pinned(program, base, n, om, om, ("t",) * (n // 2), False, 3 * n,
                      json=program == "omega-json")
    if program == "countdown":
        # per numeral: beta, case, eff; then a last beta and case-z
        term = App(api.parse_expr(COUNTDOWN), numeral(n))
        return Pinned(program, base, 3 * n + 2, term, numeral(0), ("t",) * n, True,
                      3 * (n + 2) ** 2 + 64)
    if program == "alloc":
        # a beta and a case-s reach the allocation loop
        term = App(api.parse_expr(ALLOC), numeral(1))
        return Pinned(program, base, n, term, api.parse_expr(ALLOC_LOOP),
                      ("alloc",) * ((n - 2) // 2), False, 3 * n + 6)
    raise ValueError(f"no pinned answer for {program!r}")


def long_setup(api, seed, n):
    """Passes over the ladder, each in its own order.  Every rung gets a
    different size in every pass, so no (program, budget) pair is judged
    twice in a run and a cache of answers cannot pass for a speed-up."""
    rng = random.Random(seed)
    rungs = sum(len(bases) for _, bases in LADDER)
    passes = max(1, round(n / rungs))
    sizes = {}
    for program, bases in LADDER:
        # the closed forms above assume an even budget
        step = 1 if program == "countdown" else 2
        for base in bases:
            reach = max(math.ceil(passes / 2), round(base * JITTER / step))
            sizes[program, base] = rng.sample(
                [base + step * k for k in range(-reach, reach + 1)], passes)
    items = []
    for i in range(passes):
        order = rng.sample(sorted(sizes), len(sizes))
        items += [_pinned(api, prog, sizes[prog, base][i], base) for prog, base in order]
    return items


def long_verdict(api, p):
    m = api.multi_step(p.term, p.budget)
    bad = agree("multi_step", p.final, p.trace, m.final, m.trace)
    if m.steps != p.budget or (m.status is RunStatus.REACHED_VALUE) != p.terminates:
        bad.append(f"multi_step: {m.status.value} after {m.steps} contractions")
    s = api.bigstop_eval(p.term, p.budget)
    bad += judge_stop(api, "bigstop_eval", p.term, p.final, p.trace, s)
    ec = api.ec_bigstop_eval(p.term, p.budget)
    bad += agree("ec_bigstop_eval", p.final, p.trace, ec.stopped, ec.trace)
    end, cut = api.annihilator_eval(p.term, p.budget)
    if cut.prefix != p.trace or cut.annihilated == p.terminates:
        bad.append(f"annihilator_eval: emitted {_short(str(cut))}")
    if p.terminates and end != p.final:
        bad.append(f"annihilator_eval: ended at {_short(print_expr(end))}")
    bad += judge_big_step(api.big_step(p.term, p.budget), m)
    r = api.k_run(k_compile(p.term), p.machine_fuel)
    if p.terminates:
        api.count("kmachine.contractions", p.budget)
        bad += judge_machine(r, KStatus.FINAL, p.final, p.trace, api.unwind(r.state))
    else:
        bad += judge_looping_machine(api, p, r)
    if p.json:
        back = api.derivation_from_json(api.derivation_to_json_str(s.derivation))
        if back != s.derivation:
            bad.append("derivation JSON: the round trip changed the derivation")
        v = api.check_derivation(back)
        if v is not None:
            bad.append(f"derivation JSON: the decoded derivation is rejected {v}")
    return bad


def judge_looping_machine(api, p, r):
    """k_run on a program that loops forever.  Whatever unit k_run counts
    its budget in, the machine must run out of it on the loop: at the
    loop's entry or one beta past it, with one label per turn so far."""
    label = p.trace[0]
    turns = len(r.trace)
    if r.status is not KStatus.OUT_OF_BUDGET:
        return [f"k_run: status {r.status.value}, expected {KStatus.OUT_OF_BUDGET.value}"]
    if turns == 0 or r.trace != (label,) * turns:
        return [f"k_run: emitted {_short(format_trace(r.trace))}, expected {label} repeated"]
    here = api.unwind(r.state)
    lead = p.budget - 2 * len(p.trace)  # contractions before the loop
    if here == p.final:
        api.count("kmachine.contractions", lead + 2 * turns)
    elif here == Eff(label, p.final):
        api.count("kmachine.contractions", lead + 2 * turns + 1)
    else:
        return [f"k_run: stopped off the loop at {_short(print_expr(here))}"]
    return []


def long_tag(p):
    return p.program, p.budget


def long_group(p):
    return p.program, p.base


### the table


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float  # verdicts per --seconds; fixes a run's size (see NOTES.md)
    setup: object  # (api, seed, n) -> the n verdict inputs
    verdict: object  # (api, input) -> list of problems
    tag: object = None  # input -> (program, budget), for the scaling fits
    group: object = None  # input -> key; inputs of one key count once in p50 and tail


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enum-sweep", 6500.0, enum_setup, enum_verdict),
        Workload("long-run", 1.4, long_setup, long_verdict, long_tag, long_group),
        Workload("gen-pool", 100.0, gen_setup, gen_verdict),
        Workload("imp-sweep", 10000.0, imp_setup, imp_verdict),
    )
}
