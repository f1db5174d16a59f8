"""The acceptance gate: every guarantee the package makes, checked at full
scale in one file.  Each test is one guarantee; run with -v to get one
pass/fail line per guarantee.  Slow by design — this is the gate, not the
development loop."""

import dataclasses
import time

import pytest

from bigstop import (
    App,
    Derivation,
    FuelExhausted,
    GenConfig,
    GenerationExhausted,
    ImpDone,
    ImpFuelExhausted,
    ImpStatus,
    KStatus,
    RunStatus,
    Stuck,
    Succ,
    Value,
    Var,
    Zero,
    annihilator_derivation,
    annihilator_eval,
    big_step,
    bigstop_eval,
    check_derivation,
    compile,
    config,
    correspondence_check,
    corpus,
    corpus_term,
    ec_bigstop_eval,
    enumerate_exprs,
    enumerate_stmts,
    gen_typed_expr,
    imp_bigstep,
    imp_bigstop,
    imp_bigstop_freeze,
    imp_multi_step,
    is_progressing,
    is_value,
    k_run,
    let_erase,
    mnf_bigstop_eval,
    mnf_multi_step,
    multi_step,
    parse_expr,
    parse_stmt,
    principal_type,
    print_expr,
    small_step,
    step_trace,
    subst,
    to_mnf,
    types_unifiable,
)
from bigstop import alpha_eq, expr_size
from bigstop.harness import gen_imp_config
from bigstop.traces import Span, ann_join, format_trace
import random

BUDGETS = range(11)


@pytest.fixture(scope="module")
def enumeration():
    return list(enumerate_exprs(7))


@pytest.fixture(scope="module")
def generated():
    # 10,000 well-typed closed terms; trial i is rebuilt by seed i alone
    pool = []
    seed = 0
    while len(pool) < 10_000:
        try:
            pool.append(gen_typed_expr(GenConfig(seed=seed, max_size=25)))
        except GenerationExhausted:
            pass
        seed += 1
    return pool


def test_01_budget_runs_match_the_step_relation_on_enumeration(enumeration):
    started = time.monotonic()
    assert len(set(enumeration)) >= 500
    mismatches = 0
    for e in enumeration:
        for b in BUDGETS:
            m = multi_step(e, b)
            s = bigstop_eval(e, b)
            if s.stopped != m.final or s.trace != m.trace:
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_02_all_three_engines_agree_on_generated_terms(generated):
    fuel = 64
    for e in generated:
        m = multi_step(e, fuel)
        s = bigstop_eval(e, fuel)
        assert s.stopped == m.final, print_expr(e)
        assert s.trace == m.trace, print_expr(e)
        g = big_step(e, fuel)
        match g:
            case Value(v, tr):
                assert m.status is RunStatus.REACHED_VALUE, print_expr(e)
                assert v == m.final and tr == m.trace, print_expr(e)
            case FuelExhausted():
                assert m.status is RunStatus.OUT_OF_BUDGET, print_expr(e)
            case Stuck(at):
                assert m.status is RunStatus.STUCK, print_expr(at)


def test_03_progress_and_preservation_on_generated_terms(generated):
    for e in generated:
        ty0 = principal_type(e)
        trajectory = step_trace(e, 64)
        last = len(trajectory) - 1
        for i, mid in enumerate(trajectory):
            # step_trace has stepped every point but the last
            if i == last and not is_value(mid):
                assert small_step(mid) is not None, f"{print_expr(mid)} at {i}"
            assert types_unifiable(ty0, principal_type(mid)), (
                f"{print_expr(e)} lost its type at step {i}"
            )
        if not is_value(e):
            assert is_progressing(bigstop_eval(e, 1).derivation), print_expr(e)


def _leaf(src):
    e = parse_expr(src)
    return Derivation("St-Stop(0)", e, e, (), ())


def _twenty_mutations():
    mut = dataclasses.replace
    beta = bigstop_eval(parse_expr("(fun f(x) => s(x)) z"), 1).derivation
    effd = bigstop_eval(parse_expr("eff[a] z"), 2).derivation
    cases = bigstop_eval(
        parse_expr("case s(z) { z => z | s(n) => eff[hit] n }"), 3
    ).derivation
    casez = bigstop_eval(parse_expr("case z { z => s(z) | s(n) => n }"), 2).derivation
    lg = bigstop_eval(corpus_term("leroy-grall"), 1).derivation
    stop0 = bigstop_eval(parse_expr("(fun f(x) => x) z"), 0).derivation
    mnfd = mnf_bigstop_eval(
        parse_expr("let x = (fun f(y) => y) z in s(x)"), 2
    ).derivation
    ecd = ec_bigstop_eval(parse_expr("s((fun f(x) => x) z)"), 1).derivation
    annd = annihilator_derivation(parse_expr("eff[a] eff[b] z"), 1)
    return [
        ("app body premiss is not the substituted body", "plain",
         mut(beta, premises=beta.premises[:3] + (_leaf("s(s(z))"),),
             rhs=parse_expr("s(s(z))"))),
        ("app body premiss left unsubstituted", "plain",
         mut(beta, premises=beta.premises[:3]
             + (Derivation("St-Stop(0)", Succ(Var("x")), Succ(Var("x")), (), ()),),
             rhs=Succ(Var("x")))),
        ("app value premiss dropped", "plain",
         mut(beta, premises=(beta.premises[0], beta.premises[1], beta.premises[3]))),
        ("value premiss holds a redex", "plain",
         mut(beta, premises=(beta.premises[0], beta.premises[1],
             Derivation("Val", parse_expr("(fun f(x) => x) z"),
                        parse_expr("(fun f(x) => x) z"), (), ()),
             beta.premises[3]))),
        ("effect label dropped from the trace", "plain", mut(effd, trace=())),
        ("effect label doubled in the trace", "plain", mut(effd, trace=("a", "a"))),
        ("effect trace carries the wrong label", "plain", mut(effd, trace=("b",))),
        ("stop leaf emits a label", "plain", mut(stop0, trace=("a",))),
        ("case takes the zero branch on a successor", "plain",
         mut(cases, premises=(cases.premises[0], cases.premises[1], _leaf("z")),
             rhs=Zero(), trace=())),
        ("zero-case rule applied to a successor scrutinee", "plain",
         mut(casez, lhs=parse_expr("case s(z) { z => s(z) | s(n) => n }"))),
        ("stop leaf moves the term", "plain", mut(stop0, rhs=Zero())),
        ("two-position stop premisses swapped", "plain",
         mut(lg, premises=(lg.premises[2], lg.premises[1], lg.premises[0]))),
        ("stop arity beyond any constructor", "plain", mut(lg, rule="St-Stop(3)")),
        ("unknown rule name", "plain", mut(effd, rule="StE-Bogus")),
        ("let rule missing its value premiss", "mnf",
         mut(mnfd, premises=(mnfd.premises[0], mnfd.premises[2]))),
        ("let body premiss ignores the binding", "mnf",
         mut(mnfd, premises=(mnfd.premises[0], mnfd.premises[1], _leaf("z")),
             rhs=Zero())),
        ("context step on a redex the term does not contain", "ec",
         mut(ecd, premises=(mut(ecd.premises[0],
                                lhs=parse_expr("(fun f(x) => x) s(z)"),
                                rhs=parse_expr("s(z)")),
                            ecd.premises[1]))),
        ("context chain breaks the trace composition", "ec",
         mut(ecd, trace=("ghost",))),
        ("cut marker dropped after an annihilated premiss", "annihilator",
         mut(annd, trace=("a",))),
        ("labels retained past the cut", "annihilator",
         mut(annd, trace=("a", "b", "0"))),
    ]


def test_04_every_emitted_derivation_checks_and_forgeries_do_not(
    enumeration, generated
):
    for e in enumeration:
        for b in BUDGETS:
            assert check_derivation(bigstop_eval(e, b).derivation) is None, (
                f"{print_expr(e)} at {b}"
            )
    for e in generated:
        assert check_derivation(bigstop_eval(e, 64).derivation) is None, print_expr(e)
        assert check_derivation(bigstop_eval(e, 1).derivation) is None, print_expr(e)
    mutations = _twenty_mutations()
    assert len(mutations) == 20
    for name, dialect, d in mutations:
        assert check_derivation(d, dialect=dialect) is not None, name


def test_05_machine_agrees_with_the_tree_engines(enumeration):
    terminating = [
        e for e in enumeration
        if multi_step(e, 64).status is RunStatus.REACHED_VALUE
    ]
    for _, t in corpus():
        if hasattr(t, "stmt"):
            continue
        if multi_step(t, 64).status is RunStatus.REACHED_VALUE:
            terminating.append(t)
    assert len(terminating) > 500
    for e in terminating:
        s = bigstop_eval(e, 64)
        r = k_run(compile(e), 4096)
        assert r.status is KStatus.FINAL, print_expr(e)
        assert r.state.expr == s.stopped, print_expr(e)
        assert r.trace == s.trace, print_expr(e)
    divergers = [
        corpus_term("omega"),
        corpus_term("leroy-grall"),
        App(corpus_term("alloc-unbounded"), Succ(Zero())),
    ]
    # exactly, contraction by contraction, at every budget
    for e in divergers:
        for b in range(201):
            r = correspondence_check(e, b)
            assert r.ok, f"{print_expr(e)} at {b}: {r.detail}"


def test_06_annihilator_runs_reach_exactly_the_step_trajectories(enumeration):
    # a trace is emitted by some cut-off run  <=>  it labels some finite
    # prefix of the step relation, sweeping both sides over the same budgets
    for e in enumeration:
        cut = {annihilator_eval(e, b)[1].prefix for b in BUDGETS}
        walked = {multi_step(e, b).trace for b in BUDGETS}
        assert cut == walked, print_expr(e)
    # absorption: everything after the cut marker collapses into it, on
    # tuples and on spans of a run's log
    before, after = ("a", "b", "c", "0"), ("d", "e", "f")
    assert ann_join(before, after) == before
    assert format_trace(ann_join(before, after)) == "a·b·c·0"
    log = [*before, *after]
    assert ann_join(Span(log, 0, 4), Span(log, 4, 7)) == before


def test_07_reference_programs_hit_their_pinned_answers():
    lg = corpus_term("leroy-grall")
    for b in range(17):
        r = bigstop_eval(lg, b)
        assert r.stopped == lg
        assert r.trace == ()

    fil = corpus_term("filinski")
    r = bigstop_eval(fil, 1)
    assert r.trace == ()
    assert r.stopped == parse_expr(
        "fun _(y) => (fun f(x) => fun _(y) => f x y) z y"
    )

    spin = App(corpus_term("alloc-unbounded"), parse_expr("s(z)"))
    for n in range(17):
        assert bigstop_eval(spin, 2 + 2 * n).trace == ("alloc",) * n

    bounded = corpus_term("alloc-bounded")
    for src in ("z", "s(z)", "s(s(z))"):
        arg = parse_expr(src)
        body = subst(bounded.body, {bounded.self_var: bounded, bounded.param: arg})
        for b in range(1, 25):
            # the applied function performs its one allocation immediately
            assert bigstop_eval(body, b).trace.count("alloc") == 1, (src, b)
        raw = App(bounded, arg)
        for b in range(25):
            # through the raw application the beta comes first
            n = bigstop_eval(raw, b).trace.count("alloc")
            assert n == (1 if b >= 2 else 0), (src, b)


def test_08_imperative_budget_runs_match_their_step_relation():
    countdown = config(parse_stmt("while x do { x := x - 1 }"), {"x": 2})
    done = imp_multi_step(countdown, 64)
    assert done.status is ImpStatus.REACHED_SKIP
    assert done.steps == 7
    assert done.config.state == (("x", 0),)

    pool = [config(s, {"x": 2, "y": 0}) for s in enumerate_stmts(6)]
    rng = random.Random(0)
    pool += [gen_imp_config(rng) for _ in range(2000)]
    assert len(pool) >= 60_000
    for c in pool:
        for b in BUDGETS:
            m = imp_multi_step(c, b)
            assert imp_bigstop(c, b) == m.config
            f = imp_bigstop_freeze(c, b)
            assert f.state == m.config.state
            assert f.frozen == (m.status is ImpStatus.OUT_OF_BUDGET)
            done = m.status is ImpStatus.REACHED_SKIP
            assert imp_bigstep(c, b) == (ImpDone(m.config.state) if done else ImpFuelExhausted())


def test_09_translation_dialects_preserve_behaviour(enumeration, generated):
    fuel = 64
    for e in generated[:2000]:
        m = to_mnf(e)
        assert alpha_eq(let_erase(m), e), print_expr(e)
        direct = multi_step(e, fuel)
        if direct.status is RunStatus.REACHED_VALUE:
            wide = (fuel + 1) * (expr_size(m) + 2)
            via = mnf_multi_step(m, wide)
            assert via.status is RunStatus.REACHED_VALUE, print_expr(e)
            assert alpha_eq(let_erase(via.final), direct.final), print_expr(e)
            assert via.trace == direct.trace, print_expr(e)
        else:
            via = mnf_multi_step(m, fuel)
            assert via.status is not RunStatus.REACHED_VALUE, print_expr(e)
            a, b = direct.trace, via.trace
            assert a[: len(b)] == b or b[: len(a)] == a, print_expr(e)
    for e in enumeration:
        for b in BUDGETS:
            m = multi_step(e, b)
            s = ec_bigstop_eval(e, b)
            assert s.stopped == m.final, f"{print_expr(e)} at {b}"
            assert s.trace == m.trace, f"{print_expr(e)} at {b}"
