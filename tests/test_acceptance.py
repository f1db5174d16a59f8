"""The acceptance gate: every guarantee the package makes, checked at full
scale in one file.  Each test is one guarantee; run with -v to get one
pass/fail line per guarantee.  Where a property suite states a guarantee,
the test runs that suite at the gate's scale and pins how many cases it
checked, so each comparison is written once, in bigstop.harness; what
stays here is hand-made: forged derivations, the absorption law and pinned
answers.  Slow by design — this is the gate, not the development loop."""

import dataclasses
import time

from bigstop import (
    App,
    Derivation,
    ImpStatus,
    Succ,
    Var,
    Zero,
    annihilator_derivation,
    bigstop_eval,
    check_derivation,
    config,
    corpus_term,
    ec_bigstop_eval,
    imp_multi_step,
    mnf_bigstop_eval,
    parse_expr,
    parse_stmt,
    run_property_suite,
    subst,
)
from bigstop.traces import Span, ann_join, format_trace


def holds(suite, cases, **scale):
    """Run one suite at the fuzz defaults (seed 0, enumerated terms up to 7
    nodes, generated terms up to 25, budgets 0-10, fuel 64) changed by
    scale: every case passes, and exactly `cases` cases ran."""
    rep = run_property_suite(suite, **scale)
    assert rep.ok, rep.to_text()
    assert rep.trials == cases, rep.to_text()


def test_01_budget_runs_match_the_step_relation_on_enumeration():
    # 16,014 terms at budgets 0-10
    started = time.monotonic()
    holds("stop-multi", 176_154)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_02_all_three_engines_agree_on_generated_terms():
    holds("stop-step-big", 10_000, trials=10_000)


def test_03_progress_and_preservation_on_generated_terms():
    holds("progress-preservation", 10_000, trials=10_000)


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


def test_04_every_emitted_derivation_checks_and_forgeries_do_not():
    # the enumeration at budgets 0-10, and 10,000 generated terms at fuel 64
    # and at budget 1
    holds("derivation-integrity", 196_154, trials=10_000)
    mutations = _twenty_mutations()
    assert len(mutations) == 20
    for name, dialect, d in mutations:
        assert check_derivation(d, dialect=dialect) is not None, name


def test_05_machine_agrees_with_the_tree_engines():
    # every enumerated or corpus term at fuel 64, and the three divergent
    # reference programs at every budget up to 200: the machine walked one
    # k_run transition at a time agrees exactly, contraction by contraction,
    # and k_run given all those moves in one call ends in the same state
    # (16,019 terms and 603 divergent cases)
    holds("kmachine", 16_622, max_budget=200)


def test_06_annihilator_runs_reach_exactly_the_step_trajectories():
    # 16,014 terms at budgets 0-10, one case each: the annihilator emits
    # the step relation's labels, is cut exactly when that reached no
    # value, and otherwise reaches the same value
    holds("annihilator", 176_154)
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
    # 60,662 enumerated and 2,000 generated programs at budgets 0-10:
    # big-stop, big-step and freeze against one multi-step run each
    holds("imp", 689_282, trials=2_000)


def test_09_translation_dialects_preserve_behaviour():
    holds("mnf", 2_000, trials=2_000)
    holds("ec", 176_154)
