"""Budgeted evaluator: derivation shapes, the checker, big-step trees, composition,
and the two alternate dialects (annihilator traces, context-threading)."""

import contextlib
import dataclasses
import gc
import io
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

import bigstop.bigstop
from bigstop import (
    AnnTrace,
    App,
    ArrowT,
    Case,
    ComposeMismatch,
    Derivation,
    DerivationFormatError,
    KStatus,
    Lam,
    RunStatus,
    Stuck,
    StuckError,
    Succ,
    TypeFailure,
    Value,
    Var,
    Zero,
    annihilator_derivation,
    annihilator_eval,
    big_step,
    bigstop_eval,
    check_derivation,
    compile as k_compile,
    compose,
    corpus_term,
    derivation_from_json,
    derivation_to_json,
    derivation_to_json_str,
    ec_bigstop_eval,
    enumerate_exprs,
    infer_type,
    is_progressing,
    is_value,
    k_run,
    mnf_bigstop_eval,
    mnf_multi_step,
    multi_step,
    numeral,
    parse_expr,
    print_expr,
    to_mnf,
)
from bigstop.syntax import rebuild, scoped_children
from bigstop.traces import Span
from test_acceptance import _twenty_mutations
from test_typecheck import _default_gen_pool


def mut(d, **kw):
    return dataclasses.replace(d, **kw)


### evaluator basics

def test_budget_zero_stops_in_place():
    e = parse_expr("(fun f(x) => x) z")
    r = bigstop_eval(e, 0)
    assert r.stopped == e
    assert r.trace == ()
    assert r.derivation.rule == "St-Stop(0)"
    assert not is_progressing(r.derivation)


def test_value_stops_as_itself_at_any_budget():
    v = parse_expr("s(z)")
    for budget in (0, 1, 5):
        d = bigstop_eval(v, budget).derivation
        assert d.rule == "St-Stop(0)"
        assert d.premises == ()
        assert d.rhs == v


def test_beta_consumes_one_unit():
    e = parse_expr("(fun f(x) => s(x)) z")
    r = bigstop_eval(e, 1)
    assert r.stopped == parse_expr("s(z)")
    d = r.derivation
    assert d.rule == "StE-App"
    # fn, arg, value-side condition, then the contracted body
    assert [p.rule for p in d.premises] == [
        "St-Stop(0)", "St-Stop(0)", "Val", "St-Stop(0)",
    ]


def test_effects_land_in_the_trace_in_order():
    r = bigstop_eval(parse_expr("eff[a] eff[b] z"), 5)
    assert r.stopped == Zero()
    assert r.trace == ("a", "b")


def test_stuck_application_raises():
    with pytest.raises(StuckError):
        bigstop_eval(parse_expr("z z"), 4)


def _raised(run):
    def outcome(e, budget):
        try:
            run(e, budget)
        except StuckError:
            return StuckError
        return None
    return outcome


# each engine at budget 5, and what it gives for a stuck term; the MNF
# engines run the term's MNF image
STUCK_OUTCOME = {
    "multi_step": (lambda e, b: multi_step(e, b).status, RunStatus.STUCK),
    "mnf_multi_step": (lambda e, b: mnf_multi_step(to_mnf(e), b).status, RunStatus.STUCK),
    "big_step": (lambda e, b: type(big_step(e, b)), Stuck),
    "k_run": (lambda e, b: k_run(k_compile(e), b).status, KStatus.STUCK),
    "bigstop_eval": (_raised(bigstop_eval), StuckError),
    "ec_bigstop_eval": (_raised(ec_bigstop_eval), StuckError),
    "annihilator_eval": (_raised(annihilator_eval), StuckError),
    "mnf_bigstop_eval": (_raised(lambda e, b: mnf_bigstop_eval(to_mnf(e), b)), StuckError),
}
STUCK_TERMS = ("x", "z z", "case (fun f(y) => y) { z => z | s(m) => m }", "let x = z in x")


@pytest.mark.parametrize("engine, src", [
    (engine, src) for engine in STUCK_OUTCOME for src in STUCK_TERMS
    # a let is the MNF dialect's own form: its image runs to z
    if not (engine.startswith("mnf") and src.startswith("let"))
])
def test_every_engine_reports_a_stuck_term(engine, src):
    run, want = STUCK_OUTCOME[engine]
    assert run(parse_expr(src), 5) is want


def test_matches_the_step_relation_on_a_mixed_program():
    e = parse_expr("case eff[go] s(z) { z => z | s(n) => eff[done] n }")
    for budget in range(6):
        r = bigstop_eval(e, budget)
        m = multi_step(e, budget)
        assert r.stopped == m.final
        assert r.trace == m.trace


### pinned derivations for the two reference programs

def test_self_feeding_constant_is_a_fixed_point():
    lg = corpus_term("leroy-grall")
    d = bigstop_eval(lg, 1).derivation
    assert d.rule == "St-Stop(2)"
    assert d.rhs == d.lhs
    assert d.trace == ()
    assert [p.rule for p in d.premises] == ["St-Stop(0)", "Val", "StE-App"]
    assert is_progressing(d)
    # the inner premiss is where the single unit went
    assert print_expr(d.premises[2].lhs) == "(fun f(y) => f y) z"


def test_partial_application_exposes_an_eta_body():
    fil = corpus_term("filinski")
    d = bigstop_eval(fil, 1).derivation
    assert d.rule == "StE-App"
    assert print_expr(d.rhs) == "fun _(y) => (fun f(x) => fun _(y) => f x y) z y"
    assert is_value(d.rhs)


### is_progressing

def test_progress_everywhere_positive_budget():
    # every non-value must move when given at least one unit
    for src in ("(fun f(x) => x) z", "eff[a] z", "case z { z => z | s(x) => x }"):
        d = bigstop_eval(parse_expr(src), 1).derivation
        assert is_progressing(d)


def test_budget_zero_never_progresses_on_a_redex():
    d = bigstop_eval(parse_expr("eff[a] z"), 0).derivation
    assert not is_progressing(d)


### the derivation checker

GOOD = [
    ("(fun f(x) => s(x)) z", 3),
    ("eff[a] ((fun f(x) => x) (eff[b] s(z)))", 4),
    ("case s(z) { z => z | s(n) => s(n) }", 2),
    ("(fun f(x) => f x) z", 2),   # unrolls forever, budget cuts it
]


@pytest.mark.parametrize("src,budget", GOOD)
def test_checker_accepts_evaluator_output(src, budget):
    d = bigstop_eval(parse_expr(src), budget).derivation
    assert check_derivation(d) is None


def test_checker_rejects_a_forged_conclusion():
    d = bigstop_eval(parse_expr("(fun f(x) => s(x)) z"), 3).derivation
    v = check_derivation(mut(d, rhs=Zero()))
    assert v is not None
    assert v.path == ()
    assert "conclusion" in v.reason


def test_checker_rejects_a_forged_trace():
    d = bigstop_eval(parse_expr("eff[a] z"), 2).derivation
    assert check_derivation(mut(d, trace=("b",))) is not None


def test_checker_rejects_missing_premises():
    d = bigstop_eval(parse_expr("(fun f(x) => s(x)) z"), 3).derivation
    v = check_derivation(mut(d, premises=d.premises[:-1]))
    assert v is not None
    assert "premiss" in v.reason


def test_checker_rejects_unknown_rules():
    d = bigstop_eval(parse_expr("z"), 0).derivation
    v = check_derivation(mut(d, rule="StE-Nonsense"))
    assert v is not None
    assert "unknown rule" in v.reason


def test_checker_rejects_an_overwide_stop():
    # no constructor has three evaluation positions, so Stop(3) can never fire
    d = bigstop_eval(corpus_term("leroy-grall"), 1).derivation
    assert d.rule == "St-Stop(2)"
    v = check_derivation(mut(d, rule="St-Stop(3)"))
    assert v is not None
    assert "unknown rule" in v.reason


def test_a_premiss_with_a_cut_off_trace_is_a_violation_not_a_crash():
    # a cut is the label 0 at the end of a trace, which the plain rule joins
    # like any label: the node passes, and the premiss fails on its own rule
    d = annihilator_derivation(parse_expr("eff[a] ((fun f(x) => f x) z)"), 1)
    assert d.premises[0].trace == ("0",)
    v = check_derivation(mut(d, rule="StE-Eff"))
    assert (v.path, v.reason) == ((0,), "unknown rule 'StA-Stop' for the plain dialect")
    # a premiss whose trace is no label sequence at all
    for dialect, node in (("plain", mut(d, rule="StE-Eff")), ("annihilator", d)):
        for junk in (None, AnnTrace(("0",), True)):
            v = check_derivation(mut(node, premises=(mut(node.premises[0], trace=junk),)), dialect)
            want = f"{node.rule} premiss 0 holds something that is not a trace"
            assert (v.path, v.reason) == ((), want), (dialect, junk)


def test_checker_localises_deep_faults():
    d = bigstop_eval(parse_expr("eff[a] ((fun f(x) => x) z)"), 4).derivation
    # mislabel a nested node whose endpoints are untouched: only the subtree
    # check can notice, so the violation must carry a non-root path
    bad_inner = mut(d.premises[0], rule="StE-Nonsense")
    v = check_derivation(mut(d, premises=(bad_inner,) + d.premises[1:]))
    assert v is not None
    assert v.path == (0,)


def test_dialects_do_not_leak_into_each_other():
    plain = bigstop_eval(parse_expr("eff[a] z"), 2).derivation
    ec = ec_bigstop_eval(parse_expr("eff[a] z"), 2).derivation
    assert check_derivation(ec) is not None          # EC rules unknown to plain
    assert check_derivation(plain, dialect="ec") is not None
    assert check_derivation(ec, dialect="ec") is None


### big-step trees are the plain trees that end in a value

def _first_stop_short_of_a_value(d):
    """The path of the first stop node in preorder whose right-hand side is
    no value, or None when every stop node ends in a value."""
    todo = [(d, ())]
    while todo:
        n, path = todo.pop()
        if n.rule.startswith("St-Stop(") and not is_value(n.rhs):
            return path
        ps = n.premises
        todo += [(ps[i], path + (i,)) for i in reversed(range(len(ps)))]
    return None


def test_a_checked_tree_stops_only_at_values_exactly_when_it_ends_in_one():
    # so the big-step rules are the plain ones, with St-Stop(0) on a value
    # as the value rule and St-Stop(1) on a successor as the successor rule
    runs = [(e, b) for e in enumerate_exprs(6) for b in range(11)]
    runs += [(e, b) for e in _default_gen_pool() for b in (64, 1)]
    ends = {True: 0, False: 0}
    for e, budget in runs:  # every term is well typed, so none is stuck
        d = bigstop_eval(e, budget).derivation
        assert check_derivation(d) is None, print_expr(e)
        value = is_value(d.rhs)
        assert (_first_stop_short_of_a_value(d) is None) == value, (print_expr(e), budget)
        ends[value] += 1
    assert ends == {True: 30100, False: 5613}


def test_converged_run_is_strict_and_converts():
    # its big-step tree is the plain one: StE-Eff over StE-App
    e = parse_expr("eff[a] ((fun f(x) => s(x)) z)")
    d = bigstop_eval(e, 8).derivation
    assert _first_stop_short_of_a_value(d) is None
    assert d.rule == "StE-Eff"
    assert [p.rule for p in d.premises] == ["StE-App"]
    assert check_derivation(d) is None
    assert big_step(e, 8) == Value(d.rhs, d.trace)


def test_value_leaf_converts():
    # the value rule is St-Stop(0) on a value
    d = bigstop_eval(parse_expr("s(z)"), 0).derivation
    assert _first_stop_short_of_a_value(d) is None
    assert d.rule == "St-Stop(0)" and is_value(d.rhs)
    assert check_derivation(d) is None


def test_budget_cut_trees_are_not_strict():
    d = bigstop_eval(corpus_term("leroy-grall"), 1).derivation
    assert check_derivation(d) is None
    assert not is_value(d.rhs)
    assert _first_stop_short_of_a_value(d) == ()


def test_nonvalue_stop_at_zero_is_not_strict():
    d = bigstop_eval(parse_expr("(fun f(x) => x) z"), 0).derivation
    assert d.rule == "St-Stop(0)"
    assert _first_stop_short_of_a_value(d) == ()


def test_round_trip_on_a_sweep():
    e = parse_expr("case (fun f(x) => s(x)) z { z => z | s(n) => eff[hit] n }")
    # from the convergence point on, more budget leaves the tree as it is
    base = multi_step(e, 64).steps
    d = bigstop_eval(e, base).derivation
    assert _first_stop_short_of_a_value(d) is None and is_value(d.rhs)
    assert check_derivation(d) is None
    for budget in range(base + 1, base + 3):
        assert bigstop_eval(e, budget).derivation == d
    assert derivation_from_json(derivation_to_json(d)) == d


def test_converged_runs_convert_check_and_convert_back():
    # a converged run's plain tree is its big-step tree: it checks, stops
    # only at values and concludes what the big-step evaluator computes
    converged = 0
    for e in [*enumerate_exprs(6), *_default_gen_pool()]:
        d = bigstop_eval(e, 64).derivation
        if not is_value(d.rhs):
            continue
        converged += 1
        assert check_derivation(d) is None, print_expr(e)
        assert _first_stop_short_of_a_value(d) is None, print_expr(e)
        assert big_step(e, 64) == Value(d.rhs, d.trace), print_expr(e)
    assert converged > 4000


def _forged_annihilator():
    # StA-Val, StA-Succ and StA-Eff are the plain table's value, successor
    # and effect entries under the annihilator's names
    z, one, redex = Zero(), Succ(Zero()), parse_expr("(fun f(x) => x) z")
    z_val = Derivation("StA-Val", z, z, (), ())
    return {
        "StA-Val: forged conclusion and trace": (
            Derivation("StA-Val", z, one, ("a",), ()),
            "StA-Val conclusion does not match its premisses"),
        "StA-Val on a redex": (
            Derivation("StA-Val", redex, redex, (), ()),
            "StA-Val does not apply to this term"),
        "StA-Succ: forged conclusion and trace": (
            Derivation("StA-Succ", one, Succ(one), ("b",), (z_val,)),
            "StA-Succ conclusion does not match its premisses"),
        "StA-Succ with no premiss": (
            Derivation("StA-Succ", one, one, (), ()),
            "StA-Succ wants 1 premisses, got 0"),
        "StA-Eff with a wrong trace": (
            Derivation("StA-Eff", parse_expr("eff[a] z"), z, ("b",), (z_val,)),
            "StA-Eff emits the wrong trace"),
    }


@pytest.mark.parametrize("case", list(_forged_annihilator()))
def test_annihilator_forgery_fails_at_root(case):
    d, reason = _forged_annihilator()[case]
    v = check_derivation(d, "annihilator")
    assert (v.path, v.reason) == ((), reason)


def test_a_value_test_is_reported_at_the_val_premiss_that_states_it():
    lam, redex = parse_expr("fun f(x) => x"), parse_expr("(fun g(y) => y) z")
    app = App(lam, redex)  # its argument is no value, so no redex rule fires
    for dialect, rule, stop in (("ec", "EC-App", "EC-Stop"), ("mnf", "StM-App", "StM-Stop")):
        forged = Derivation(rule, app, redex, (), (
            Derivation("Val", redex, redex, (), ()),
            Derivation(stop, redex, redex, (), ()),
        ))
        v = check_derivation(forged, dialect)
        assert (v.path, v.reason) == ((0,), "Val does not apply to this term"), dialect
    # the run after the Val premiss would substitute the redex: no crash,
    # and an annihilator run cannot end in a redex in the first place
    for dialect, rule, stop, where in (
        ("plain", "StE-App", "St-Stop(0)", ((2,), "Val does not apply to this term")),
        ("annihilator", "StA-App", "StA-Val", ((1,), "StA-Val does not apply to this term")),
    ):
        forged = Derivation(rule, app, redex, (), (
            Derivation(stop, lam, lam, (), ()),
            Derivation(stop, redex, redex, (), ()),
            Derivation("Val", redex, redex, (), ()),
            Derivation(stop, redex, redex, (), ()),
        ))
        v = check_derivation(forged, dialect)
        assert (v.path, v.reason) == where, rule
    # a successor of a redex is no value either, for StE-CaseS's branch
    case = parse_expr("case s((fun g(y) => y) z) { z => z | s(n) => n }")
    forged = Derivation("StE-CaseS", case, redex, (), (
        Derivation("St-Stop(0)", case.scrutinee, case.scrutinee, (), ()),
        Derivation("Val", redex, redex, (), ()),
        Derivation("St-Stop(0)", redex, redex, (), ()),
    ))
    v = check_derivation(forged)
    assert (v.path, v.reason) == ((1,), "Val does not apply to this term")
    # StA-Succ states no value test: the premiss that ends in a redex is at fault
    forged = Derivation("StA-Succ", Succ(redex), Succ(redex), (), (
        Derivation("StA-Val", redex, redex, (), ()),
    ))
    v = check_derivation(forged, "annihilator")
    assert (v.path, v.reason) == ((0,), "StA-Val does not apply to this term")


def test_a_start_that_substitutes_an_open_function_is_a_violation():
    # no run of a closed term gets here, but a forged tree may
    z, y, lam = Zero(), Var("y"), parse_expr("fun f(x) => y")
    forged = Derivation("StE-App", App(lam, z), y, (), (
        Derivation("St-Stop(0)", lam, lam, (), ()),
        Derivation("St-Stop(0)", z, z, (), ()),
        Derivation("Val", z, z, (), ()),
        Derivation("St-Stop(0)", y, y, (), ()),
    ))
    v = check_derivation(forged)
    assert (v.path, v.reason) == ((), "StE-App premiss 3 substitutes no closed value")
    # anything else wrong is reported first
    v = check_derivation(mut(forged, premises=forged.premises[:3] + (mut(forged.premises[3], rule="?"),)))
    assert (v.path, v.reason) == ((3,), "unknown rule '?' for the plain dialect")


def test_a_kept_instantiation_vouches_for_no_forgery():
    # after a run, the function holds its body for z: the checker must still
    # reject a body that starts elsewhere, and that body for another argument
    e = parse_expr("(fun f(x) => eff[t] f x) z")
    f, one = e.fn, Succ(Zero())
    d = bigstop_eval(e, 4).derivation
    body = d.premises[3].lhs
    assert f._inst == (e.arg, body)
    assert check_derivation(d) is None
    wrong = "StE-App premiss 3 starts at the wrong term"
    v = check_derivation(mut(d, premises=d.premises[:3] + (d.premises[3].premises[0],)))
    assert (v.path, v.reason) == ((), wrong)
    forged = Derivation("StE-App", App(f, one), body, (), (
        Derivation("St-Stop(0)", f, f, (), ()),
        Derivation("St-Stop(0)", one, one, (), ()),
        Derivation("Val", one, one, (), ()),
        Derivation("St-Stop(0)", body, body, (), ()),
    ))
    v = check_derivation(forged)
    assert (v.path, v.reason) == ((), wrong)
    # the EC dialect's redex rule, one level down an EC-Seq
    d = ec_bigstop_eval(e, 4).derivation
    assert check_derivation(d, "ec") is None
    app = d.premises[0]
    body = app.rhs
    assert app.rule == "EC-App" and f._inst == (e.arg, body)
    forged_app = Derivation("EC-App", App(f, one), body, (), (
        Derivation("Val", one, one, (), ()),
        Derivation("EC-Stop", body, body, (), ()),
    ))
    v = check_derivation(forged_app, "ec")
    assert (v.path, v.reason) == ((), "EC-App premiss 1 starts at the wrong term")
    v = check_derivation(mut(d, lhs=App(f, one), premises=(forged_app,) + d.premises[1:]), "ec")
    assert (v.path, v.reason) == ((0,), "EC-App premiss 1 starts at the wrong term")


### composition is exact, not just sound

def test_compose_reproduces_the_single_run():
    e = parse_expr("eff[a] ((fun f(x) => x) (eff[b] s(z)))")
    for m in range(4):
        for n in range(4):
            d1 = bigstop_eval(e, m).derivation
            d2 = bigstop_eval(d1.rhs, n).derivation
            assert compose(d1, d2) == bigstop_eval(e, m + n).derivation


def test_compose_reproduces_every_enumerated_run_and_checks():
    # 2,883 terms, every split of budgets 0-10 into m + n with m, n <= 5
    pairs = 0
    for e in enumerate_exprs(6):
        runs = [bigstop_eval(e, b).derivation for b in range(11)]
        for m in range(6):
            d1 = runs[m]
            for n in range(6):
                d = compose(d1, bigstop_eval(d1.rhs, n).derivation)
                assert d == runs[m + n], (print_expr(e), m, n)
                assert check_derivation(d) is None, (print_expr(e), m, n)
                pairs += 1
    assert pairs == 103_788


def _stop0(e):
    return Derivation("St-Stop(0)", e, e, (), ())


def test_compose_merges_a_two_position_stop_with_a_one_position_stop():
    # the evaluator stops a value in function position as St-Stop(2) with a
    # zero stop first, never as St-Stop(1); the hand-built St-Stop(1) is
    # still a valid zero-step run, and composing with it changes nothing
    d1 = bigstop_eval(parse_expr("(fun f(x) => x) ((fun g(y) => y) (eff[a] z))"), 1).derivation
    assert d1.rule == "St-Stop(2)"
    fn = d1.rhs.fn
    d2 = Derivation("St-Stop(1)", d1.rhs, d1.rhs, (), (Derivation("St-Stop(0)", fn, fn, (), ()),))
    assert check_derivation(d2) is None
    assert compose(d1, d2) == d1
    assert check_derivation(compose(d1, d2)) is None
    # more valid inputs the evaluator never makes, each node of the result
    # built from the rule table: St-Stop(1) over an application whose
    # function is a value, St-Stop(1) over a numeral, Val as d1, and a run
    # that is not d1's last merged with a still run over a numeral
    app = parse_expr("(fun f(x) => x) (eff[a] z)")
    stop1 = Derivation("St-Stop(1)", app, app, (), (_stop0(app.fn),))
    run = bigstop_eval(app, 2).derivation
    assert run.rule == "StE-App"
    sz = parse_expr("s(z)")
    succ = Derivation("St-Stop(1)", sz, sz, (), (_stop0(Zero()),))
    val = Derivation("Val", sz, sz, (), ())
    # St-Stop(2) whose first run emits a and reaches s(z), then St-Stop(1)
    # over that numeral: the merged first run keeps a, the start of a·b
    first, second, stuck = parse_expr("eff[a] s(z)"), parse_expr("eff[b] z"), parse_expr("s(z) z")
    eff_b = Derivation("StE-Eff", second, Zero(), ("b",), (_stop0(Zero()),))
    stop2 = Derivation("St-Stop(2)", App(first, second), stuck, ("a", "b"), (
        Derivation("StE-Eff", first, sz, ("a",), (_stop0(sz),)), val, eff_b))
    still = Derivation("St-Stop(2)", stuck, stuck, (), (succ, val, _stop0(Zero())))
    merged = Derivation("St-Stop(2)", stop2.lhs, stuck, ("a", "b"), (
        Derivation("StE-Eff", first, sz, ("a",), (succ,)), val, eff_b))
    for d1, d2, want in ((stop1, run, run), (succ, val, succ), (val, succ, succ), (stop2, still, merged)):
        assert check_derivation(d1) is None and check_derivation(d2) is None
        assert compose(d1, d2) == want
        assert check_derivation(compose(d1, d2)) is None


def test_compose_with_a_zero_stop_is_identity_shaped():
    e = parse_expr("(fun f(x) => f x) z")
    d1 = bigstop_eval(e, 2).derivation
    halt = bigstop_eval(d1.rhs, 0).derivation
    assert compose(d1, halt) == d1


def test_composed_trees_still_check():
    app = parse_expr("eff[a] ((fun f(x) => x) (eff[b] s(z)))")
    d1 = bigstop_eval(app, 1).derivation
    d2 = bigstop_eval(d1.rhs, 3).derivation
    assert check_derivation(compose(d1, d2)) is None


def _composed_from_where_it_stopped(n):
    d1 = bigstop_eval(LOOP, n).derivation
    return d1, bigstop_eval(d1.rhs, n).derivation


def _compose_peak_bytes(n):
    # tracemalloc walks the whole Python stack at each allocation, and
    # compose recurses once per level: kept small, or the count is slow
    d1, d2 = _composed_from_where_it_stopped(n)
    gc.collect()
    tracemalloc.start()
    try:
        compose(d1, d2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compose_of_two_long_runs_is_linear_in_memory():
    # the two sides log their labels in different lists; copying both
    # traces at each node of the spine makes the peak grow with the square
    # of the run (ratio 4)
    d1, d2 = _composed_from_where_it_stopped(2000)
    d = compose(d1, d2)
    assert d == bigstop_eval(LOOP, 4000).derivation
    assert check_derivation(d) is None
    small, large = _compose_peak_bytes(1000), _compose_peak_bytes(2000)
    assert large <= 2.5 * small and large < 3 * 2**20, (small, large)


def test_compose_rejects_mismatched_endpoints():
    d1 = bigstop_eval(parse_expr("eff[a] z"), 0).derivation
    d2 = bigstop_eval(parse_expr("z"), 1).derivation
    with pytest.raises(ComposeMismatch):
        compose(d1, d2)


def test_compose_refuses_a_rule_that_does_not_apply():
    d1 = bigstop_eval(parse_expr("(fun f(x) => x) ((fun g(y) => y) (eff[a] z))"), 1).derivation
    assert d1.rule == "St-Stop(2)"
    fn, arg = d1.rhs.fn, d1.rhs.arg
    forged = Derivation("StE-CaseZ", d1.rhs, arg, (), (_stop0(fn), _stop0(arg)))
    with pytest.raises(ComposeMismatch, match="StE-CaseZ does not apply"):
        compose(d1, forged)
    # a case stopped at z, then a forged StE-CaseS that goes on as if at s(_)
    d1 = bigstop_eval(parse_expr("case eff[a] z { z => z | s(n) => n }"), 1).derivation
    assert d1.rule == "St-Stop(1)"
    z = Zero()
    val_z = Derivation("Val", z, z, (), ())
    forged = Derivation("StE-CaseS", d1.rhs, z, (), (_stop0(z), val_z, _stop0(z)))
    with pytest.raises(ComposeMismatch, match="StE-CaseS cannot continue from z"):
        compose(d1, forged)


_FOREIGN = {
    "annihilator": annihilator_derivation,
    "mnf": lambda e, budget: mnf_bigstop_eval(e, budget).derivation,
    "ec": lambda e, budget: ec_bigstop_eval(e, budget).derivation,
}


@pytest.mark.parametrize("side", ["first", "second"])
@pytest.mark.parametrize("dialect", sorted(_FOREIGN))
def test_compose_refuses_a_tree_of_another_dialect(dialect, side):
    inner = parse_expr("(fun f(x) => x) z")
    foreign = _FOREIGN[dialect](inner, 1)
    if side == "first":
        d1, d2 = foreign, bigstop_eval(foreign.rhs, 0).derivation
    else:
        d1, d2 = bigstop_eval(parse_expr("eff[a] ((fun f(x) => x) z)"), 1).derivation, foreign
    assert d1.rhs == d2.lhs
    with pytest.raises(ComposeMismatch, match=f"{foreign.rule}: it is not a plain rule"):
        compose(d1, d2)


def test_compose_and_the_evaluator_build_their_nodes_apart():
    # compose reads the rule table and never runs the evaluator; the
    # evaluator reads no table, and the checker reads neither producer
    assert not {"_RULES", "_plain_node"} & set(bigstop.bigstop._stop.__code__.co_names)
    for f in (compose, check_derivation):
        assert not {"_stop", "bigstop_eval"} & set(f.__code__.co_names), f.__name__


### annihilator dialect: cut runs end in an absorbing marker

def test_annihilated_value_is_demand_shaped():
    out, tr = annihilator_eval(parse_expr("(fun f(x) => x) (fun g(y) => y)"), 0)
    assert out == Lam("_", "x", Var("x"))     # arrow demanded, arrow supplied
    assert tr == AnnTrace((), True)
    assert str(tr) == "0"


def test_a_cut_may_close_with_a_value_of_any_type():
    # the checker takes no types, so it can judge untyped runs too: StA-Stop
    # accepts any value as a cut's result, not only one of the term's type
    ident, z = parse_expr("fun _(x) => x"), Zero()
    nat = parse_expr("eff[a] eff[b] z")
    arrow = parse_expr("(fun f(x) => x) (fun g(y) => y)")
    assert not isinstance(infer_type(nat), ArrowT) and isinstance(infer_type(arrow), ArrowT)
    val_ident = Derivation("Val", ident, ident, (), ())
    cut = Derivation("StA-Stop", nat.body, ident, ("0",), (val_ident,))
    cut_to_fn = Derivation("StA-Eff", nat, ident, ("a", "0"), (cut,))
    cut_to_nat = Derivation("StA-Stop", arrow, z, ("0",), (Derivation("Val", z, z, (), ()),))
    assert check_derivation(cut_to_fn, "annihilator") is None
    assert check_derivation(cut_to_nat, "annihilator") is None


def test_annihilator_agrees_with_plain_on_convergence():
    out, tr = annihilator_eval(parse_expr("eff[a] eff[b] z"), 2)
    assert out == Zero()
    assert tr == AnnTrace(("a", "b"), False)
    assert str(tr) == "a·b"


def test_annihilator_keeps_the_emitted_prefix():
    e = parse_expr("eff[a] ((fun f(x) => f x) (fun f(x) => f x))")
    out, tr = annihilator_eval(e, 3)
    assert out == Zero()                      # ground demand at the top
    assert tr == AnnTrace(("a",), True)
    assert str(tr) == "a·0"


def test_annihilator_derivation_checks():
    d = annihilator_derivation(parse_expr("eff[a] eff[b] z"), 1)
    assert d.rule == "StA-Eff"
    assert [p.rule for p in d.premises] == ["StA-Stop"]
    assert d.trace == ("a", "0")
    assert check_derivation(d, dialect="annihilator") is None


def test_the_default_demand_is_the_inferred_one():
    # a cut run's result is the placeholder of the term's own type: the
    # identity function for an arrow, else z
    annihilated = 0
    for e in enumerate_exprs(6):
        try:
            arrow = isinstance(infer_type(e), ArrowT)
        except TypeFailure:
            arrow = False
        for budget in range(11):
            try:
                out, tr = annihilator_eval(e, budget)
            except StuckError:
                continue
            if tr.annihilated:
                annihilated += 1
                assert isinstance(out, Lam) == arrow, (print_expr(e), budget)
    assert annihilated > 3000


@pytest.fixture
def inferences(monkeypatch):
    calls = []

    def counted(e):
        calls.append(e)
        return infer_type(e)

    monkeypatch.setattr(bigstop.bigstop, "infer_type", counted)
    return calls


def test_runs_that_reach_a_value_infer_no_type(inferences):
    annihilator_derivation(parse_expr("z"), 0)
    annihilator_derivation(parse_expr("eff[a] eff[b] z"), 2)
    assert inferences == []


def test_a_cut_at_the_top_demand_infers_once(inferences):
    out, _ = annihilator_eval(parse_expr("(fun f(x) => x) (fun g(y) => y)"), 0)
    assert out == Lam("_", "x", Var("x"))
    assert len(inferences) == 1


def test_annihilator_cuts_exactly_the_runs_the_budget_cuts():
    # the budget pays for one contraction, so the beta step's body is cut
    # although it is a value
    out, tr = annihilator_eval(parse_expr("(eff[a] fun a(b) => z) z"), 1)
    assert (out, str(tr)) == (Zero(), "a·0")
    for e in enumerate_exprs(6):
        for budget in range(11):
            m = multi_step(e, budget)
            if m.status is RunStatus.STUCK:
                with pytest.raises(StuckError):
                    annihilator_eval(e, budget)
                continue
            out, tr = annihilator_eval(e, budget)
            where = (print_expr(e), budget)
            assert tr.annihilated == (m.status is not RunStatus.REACHED_VALUE), where
            assert tr.prefix == m.trace, where
            if not tr.annihilated:
                assert out == m.final, where


def test_a_run_logs_its_first_cut_alone():
    # at budget 2 the function's run is cut, then the pending argument,
    # then the beta body (a value); only the first cut logs its 0, and the
    # later ones, run with no budget left, log nothing
    e = parse_expr("((fun f(x) => eff[a] f x) z) ((fun g(y) => y) z)")
    d = annihilator_derivation(e, 2)
    assert type(d.trace) is Span and d.trace.log == ["a", "0"]
    assert d.trace == ("a", "0")
    stops = [node for _, node in _nodes(d) if node.rule == "StA-Stop"]
    assert [print_expr(node.lhs) for node in stops] == [
        "(fun f(x) => eff[a] f x) z", "(fun g(y) => y) z", "z",
    ]
    assert type(stops[0].trace) is Span
    assert [node.trace for node in stops[1:]] == [("0",), ("0",)]
    assert check_derivation(d, "annihilator") is None


### context-threading dialect

def test_ec_budget_zero_stops_even_on_values():
    d = ec_bigstop_eval(parse_expr("s(z)"), 0).derivation
    assert d.rule == "EC-Stop"
    d = ec_bigstop_eval(parse_expr("s((fun f(x) => x) z)"), 0).derivation
    assert d.rule == "EC-Stop"
    assert d.rhs == d.lhs


def test_ec_value_with_budget_left_is_a_val_leaf():
    d = ec_bigstop_eval(parse_expr("s(z)"), 5).derivation
    assert d.rule == "EC-Val"
    assert d.premises == ()


def test_ec_chains_one_step_then_the_rest():
    e = parse_expr("s((fun f(x) => x) z)")
    d = ec_bigstop_eval(e, 1).derivation
    assert d.rule == "EC-Seq"
    assert [p.rule for p in d.premises] == ["EC-App", "EC-Stop"]
    assert d.rhs == parse_expr("s(z)")
    d = ec_bigstop_eval(e, 2).derivation
    assert [p.rule for p in d.premises] == ["EC-App", "EC-Val"]


def test_ec_spine_depth_tracks_the_budget():
    d = ec_bigstop_eval(corpus_term("omega"), 3).derivation
    rules = []
    while d.rule == "EC-Seq":
        rules.append(d.premises[0].rule)
        d = d.premises[1]
    assert rules == ["EC-App", "EC-App", "EC-App"]
    assert d.rule == "EC-Stop"


def test_ec_agrees_with_the_step_relation():
    e = parse_expr("eff[a] case s(z) { z => z | s(n) => eff[b] n }")
    for budget in range(6):
        r = ec_bigstop_eval(e, budget)
        m = multi_step(e, budget)
        assert r.stopped == m.final
        assert r.trace == m.trace


def test_ec_checker_rejects_forgeries():
    d = ec_bigstop_eval(parse_expr("s((fun f(x) => x) z)"), 1).derivation
    assert check_derivation(mut(d, rhs=Zero()), dialect="ec") is not None


def _spine_splits(e):
    """Every (fill, subterm) split of e along the evaluation spine, where
    fill(x) puts x back in the subterm's place.  The EC-Seq check searched
    this list before it walked both terms together; it stays here as the
    reference for that walk.  It also splits into a function that is a
    value, which a context of smallstep cannot express."""
    out = [(lambda x: x, e)]
    c = type(e)
    if c is App:
        fn, arg = e.fn, e.arg
        out += [(lambda x, k=k: App(k(x), arg), s) for k, s in _spine_splits(fn)]
        if is_value(fn):
            out += [(lambda x, k=k: App(fn, k(x)), s) for k, s in _spine_splits(arg)]
    elif c is Succ:
        out += [(lambda x, k=k: Succ(k(x)), s) for k, s in _spine_splits(e.body)]
    elif c is Case:
        zb, xv, sb = e.zero_branch, e.succ_var, e.succ_branch
        out += [(lambda x, k=k: Case(zb, xv, sb, k(x)), s) for k, s in _spine_splits(e.scrutinee)]
    return out


def _fits_by_search(d):
    p1, p2 = d.premises
    return any(
        sub == p1.lhs and fill(p1.rhs) == p2.lhs for fill, sub in _spine_splits(d.lhs)
    )


def _subterms(e):
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        out.append(e)
        todo += [kid for kid, _ in scoped_children(e)]
    return out


def _ec_seq(lhs, start, result, restart):
    """An EC-Seq node over lhs whose first premiss runs start to result and
    whose second starts at restart."""
    return Derivation("EC-Seq", lhs, restart, (), (
        Derivation("EC-Stop", start, result, (), ()),
        Derivation("EC-Stop", restart, restart, (), ()),
    ))


def test_the_ec_seq_walk_agrees_with_the_split_search_on_evaluator_nodes():
    fits = bigstop.bigstop._fits_context
    nodes = mutants = 0
    for e in enumerate_exprs(5):
        for budget in range(7):
            try:
                d = ec_bigstop_eval(e, budget).derivation
            except StuckError:
                continue
            for _, node in _nodes(d):
                if node.rule != "EC-Seq":
                    continue
                nodes += 1
                assert fits(node), print_expr(node.lhs)
                p1, p2 = node.premises
                # premiss 1's result, then premiss 2's start, replaced by a
                # subterm of any of the node's terms
                subs = [x for t in (node.lhs, p1.lhs, p1.rhs, p2.lhs) for x in _subterms(t)]
                forgeries = [(mut(p1, rhs=x), p2) for x in subs] + [(p1, mut(p2, lhs=x)) for x in subs]
                for premises in forgeries:
                    forged = mut(node, premises=premises)
                    assert fits(forged) == _fits_by_search(forged), print_expr(node.lhs)
                mutants += len(forgeries)
    assert nodes > 3000 and mutants > 90_000


# spines that run into values (a numeral or a function in function position,
# a case over a numeral, a numeral applied) or stop short of an argument
# (one behind a function that is not yet a value)
SPINES = (
    "s(s(z)) ((fun f(x) => x) z)",
    "s(z) s(z)",
    "(fun f(x) => x) (s(z) ((fun g(y) => y) z))",
    "s(case s(s(z)) { z => z | s(n) => n })",
    "case (fun f(x) => x) s(z) { z => z | s(n) => s(n) }",
    "(fun f(x) => f) z (s(s(z)))",
)


def _paths(e):
    """The path, as child indices, to every subterm of e."""
    out, todo = [], [(e, ())]
    while todo:
        e, path = todo.pop()
        out.append(path)
        todo += [(kid, path + (i,)) for i, (kid, _) in enumerate(scoped_children(e))]
    return out


def _put(e, path, x):
    """e with its subterm at path replaced by x."""
    if not path:
        return x
    kids = [kid for kid, _ in scoped_children(e)]
    kids[path[0]] = _put(kids[path[0]], path[1:], x)
    return rebuild(e, kids)


def test_the_ec_seq_walk_agrees_with_the_split_search_on_hand_built_splits():
    fits = bigstop.bigstop._fits_context
    mark = Var("w")  # occurs in no lhs
    verdicts = []
    for src in SPINES:
        lhs = parse_expr(src)
        starts = [sub for _, sub in _spine_splits(lhs)] + [Zero()]
        for result in _subterms(lhs) + [Zero()]:
            # premiss 2 starts from the lhs with the result put at any place,
            # on the spine or off it, and then maybe one more place changed
            restarts = []
            for path in _paths(lhs):
                once = _put(lhs, path, result)
                restarts += [once] + [_put(once, p, mark) for p in _paths(once)]
            for start in starts:
                for restart in restarts:
                    node = _ec_seq(lhs, start, result, restart)
                    verdicts.append(fits(node))
                    assert verdicts[-1] == _fits_by_search(node), (src, start, result, restart)
    assert 0 < sum(verdicts) < len(verdicts)


GROW = parse_expr("(fun f(x) => s(f x)) z")  # one more s(.) around the redex per contraction


def _calls(run, code=None):
    """The Python calls run() makes, or only those that run this code."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "call" and (code is None or frame.f_code is code):
            n += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return n


def test_multi_step_asks_is_value_a_bounded_number_of_times_per_step():
    # asking again at every s(.) of the context made each step's calls grow
    # with the depth: 20,901 then 81,801 calls
    small, large = (
        _calls(lambda: multi_step(GROW, b), is_value.__code__) for b in (200, 400)
    )
    assert large <= 2.5 * small, (small, large)


def test_the_annihilator_checker_asks_is_value_of_no_successor():
    # StA-Succ tested its premiss's result for a value again, though every
    # valid annihilator run ends in one: 398 of 1,600 calls at budget 400
    # went down a deep numeral
    d = annihilator_derivation(GROW, 400)
    on_succ = 0

    def count(frame, event, arg):
        nonlocal on_succ
        if event == "call" and frame.f_code is is_value.__code__:
            on_succ += type(frame.f_locals["e"]) is Succ

    sys.setprofile(count)
    try:
        verdict = check_derivation(d, "annihilator")
    finally:
        sys.setprofile(None)
    assert verdict is None
    assert on_succ == 0


def test_the_ec_checker_walks_each_spine_once():
    # listing every split of every EC-Seq node's lhs took about the cube of
    # the budget (6.9 times the calls); one walk per node takes its square
    small, large = (
        _calls(lambda d=ec_bigstop_eval(GROW, b).derivation: check_derivation(d, "ec"))
        for b in (100, 200)
    )
    assert large <= 4.5 * small, (small, large)


### serialisation

def test_json_round_trip_plain():
    d = bigstop_eval(parse_expr("eff[a] z"), 4).derivation
    obj = derivation_to_json(d)
    assert sorted(obj.keys()) == ["format", "labels", "nodes", "terms"]
    assert obj["format"] == 3
    assert obj["terms"] == ["eff[a] z", "z"]
    assert obj["labels"] == ["a"]
    # rule, lhs, rhs, trace start and end, premiss count; in preorder
    assert obj["nodes"] == [["StE-Eff", 0, 1, 0, 1, 1], ["St-Stop(0)", 1, 1, 0, 0, 0]]
    assert derivation_from_json(obj) == d


def test_json_round_trip_annihilated():
    d = annihilator_derivation(parse_expr("eff[a] eff[b] z"), 1)
    obj = json.loads(derivation_to_json_str(d))
    assert sorted(obj.keys()) == ["format", "labels", "nodes", "terms"]
    assert obj["labels"] == ["a", "0"]
    assert {len(row) for row in obj["nodes"]} == {6}
    rule, _, _, start, end, n = obj["nodes"][0]
    assert (rule, obj["labels"][start:end], n) == ("StA-Eff", ["a", "0"], 1)
    assert derivation_from_json(obj) == d


def test_json_string_form_is_actual_json():
    d = bigstop_eval(parse_expr("(fun f(x) => x) z"), 1).derivation
    parsed = json.loads(derivation_to_json_str(d))
    assert parsed["nodes"][0][0] == d.rule


def _round_trip(d):
    return derivation_from_json(derivation_to_json_str(d))


def test_every_forgery_round_trips_to_itself_and_its_verdict():
    for name, dialect, d in _twenty_mutations():
        for _, node in _nodes(d):
            back = _round_trip(node)
            assert back == node, name
            assert check_derivation(back, dialect) == check_derivation(node, dialect), name


def test_traces_that_are_no_span_of_the_run_round_trip():
    e = parse_expr("(fun f(x) => eff[t] eff[u] f x) z")
    d1 = bigstop_eval(e, 3).derivation
    composed = compose(d1, bigstop_eval(d1.rhs, 4).derivation)  # spans of two logs
    assert composed == bigstop_eval(e, 7).derivation
    other_log = mut(d1, trace=Span(["x", *d1.trace.log], 1, 1 + len(d1.trace)))
    forged = mut(d1, trace=("0", "t"))
    for d in (composed, other_log, forged):
        back = _round_trip(d)
        assert back == d
        assert check_derivation(back) == check_derivation(d)
    assert check_derivation(forged) is not None


def test_a_file_holds_each_label_once_and_each_term_text_once():
    obj = derivation_to_json(bigstop_eval(LOOP, 200).derivation)
    assert obj["labels"] == ["t"] * 100
    assert len(obj["terms"]) == len(set(obj["terms"]))


def test_file_size_grows_linearly_with_the_budget():
    # each node writing its whole trace made the file 3.59 times as large
    size = {b: len(derivation_to_json_str(bigstop_eval(LOOP, b).derivation)) for b in (800, 1600)}
    assert size[1600] <= 2.2 * size[800], size


def test_derivation_files_deeper_than_the_recursion_limit_round_trip(at_recursion_limit_1000):
    d = bigstop_eval(LOOP, 3000).derivation
    assert _depth(d) > 2000

    def round_trip():
        back = derivation_from_json(derivation_to_json_str(d))
        return back, check_derivation(back)

    back, verdict = at_recursion_limit_1000(round_trip=round_trip)["round_trip"]
    assert verdict is None
    assert back is not d and _same(back, d)


def _edit(path, value):
    """A change to GOOD_FILE: set the entry at path (None: delete it)."""
    def change(obj):
        *up, last = path
        for key in up:
            obj = obj[key]
        if value is None:
            del obj[last]
        else:
            obj[last] = value
    return change


# eff[a] z at budget 4: terms ["eff[a] z", "z"], labels ["a"], and rows
# ["StE-Eff", 0, 1, 0, 1, 1], ["St-Stop(0)", 1, 1, 0, 0, 0]
GOOD_FILE = derivation_to_json(bigstop_eval(parse_expr("eff[a] z"), 4).derivation)
FORMAT_ERRORS = {  # case: (the change, what the error says)
    "missing format": (_edit(["format"], None), "format"),
    "unknown format": (_edit(["format"], 1), "format"),
    "term index out of range": (_edit(["nodes", 1, 1], 2), "term index out of range"),
    "negative term index": (_edit(["nodes", 0, 2], -1), "term index out of range"),
    "trace end out of range": (_edit(["nodes", 0, 4], 2), "bounds out of range"),
    "negative trace start": (_edit(["nodes", 0, 3], -1), "bounds out of range"),
    "trace starts after it ends": (_edit(["nodes", 1, 3], 1), "starts after it ends"),
    "premisses run past the last row": (_edit(["nodes", 1, 5], 1), "past the last row"),
    "rows left over": (_edit(["nodes", 0, 5], 0), "2 trees"),
    "no rows": (_edit(["nodes"], []), "0 trees"),
    "term text does not parse": (_edit(["terms", 1], "s("), "term 1 does not parse"),
    "index that is not an integer": (_edit(["nodes", 0, 1], 0.0), "integers"),
    "row of the wrong length": (_edit(["nodes", 1], ["Val", 1, 1, 0]), "entries"),
    "missing table": (_edit(["labels"], None), "malformed"),
    "term that is no string": (_edit(["terms", 0], 0), "strings"),
    "a 7-entry row": (_edit(["nodes", 0], ["StE-Eff", 0, 1, 0, 1, True, 1]), "6 entries"),
    "a format-2 header": (_edit(["format"], 2), "not a format 3"),
}


@pytest.mark.parametrize("case", sorted(FORMAT_ERRORS))
def test_every_malformed_file_raises_one_error(case):
    assert derivation_from_json(GOOD_FILE) is not None
    change, says = FORMAT_ERRORS[case]
    obj = json.loads(json.dumps(GOOD_FILE))
    change(obj)
    for form in (obj, json.dumps(obj)):
        with pytest.raises(DerivationFormatError, match=says):
            derivation_from_json(form)


@pytest.mark.parametrize("junk", ["", "[1, 2", "[]", "null", '{"format": 2}'])
def test_input_that_is_no_file_raises_the_same_error(junk):
    with pytest.raises(DerivationFormatError):
        derivation_from_json(junk)
    assert issubclass(DerivationFormatError, ValueError)


def test_json_nested_past_the_recursion_limit_raises_the_same_error(at_recursion_limit_1000):
    def decode():
        try:
            derivation_from_json("[" * 5000 + "]" * 5000)
        except DerivationFormatError as err:
            return str(err)

    assert "nested too deeply" in at_recursion_limit_1000(decode=decode)["decode"]


@pytest.mark.parametrize("text, deep", [
    ("[[[]]]", False),
    ("[[[[]]]]", True),
    ("{[{[]}]}", True),
    ('["eff[a] [[[[ {{{{"]', False),  # term text holds brackets
    ('["\\"[[[[", "[[[["]', False),  # an escaped quote stays inside its string
    ('["\\\\"[[[[]]]]]', True),  # an escaped backslash does not
    ('"[[[[', False),  # an unterminated string runs to the end
    ("[1, 2", False),
    ("]]]][[[", False),
    ("[" * 5_000, True),  # 99,000 would crash the decoder: see test_cli
])
def test_json_deeper_than_the_format_is_refused_before_decoding(text, deep):
    assert bigstop.bigstop._nested_too_deeply(text) is deep
    with pytest.raises(DerivationFormatError, match="nested too deeply" if deep else None):
        derivation_from_json(text)


### span traces

LOOP = parse_expr("(fun f(x) => eff[t] f x) z")  # omega that emits t per turn


def _at(d, path):
    for i in path:
        d = d.premises[i]
    return d


def _replace_at(d, path, node):
    if not path:
        return node
    ps = list(d.premises)
    ps[path[0]] = _replace_at(ps[path[0]], path[1:], node)
    return mut(d, premises=tuple(ps))


def _nodes(d):
    """(path, node) for every node, in preorder."""
    out, todo = [], [(d, ())]
    while todo:
        node, path = todo.pop()
        out.append((path, node))
        todo += [(p, path + (i,)) for i, p in reversed(list(enumerate(node.premises)))]
    return out


def _eff_paths(d):
    """Paths of the StE-Eff nodes, in preorder."""
    return [path for path, node in _nodes(d) if node.rule == "StE-Eff"]


def test_results_keep_tuple_traces_and_nodes_hold_spans():
    r = bigstop_eval(LOOP, 40)
    assert type(r.trace) is tuple and r.trace == ("t",) * 20
    assert isinstance(r.derivation.trace, Span) and r.derivation.trace == r.trace
    assert type(ec_bigstop_eval(LOOP, 40).trace) is tuple
    assert type(annihilator_eval(LOOP, 40)[1].prefix) is tuple
    quiet = bigstop_eval(parse_expr("(fun f(x) => f x) z"), 20).derivation
    assert type(quiet.trace) is tuple and quiet.trace == ()


def test_forged_span_is_rejected_where_the_forged_tuple_is():
    d = bigstop_eval(LOOP, 40).derivation
    path = _eff_paths(d)[5]
    node = _at(d, path)
    sp = node.trace
    assert isinstance(sp, Span)
    relabelled = list(sp.log)
    relabelled[sp.start + 1] = "u"
    forged = Span(relabelled, sp.start, sp.end)
    assert len(forged) == len(sp) and forged != sp
    by_tuple = check_derivation(_replace_at(d, path, mut(node, trace=tuple(forged))))
    by_span = check_derivation(_replace_at(d, path, mut(node, trace=forged)))
    assert by_tuple is not None
    assert by_span == by_tuple
    assert by_span.path == path[:-1]  # the enclosing StE-App composes the trace first


def test_span_with_the_same_labels_elsewhere_in_the_log_is_accepted():
    d = bigstop_eval(LOOP, 40).derivation
    path = _eff_paths(d)[5]
    node = _at(d, path)
    sp = node.trace
    moved = Span(sp.log, sp.start - 2, sp.end - 2)
    assert moved == sp
    assert check_derivation(_replace_at(d, path, mut(node, trace=moved))) is None


def test_a_deep_violation_reports_its_full_path():
    d = bigstop_eval(parse_expr("s((fun f(x) => eff[t] f x) z)"), 400).derivation
    path = _eff_paths(d)[-1]
    assert len(path) > 300 and path[0] == 0  # under s, then down the loop
    v = check_derivation(_replace_at(d, path, mut(_at(d, path), rule="StE-Bogus")))
    assert v.path == path
    assert "unknown rule" in v.reason


def test_json_string_form_is_one_line_and_round_trips():
    d = bigstop_eval(LOOP, 60).derivation
    text = derivation_to_json_str(d)
    assert "\n" not in text
    back = derivation_from_json(text)
    assert back == d
    assert check_derivation(back) is None


def _peak_bytes(budget):
    # a collection empties the free lists that can hand out objects without
    # a traced allocation; one that lands inside only one of the two
    # measured windows would inflate that window's peak alone
    gc.collect()
    tracemalloc.start()
    try:
        assert check_derivation(bigstop_eval(LOOP, budget).derivation) is None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_and_check_memory_grows_linearly_with_the_budget():
    # a trace copied into every node, or a path tuple in every checker
    # frame, makes the peak grow with the square of the budget (ratio 4)
    small, large = _peak_bytes(1000), _peak_bytes(2000)
    assert large <= 2.5 * small, (small, large)


### one rule table, walked without recursion

def test_the_twenty_forgeries_are_rejected_at_the_root():
    # the paths the four hand-written checkers gave for acceptance test 04's
    # forgeries: each breaks the node it was made at, the root
    got = [check_derivation(d, dialect=dialect) for _, dialect, d in _twenty_mutations()]
    assert [v.path for v in got] == [()] * 20


BUILD = {
    "plain": lambda e, b: bigstop_eval(e, b).derivation,
    "mnf": lambda e, b: mnf_bigstop_eval(to_mnf(e), b).derivation,
    "ec": lambda e, b: ec_bigstop_eval(e, b).derivation,
    "annihilator": annihilator_derivation,
}


@pytest.mark.parametrize("dialect", sorted(BUILD))
def test_dropping_any_premiss_is_rejected_at_its_node(dialect):
    dropped = 0
    for e in enumerate_exprs(5):
        for budget in (1, 3, 6):
            d = BUILD[dialect](e, budget)
            assert check_derivation(d, dialect) is None
            for path, node in _nodes(d):
                for j in range(len(node.premises)):
                    cut = mut(node, premises=node.premises[:j] + node.premises[j + 1:])
                    v = check_derivation(_replace_at(d, path, cut), dialect)
                    assert v is not None and v.path == path, (print_expr(e), budget, path, j)
                    dropped += 1
    assert dropped > 100


@pytest.mark.parametrize("dialect", sorted(BUILD))
def test_evaluator_derivations_round_trip(dialect):
    for e in enumerate_exprs(4):
        for budget in (0, 1, 3, 6):
            d = BUILD[dialect](e, budget)
            back = _round_trip(d)
            assert back == d, (print_expr(e), budget)
            assert check_derivation(back, dialect) is None, (print_expr(e), budget)


### shared leaves and traces taken from the log

# the rules that put the lhs's label before their premisses' traces
EMITS = {"StE-Eff", "EC-Eff", "StM-Eff"}


@pytest.mark.parametrize("dialect", ["plain", "ec", "mnf"])
def test_every_node_emits_its_premisses_traces_in_order(dialect):
    # a node's trace is taken from the run's log at its entry and exit; it
    # must still be its label, where the rule emits, then its premisses'
    nodes = 0
    for e in enumerate_exprs(5):
        for budget in range(7):
            for path, node in _nodes(BUILD[dialect](e, budget)):
                want = (node.lhs.label,) if node.rule in EMITS else ()
                for p in node.premises:
                    want += tuple(p.trace)
                assert tuple(node.trace) == want, (print_expr(e), budget, path)
                nodes += 1
    assert nodes > 5_000


@pytest.mark.parametrize("dialect", sorted(BUILD))
def test_a_long_loop_has_a_handful_of_leaf_objects(dialect):
    # a run keeps one leaf per rule and term object: omega's 8,000
    # contractions meet the same few terms over and over
    d = BUILD[dialect](LOOP, 8000)
    positions = list(bigstop.bigstop._nodes(d))
    leaves = {id(n) for n in positions if not n.premises}
    assert len(leaves) <= 5
    assert len(positions) > 12_000  # a leaf is still one node per position
    assert check_derivation(d, dialect) is None


def test_an_invalid_node_at_two_positions_is_rejected_at_the_first():
    d = bigstop_eval(LOOP, 8).derivation
    # the St-Stop(0) leaf at the loop's function sits once in each turn
    shared = [(path, node) for path, node in _nodes(d)
              if node.rule == "St-Stop(0)" and isinstance(node.lhs, Lam)]
    assert len(shared) >= 3 and len({id(node) for _, node in shared}) == 1
    (first, leaf), (second, _) = shared[1], shared[2]
    bad = mut(leaf, premises=(leaf,))
    alone = check_derivation(_replace_at(d, first, bad))
    assert (alone.path, alone.reason) == (first, "St-Stop(0) wants 0 premisses, got 1")
    later = check_derivation(_replace_at(d, second, bad))
    assert later.path == second
    assert check_derivation(_replace_at(_replace_at(d, first, bad), second, bad)) == alone
    # siblings: the argument's leaf is the body's, and the first is reported
    ident = bigstop_eval(parse_expr("(fun g(y) => y) z"), 1).derivation
    p1, p2, val, pb = ident.premises
    assert p2 is pb
    bad = mut(p2, premises=(p2,))
    v = check_derivation(mut(ident, premises=(p1, bad, val, bad)))
    assert (v.path, v.reason) == ((1,), "St-Stop(0) wants 0 premisses, got 1")


def test_a_decoded_file_makes_equal_subterms_one_object():
    countdown = App(parse_expr("fun f(x) => case x { z => z | s(m) => eff[t] f m }"),
                    Succ(Succ(Succ(Zero()))))
    for d in (bigstop_eval(countdown, 11).derivation, mnf_bigstop_eval(to_mnf(countdown), 20).derivation):
        back = _round_trip(d)
        assert back == d
        by_value: dict = {}
        for _, node in _nodes(back):
            todo = [node.lhs, node.rhs]
            while todo:
                t = todo.pop()
                by_value.setdefault(t, set()).add(id(t))
                todo += [kid for kid, _ in scoped_children(t)]
        assert len(by_value) > 10  # the numerals and their predecessors among them
        assert all(len(ids) == 1 for ids in by_value.values())


REDEX = parse_expr("(fun f(x) => x) z")


@pytest.mark.parametrize("dialect", sorted(BUILD))
def test_only_a_contraction_is_progress_in_every_dialect(dialect):
    assert not is_progressing(BUILD[dialect](REDEX, 0))
    assert is_progressing(BUILD[dialect](REDEX, 1))


def _leaf(rule, t, trace=()):
    return Derivation(rule, t, t, trace, ())


LET = parse_expr("let x = (fun f(x) => x) z in x")
# valid congruence nodes whose premisses contract nothing
IDLE_CONGRUENCES = {
    "ec": Derivation("EC-Seq", REDEX, REDEX, (), (_leaf("EC-Stop", REDEX), _leaf("EC-Stop", REDEX))),
    "mnf": Derivation("StM-Let1", LET, LET, (), (_leaf("StM-Stop", REDEX),)),
    "annihilator": Derivation(
        "StA-Succ", Succ(Zero()), Succ(Zero()), (), (_leaf("StA-Val", Zero()),),
    ),
}


@pytest.mark.parametrize("dialect", sorted(IDLE_CONGRUENCES))
def test_a_congruence_over_idle_premisses_is_not_progress(dialect):
    d = IDLE_CONGRUENCES[dialect]
    assert check_derivation(d, dialect) is None
    assert not is_progressing(d)


def _depth(d):
    depth, todo = 0, [(d, 1)]
    while todo:
        node, k = todo.pop()
        depth = max(depth, k)
        todo += [(p, k + 1) for p in node.premises]
    return depth


def _same(a, b):
    """a == b for derivations and terms, with an explicit stack: `==`
    recurses in C once per level, which overflows on Python 3.12 for a
    derivation a few thousand nodes deep."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if isinstance(a, tuple):
            if len(a) != len(b):
                return False
            todo += zip(a, b)
        elif dataclasses.is_dataclass(a):
            todo += [(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)]
        elif a != b:
            return False
    return True


def test_derivations_deeper_than_the_recursion_limit_check(at_recursion_limit_1000):
    plain = bigstop_eval(LOOP, 3000).derivation
    mnf = mnf_bigstop_eval(to_mnf(LOOP), 3000).derivation
    assert min(_depth(plain), _depth(mnf)) > 2000
    chain = parse_expr("(fun f(x) => x) z")
    for _ in range(3000):
        chain = Succ(chain)
    stop1 = bigstop_eval(chain, 1).derivation  # 3,000 St-Stop(1) over one beta
    got = at_recursion_limit_1000(
        plain_verdict=lambda: check_derivation(plain),
        mnf_verdict=lambda: check_derivation(mnf, dialect="mnf"),
        progressing=lambda: is_progressing(stop1),
        ec_verdict=lambda: check_derivation(ec_bigstop_eval(LOOP, 5000).derivation, "ec"),
    )
    assert got["plain_verdict"] is None
    assert got["ec_verdict"] is None
    assert got["mnf_verdict"] is None
    assert got["progressing"] is True


def _runs_deep(e, n):
    """Each tree evaluator's run of e at budget n, checked in its dialect:
    (verdict, stopped term) per evaluator, the trees dropped."""
    plain = bigstop_eval(e, n)
    ann = annihilator_derivation(e, n)
    mnf = mnf_bigstop_eval(to_mnf(e), n)
    return [
        (check_derivation(plain.derivation), plain.stopped),
        (check_derivation(ann, "annihilator"), ann.rhs),
        (check_derivation(mnf.derivation, "mnf"), mnf.stopped),
    ]


def test_the_tree_evaluators_run_deeper_than_the_recursion_limit(at_recursion_limit_1000):
    # each evaluator is one loop over a stack of frames: GROW nests its
    # redex 1,200 contexts deep, LOOP's trees are 200,000 levels deep
    got = at_recursion_limit_1000(
        grow=lambda: _runs_deep(GROW, 1200),
        loop=lambda: _runs_deep(LOOP, 200_000),
    )
    # the annihilator cuts the last redex to z, GROW's under 1,199 s(.)
    for name, e, n, cut_to in (("grow", GROW, 1200, numeral(1199)), ("loop", LOOP, 200_000, Zero())):
        (plain, stopped), (ann, cut), (mnf, mnf_stopped) = got[name]
        assert plain is ann is mnf is None
        assert _same(stopped, multi_step(e, n).final)
        assert _same(cut, cut_to)
        assert _same(mnf_stopped, mnf_multi_step(to_mnf(e), n).final)


def _same_runs_of_loop(a, b):
    """_same for two derivations of LOOP, whose logs hold only t: two of
    its traces are equal when their lengths are.  Comparing spans label by
    label at every node would take the square of the run."""
    logs, todo = {}, [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if (a.rule, len(a.trace), len(a.premises)) != (b.rule, len(b.trace), len(b.premises)):
            return False
        if not (_same(a.lhs, b.lhs) and _same(a.rhs, b.rhs)):
            return False
        for t in (a.trace, b.trace):
            labels = t.log if type(t) is Span else t
            logs[id(labels)] = labels
        todo += zip(a.premises, b.premises)
    return all(set(labels) <= {"t"} for labels in logs.values())


def test_compose_runs_deeper_than_the_recursion_limit(at_recursion_limit_1000):
    # compose is one loop over a stack of jobs; LOOP's runs at 100,000
    # contractions each nest 100,000 levels deep
    def composed():
        d1 = bigstop_eval(LOOP, 100_000).derivation
        d = compose(d1, bigstop_eval(d1.rhs, 100_000).derivation)
        return _same_runs_of_loop(d, bigstop_eval(LOOP, 200_000).derivation), check_derivation(d)

    assert at_recursion_limit_1000(composed=composed)["composed"] == (True, None)


### README's Python examples

def test_readme_python_blocks_run_and_print_what_they_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    quick_start, checked = blocks
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start, namespace)
    said = [line[2:] for line in quick_start.splitlines() if line.startswith("# ")]
    assert len(said) == 4
    assert out.getvalue().splitlines() == said
    with contextlib.redirect_stdout(io.StringIO()):
        exec(checked, namespace)  # its assert holds, in the Quick start's namespace
