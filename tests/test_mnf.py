"""Monadic normal form: the translation, its erasure inverse, and the
dedicated engines."""

import gc
import re

import pytest

from bigstop import (
    Lam,
    Let,
    NotMNF,
    RunStatus,
    StuckError,
    Var,
    alpha_eq,
    check_derivation,
    check_mnf,
    enumerate_exprs,
    let_erase,
    mnf_bigstop_eval,
    mnf_multi_step,
    mnf_small_step,
    multi_step,
    parse_expr,
    print_expr,
    to_mnf,
)
from bigstop.syntax import SubstOpenValue
from test_bigstop import ALLOC, COUNTDOWN, LOOP, ZZ, collections_during, collector, garbage_left  # noqa: F401


### translation goldens

def test_nonvalue_under_successor_gets_let_bound():
    m = to_mnf(parse_expr("s((fun f(x) => x) z)"))
    assert print_expr(m) == "let t0 = (fun f(x) => x) z in s(t0)"


def test_nested_application_sequences_left_to_right():
    m = to_mnf(parse_expr("((fun f(x) => x) (fun g(y) => y)) z"))
    assert print_expr(m) == (
        "let t0 = (fun f(x) => x) (fun g(y) => y) in t0 z"
    )


def test_case_scrutinee_gets_a_name():
    m = to_mnf(parse_expr("case (fun f(x) => x) s(z) { z => z | s(n) => n }"))
    assert print_expr(m) == (
        "let t0 = (fun f(x) => x) s(z) in case t0 { z => z | s(n) => n }"
    )


def test_effect_bodies_stay_in_place():
    # an effect node already sequences, no extra let needed
    m = to_mnf(parse_expr("eff[a] ((fun f(x) => x) z)"))
    assert print_expr(m) == "eff[a] (fun f(x) => x) z"
    assert check_mnf(m)


def test_fresh_names_dodge_existing_ones():
    m = to_mnf(parse_expr("s((fun t0(x) => x) z)"))
    assert print_expr(m) == "let t1 = (fun t0(x) => x) z in s(t1)"


def test_values_translate_to_themselves():
    for src in ("z", "s(s(z))", "fun f(x) => x"):
        e = parse_expr(src)
        assert to_mnf(e) == e


### shape checking, erasure, idempotence

def test_translation_output_always_checks():
    raw = parse_expr("((fun f(x) => x) (fun g(y) => y)) z")
    assert not check_mnf(raw)
    assert check_mnf(to_mnf(raw))


def test_erasure_inverts_translation_over_the_enumeration():
    seen = 0
    for e in enumerate_exprs(5):
        m = to_mnf(e)
        assert check_mnf(m)
        assert alpha_eq(let_erase(m), e)
        assert to_mnf(m) == m          # already-normal terms are fixed points
        seen += 1
    assert seen > 500


def test_erasure_renames_to_avoid_capture():
    # inlining x under a binder named x must not capture
    m = Let("y", Var("x"), Lam("_", "x", Var("y")))
    out = let_erase(m)
    assert print_expr(out) == "fun _(x_0) => x"


### small and multi step

def test_let_of_value_substitutes_in_one_step():
    r = mnf_small_step(parse_expr("let x = s(z) in s(x)"))
    assert r.expr == parse_expr("s(s(z))")
    assert r.trace == ()


def test_descent_into_the_bound_term_is_free():
    # one counted step reduces inside the let binding
    r = mnf_small_step(parse_expr("let x = (fun f(y) => y) z in s(x)"))
    assert r.expr == parse_expr("let x = z in s(x)")


def test_small_step_is_none_on_values_and_stuck_terms():
    assert mnf_small_step(parse_expr("s(z)")) is None
    assert mnf_small_step(parse_expr("z z")) is None


def test_multi_walks_the_let_chain():
    e = parse_expr("let x = (fun f(y) => y) z in s(x)")
    states = [
        (0, "let x = (fun f(y) => y) z in s(x)", RunStatus.OUT_OF_BUDGET),
        (1, "let x = z in s(x)", RunStatus.OUT_OF_BUDGET),
        (2, "s(z)", RunStatus.REACHED_VALUE),
        (3, "s(z)", RunStatus.REACHED_VALUE),
    ]
    for budget, expect, status in states:
        r = mnf_multi_step(e, budget)
        assert print_expr(r.final) == expect
        assert r.status is status


def test_multi_reports_stuck():
    assert mnf_multi_step(parse_expr("z z"), 3).status is RunStatus.STUCK


### budgeted evaluator

def test_bigstop_rejects_raw_terms():
    src = "(fun f(x) => x) (fun g(y) => y) z"
    with pytest.raises(NotMNF, match=f"^not in monadic normal form: {re.escape(src)}$"):
        mnf_bigstop_eval(parse_expr(src), 3)


def test_bigstop_reports_open_terms_as_stuck_or_open():
    # the grammar is checked once, up front; an open term is stuck like anywhere else
    for src in ("x z", "s(x)"):
        with pytest.raises(StuckError, match=f"stuck at {re.escape(src)}$"):
            mnf_bigstop_eval(parse_expr(src), 3)
    with pytest.raises(SubstOpenValue):
        mnf_bigstop_eval(parse_expr("(fun f(y) => x) z"), 3)


def test_bigstop_let_shapes():
    e = parse_expr("let x = (fun f(y) => y) z in s(x)")
    d = mnf_bigstop_eval(e, 1).derivation
    assert d.rule == "StM-Let1"                 # ran out before the bind fired
    assert [p.rule for p in d.premises] == ["StM-App"]
    assert print_expr(d.rhs) == "let x = z in s(x)"
    d = mnf_bigstop_eval(e, 2).derivation
    assert d.rule == "StM-Let2"
    assert print_expr(d.rhs) == "s(z)"
    assert check_derivation(d, dialect="mnf") is None


def test_bigstop_budget_zero_stops():
    e = parse_expr("let x = z in x")
    d = mnf_bigstop_eval(e, 0).derivation
    assert d.rule == "StM-Stop"
    assert d.rhs == e


def test_bigstop_tracks_multi_exactly():
    # every term of enumerate_exprs(6), and one with labels in three places,
    # at budgets 0-10: the MNF tree engine stops where the MNF stepper does,
    # with its trace, and its tree checks
    terms = [*enumerate_exprs(6), parse_expr("eff[a] ((fun f(x) => eff[b] s(x)) (eff[c] z))")]
    cases = 0
    for e in terms:
        m = to_mnf(e)
        for budget in range(11):
            r = mnf_bigstop_eval(m, budget)
            want = mnf_multi_step(m, budget)
            assert (r.stopped, r.trace) == (want.final, want.trace), (print_expr(m), budget)
            assert check_derivation(r.derivation, "mnf") is None, (print_expr(m), budget)
            cases += 1
    assert cases == 31_724


### the translation preserves behaviour

def test_traces_survive_translation():
    src = parse_expr("eff[a] ((fun f(x) => eff[b] s(x)) (eff[c] z))")
    plain = multi_step(src, 64)
    image = mnf_multi_step(to_mnf(src), 64)
    assert plain.trace == image.trace == ("a", "c", "b")
    assert plain.status is image.status is RunStatus.REACHED_VALUE
    assert alpha_eq(let_erase(image.final), plain.final)
    # the let substitution is one extra counted step, so totals may differ
    assert image.steps == plain.steps + 1


def test_divergence_survives_translation():
    loop = parse_expr("(fun f(x) => f x) z")
    assert multi_step(loop, 50).status is RunStatus.OUT_OF_BUDGET
    assert mnf_multi_step(to_mnf(loop), 50).status is RunStatus.OUT_OF_BUDGET


### the collector is paused while a tree is built

IMAGES = {name: to_mnf(e) for name, e in (("loop", LOOP), ("countdown", COUNTDOWN), ("alloc", ALLOC))}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_the_engine_leaves_the_collector_as_it_found_it(enabled, collector):
    (gc.enable if enabled else gc.disable)()
    mnf_bigstop_eval(IMAGES["loop"], 40)
    assert gc.isenabled() is enabled
    with pytest.raises(StuckError):
        mnf_bigstop_eval(to_mnf(ZZ), 3)
    assert gc.isenabled() is enabled


def test_no_collection_starts_while_the_engine_builds_a_long_tree():
    starts = collections_during(mnf_bigstop_eval, IMAGES["loop"], 20_000)
    assert not starts, f"{len(starts)} collections started"


def test_a_dropped_tree_holds_no_cycle_but_a_fresh_function_cache(collector):
    # the images are kept, so only what the run made is dropped
    gc.enable()
    assert garbage_left(mnf_bigstop_eval, IMAGES["loop"], 4000) == 0
    assert garbage_left(mnf_bigstop_eval, IMAGES["countdown"], 4000) == 0
    left = [garbage_left(mnf_bigstop_eval, IMAGES["alloc"], n) for n in (1000, 4000)]
    assert 0 < left[0] == left[1] <= 10
