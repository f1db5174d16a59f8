"""Budgeted evaluator: derivation shapes, the checker, strictness, composition,
and the two alternate dialects (annihilator traces, context-threading)."""

import dataclasses
import gc
import json
import sys
import tracemalloc

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
    NotStrict,
    RunStatus,
    Stuck,
    StuckError,
    Succ,
    TypeFailure,
    Var,
    Zero,
    annihilator_derivation,
    annihilator_eval,
    big_step,
    bigstep_to_strict,
    bigstop_eval,
    check_bigstep,
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
    is_strict,
    is_value,
    k_run,
    mnf_bigstop_eval,
    mnf_multi_step,
    multi_step,
    numeral,
    parse_expr,
    plug,
    print_expr,
    strict_to_bigstep,
    to_mnf,
)
from bigstop.smallstep import AppArgC, AppFnC, CaseC, Hole, SuccC
from bigstop.syntax import rebuild, scoped_children
from bigstop.traces import Span
from test_acceptance import _twenty_mutations


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
    assert is_strict(d)


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
    d = bigstop_eval(parse_expr("eff[a] z"), 1).derivation
    foreign = annihilator_derivation(parse_expr("z"), 1)  # StA-Val, trace AnnTrace
    assert foreign.lhs == d.premises[0].lhs
    v = check_derivation(mut(d, premises=(foreign,)))
    assert v is not None
    assert v.path == ()


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


### strict trees convert to and from ordinary big-step trees

def test_converged_run_is_strict_and_converts():
    e = parse_expr("eff[a] ((fun f(x) => s(x)) z)")
    d = bigstop_eval(e, 8).derivation
    assert is_strict(d)
    bs = strict_to_bigstep(d)
    assert bs.rule == "BE-Eff"
    assert [p.rule for p in bs.premises] == ["BE-App"]
    assert check_bigstep(bs) is None
    assert bigstep_to_strict(bs) == d


def test_value_leaf_converts():
    d = bigstop_eval(parse_expr("s(z)"), 0).derivation
    assert is_strict(d)
    assert strict_to_bigstep(d).rule == "BE-Val"


def test_budget_cut_trees_are_not_strict():
    d = bigstop_eval(corpus_term("leroy-grall"), 1).derivation
    assert not is_strict(d)
    with pytest.raises(NotStrict) as exc:
        strict_to_bigstep(d)
    assert exc.value.path == ()


def test_nonvalue_stop_at_zero_is_not_strict():
    d = bigstop_eval(parse_expr("(fun f(x) => x) z"), 0).derivation
    assert not is_strict(d)


def test_round_trip_on_a_sweep():
    e = parse_expr("case (fun f(x) => s(x)) z { z => z | s(n) => eff[hit] n }")
    # find the convergence point, then convert everything at or past it
    base = multi_step(e, 64).steps
    for budget in range(base, base + 3):
        d = bigstop_eval(e, budget).derivation
        assert is_strict(d)
        assert bigstep_to_strict(strict_to_bigstep(d)) == d


### composition is exact, not just sound

def test_compose_reproduces_the_single_run():
    e = parse_expr("eff[a] ((fun f(x) => x) (eff[b] s(z)))")
    for m in range(4):
        for n in range(4):
            d1 = bigstop_eval(e, m).derivation
            d2 = bigstop_eval(d1.rhs, n).derivation
            assert compose(d1, d2) == bigstop_eval(e, m + n).derivation


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


def test_compose_rejects_mismatched_endpoints():
    d1 = bigstop_eval(parse_expr("eff[a] z"), 0).derivation
    d2 = bigstop_eval(parse_expr("z"), 1).derivation
    with pytest.raises(ComposeMismatch):
        compose(d1, d2)


### annihilator dialect: cut runs end in an absorbing marker

def test_annihilated_value_is_demand_shaped():
    out, tr = annihilator_eval(parse_expr("(fun f(x) => x) (fun g(y) => y)"), 0)
    assert out == Lam("_", "x", Var("x"))     # arrow demanded, arrow supplied
    assert tr == AnnTrace((), True)
    assert str(tr) == "0"


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
    d = annihilator_derivation(parse_expr("eff[a] eff[b] z"), 1, demand="nat")
    assert d.rule == "StA-Eff"
    assert [p.rule for p in d.premises] == ["StA-Stop"]
    assert d.trace == AnnTrace(("a",), True)
    assert check_derivation(d, dialect="annihilator") is None


def _demand_of(e):
    try:
        return "fn" if isinstance(infer_type(e), ArrowT) else "nat"
    except TypeFailure:
        return "nat"


def test_the_default_demand_is_the_inferred_one():
    for e in enumerate_exprs(5):
        d = _demand_of(e)
        for budget in range(11):
            assert annihilator_derivation(e, budget) == annihilator_derivation(
                e, budget, demand=d), (print_expr(e), budget)


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
    """Every (context, subterm) split of e along the evaluation spine.  The
    EC-Seq check searched this list before it walked both terms together;
    it stays here as the reference for that walk."""
    out = [(Hole(), e)]
    c = type(e)
    if c is App:
        out += [(AppFnC(k, e.arg), s) for k, s in _spine_splits(e.fn)]
        if is_value(e.fn):
            out += [(AppArgC(e.fn, k), s) for k, s in _spine_splits(e.arg)]
    elif c is Succ:
        out += [(SuccC(k), s) for k, s in _spine_splits(e.body)]
    elif c is Case:
        zb, xv, sb = e.zero_branch, e.succ_var, e.succ_branch
        out += [(CaseC(zb, xv, sb, k), s) for k, s in _spine_splits(e.scrutinee)]
    return out


def _fits_by_search(d):
    p1, p2 = d.premises
    return any(
        sub == p1.lhs and plug(ctx, p1.rhs) == p2.lhs for ctx, sub in _spine_splits(d.lhs)
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
    assert obj["format"] == 2
    assert obj["terms"] == ["eff[a] z", "z"]
    assert obj["labels"] == ["a"]
    # rule, lhs, rhs, trace start and end, premiss count; in preorder
    assert obj["nodes"] == [["StE-Eff", 0, 1, 0, 1, 1], ["St-Stop(0)", 1, 1, 0, 0, 0]]
    assert derivation_from_json(obj) == d


def test_json_round_trip_annihilated():
    d = annihilator_derivation(parse_expr("eff[a] eff[b] z"), 1, demand="nat")
    obj = json.loads(derivation_to_json_str(d))
    assert sorted(obj.keys()) == ["format", "labels", "nodes", "terms"]
    assert obj["labels"] == ["a"]
    rule, _, _, start, end, cut, n = obj["nodes"][0]
    assert (rule, obj["labels"][start:end], cut, n) == ("StA-Eff", ["a"], True, 1)
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
    cross = mut(d1, trace=AnnTrace(d1.trace, False))  # another dialect's trace
    for d in (composed, other_log, forged, cross):
        back = _round_trip(d)
        assert back == d
        assert check_derivation(back) == check_derivation(d)
    assert type(_round_trip(cross).trace) is AnnTrace
    assert check_derivation(forged) is not None and check_derivation(cross) is not None


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
    "cut flag that is not a boolean": (_edit(["nodes", 0], ["StA-Eff", 0, 1, 0, 1, 1, 1]), "cut flag"),
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
        "StA-Succ", Succ(Zero()), Succ(Zero()), AnnTrace(), (_leaf("StA-Val", Zero(), AnnTrace()),),
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
    countdown = App(parse_expr("fun f(x) => case x { z => z | s(m) => eff[t] f m }"), numeral(1000))
    strict = bigstop_eval(countdown, 10**6).derivation
    assert min(_depth(plain), _depth(mnf), _depth(strict)) > 2000
    chain = parse_expr("(fun f(x) => x) z")
    for _ in range(3000):
        chain = Succ(chain)
    stop1 = bigstop_eval(chain, 1).derivation  # 3,000 St-Stop(1) over one beta
    got = at_recursion_limit_1000(
        plain_verdict=lambda: check_derivation(plain),
        mnf_verdict=lambda: check_derivation(mnf, dialect="mnf"),
        plain_strict=lambda: is_strict(plain),
        progressing=lambda: is_progressing(stop1),
        round_trip=lambda: bigstep_to_strict(strict_to_bigstep(strict)),
        ec_verdict=lambda: check_derivation(ec_bigstop_eval(LOOP, 5000).derivation, "ec"),
    )
    assert got["plain_verdict"] is None
    assert got["ec_verdict"] is None
    assert got["mnf_verdict"] is None
    assert got["plain_strict"] is False  # cut off inside the loop
    assert got["progressing"] is True
    assert got["round_trip"] is not strict and _same(got["round_trip"], strict)
