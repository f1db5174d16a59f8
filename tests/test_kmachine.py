"""Stack machine: transitions, read-back, invariants, and the differential
checks against the tree engines."""

import inspect
import sys
import textwrap

import pytest

from bigstop import (
    App,
    Expr,
    KRunResult,
    KStatus,
    RunStatus,
    Zero,
    compile,
    correspondence_check,
    corpus,
    corpus_term,
    enumerate_exprs,
    k_run,
    k_step,
    multi_step,
    numeral,
    parse_expr,
    print_expr,
    show_state,
    unwind,
    validate_state,
)
import bigstop.kmachine as kmachine
from bigstop.kmachine import (
    ArgF,
    FunF,
    MachineState,
    Mode,
    StuckState,
    halted,
)


def transcript(e):
    states = [compile(e)]
    while (r := k_step(states[-1])) is not None:
        states.append(r[0])
    return states


### loading and stepping

def test_loading_starts_in_eval_mode_with_an_empty_stack():
    st = compile(parse_expr("s(z)"))
    assert st.mode is Mode.EVAL
    assert st.stack == ()
    assert not halted(st)


def test_successor_transcript():
    # a numeral value is returned at once; a successor that is no value
    # pushes a frame, and the value its body reaches pops it
    got = [show_state(s) for s in transcript(parse_expr("s(z)"))]
    assert got == ["ε ▷ s(z)", "ε ◁ s(z)"]
    got = [show_state(s) for s in transcript(parse_expr("s(eff[a] z)"))]
    assert got == [
        "ε ▷ s(eff[a] z)",
        "ε;s(-) ▷ eff[a] z",
        "ε;s(-) ▷ z",
        "ε;s(-) ◁ z",
        "ε ◁ s(z)",
    ]


def test_a_numeral_of_any_size_is_returned_in_one_transition():
    # ε ◁ s(s(...)): the numeral, which is too deep to print, returned whole
    st = compile(numeral(10**5))
    nxt, emitted = k_step(st)
    assert (nxt.mode, nxt.stack, emitted) == (Mode.RETURN, (), ()) and nxt.expr is st.expr
    r = k_run(st, 1)
    assert (r.status, r.steps, r.trace) == (KStatus.FINAL, 1, ()) and r.state.expr is st.expr


def test_case_transcript_walks_scrutinee_then_branch():
    e = parse_expr("case s(z) { z => z | s(n) => eff[hit] n }")
    got = [show_state(s) for s in transcript(e)]
    assert got == [
        "ε ▷ case s(z) { z => z | s(n) => eff[hit] n }",
        "ε;case(-){z=>z|s(n)=>eff[hit] n} ▷ s(z)",
        "ε;case(-){z=>z|s(n)=>eff[hit] n} ◁ s(z)",
        "ε ▷ eff[hit] z",
        "ε ▷ z",
        "ε ◁ z",
    ]


def test_effects_emit_on_entry():
    r = k_run(compile(parse_expr("eff[a] eff[b] z")), 64)
    assert r.status is KStatus.FINAL
    assert r.trace == ("a", "b")
    assert r.state.expr == Zero()
    assert r.steps == 3


def test_step_returns_none_only_when_halted():
    final = transcript(parse_expr("z"))[-1]
    assert halted(final)
    assert k_step(final) is None


def test_free_variables_are_stuck():
    with pytest.raises(StuckState):
        k_step(compile(parse_expr("x")))


### run statuses

def test_values_need_one_step_to_halt():
    r = k_run(compile(parse_expr("z")), 0)
    assert r.status is KStatus.OUT_OF_BUDGET
    r = k_run(compile(parse_expr("z")), 1)
    assert r.status is KStatus.FINAL
    assert r.steps == 1


def test_halting_exactly_at_the_budget_counts_as_final():
    e = parse_expr("s(z)")
    n = k_run(compile(e), 99).steps
    assert k_run(compile(e), n).status is KStatus.FINAL


def test_divergence_is_out_of_budget():
    r = k_run(compile(corpus_term("omega")), 50)
    assert r.status is KStatus.OUT_OF_BUDGET
    assert r.steps == 50


COUNTDOWN = parse_expr("fun f(x) => case x { z => z | s(m) => eff[t] f m }")


def _single_steps(e, budget):
    """What k_run must return at each budget 0..budget, by single k_steps."""
    state, labels, out = compile(e), [], []
    for steps in range(budget + 1):
        if halted(state):
            final = KRunResult(state, tuple(labels), steps, KStatus.FINAL)
            return out + [final] * (budget + 1 - steps)
        out.append(KRunResult(state, tuple(labels), steps, KStatus.OUT_OF_BUDGET))
        try:
            state, tr = k_step(state)
        except StuckState:
            stuck = KRunResult(state, tuple(labels), steps, KStatus.STUCK)
            return out + [stuck] * (budget - steps)
        labels += tr
    return out


def test_run_equals_single_steps_at_every_budget():
    # at every budget, stuck and mid-successor states included, k_run must
    # land where single steps do
    terms = list(enumerate_exprs(5))
    terms += [t for _, t in corpus()]
    terms.append(App(COUNTDOWN, numeral(7)))
    for e in terms:
        want = _single_steps(e, 40)
        got = [k_run(compile(e), n) for n in range(41)]
        assert got == want, print_expr(e)


def _calls_in_run(n):
    st = compile(App(COUNTDOWN, numeral(n)))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        r = k_run(st, 10**9)
    finally:
        sys.setprofile(None)
    assert r.status is KStatus.FINAL
    return calls


def test_countdown_run_work_grows_linearly_with_the_numeral():
    # re-walking the numeral transition by transition makes the count grow
    # with the square of the numeral (ratio 4)
    small, large = _calls_in_run(100), _calls_in_run(200)
    assert large <= 2.5 * small, (small, large)


def test_bad_application_gets_stuck_mid_run():
    r = k_run(compile(parse_expr("z z")), 50)
    assert r.status is KStatus.STUCK
    assert show_state(r.state) == "ε;(z -) ◁ z"


### read-back and invariants

def test_unwind_reconstructs_the_focused_term():
    for st in transcript(parse_expr("case s(z) { z => z | s(n) => s(n) }")):
        e = unwind(st)
        # every configuration reads back to a term the tree engines accept
        assert multi_step(e, 64).status is RunStatus.REACHED_VALUE


def test_unwind_of_a_mid_successor_state():
    states = transcript(parse_expr("s(eff[a] z)"))
    assert [show_state(st) for st in states[2:4]] == ["ε;s(-) ▷ z", "ε;s(-) ◁ z"]
    assert [print_expr(unwind(st)) for st in states] == ["s(eff[a] z)"] * 2 + ["s(z)"] * 3


def test_states_reached_by_stepping_validate():
    e = parse_expr("eff[a] ((fun f(x) => s(x)) (case z { z => z | s(n) => n }))")
    for st in transcript(e):
        assert validate_state(st) is None


def test_validate_rejects_nonvalue_returns():
    bad = MachineState(Mode.RETURN, (), parse_expr("(fun f(x) => x) z"))
    assert "return mode" in validate_state(bad)


def test_validate_rejects_nonvalue_function_frames():
    bad = MachineState(
        Mode.EVAL, (ArgF(parse_expr("(fun f(x) => x) z")),), Zero()
    )
    assert "ArgF" in validate_state(bad)


def test_validate_accepts_pending_argument_frames():
    # FunF may hold arbitrary (unevaluated) arguments
    st = MachineState(Mode.EVAL, (FunF(parse_expr("eff[a] z")),), Zero())
    assert validate_state(st) is None


### agreement with the tree engines

CONVERGING = [
    "s(s(z))",
    "(fun f(x) => s(x)) z",
    "case (fun f(x) => x) s(z) { z => eff[no] z | s(n) => eff[yes] n }",
    "eff[a] ((fun f(x) => eff[b] x) (eff[c] s(z)))",
]


@pytest.mark.parametrize("src", CONVERGING)
def test_machine_and_tree_agree_on_values_and_traces(src):
    e = parse_expr(src)
    m = k_run(compile(e), 4096)
    t = multi_step(e, 4096)
    assert m.status is KStatus.FINAL
    assert t.status is RunStatus.REACHED_VALUE
    assert m.state.expr == t.final
    assert m.trace == t.trace


@pytest.mark.parametrize("src", CONVERGING)
def test_soundness_and_completeness_reports(src):
    e = parse_expr(src)
    assert correspondence_check(e, 64).ok
    assert correspondence_check(e, 16).ok


def test_reports_hold_on_divergers_contraction_by_contraction():
    assert correspondence_check(corpus_term("omega"), 24).ok
    assert correspondence_check(corpus_term("omega"), 8).ok
    spinner = App(corpus_term("alloc-unbounded"), parse_expr("s(z)"))
    assert correspondence_check(spinner, 24).ok
    assert correspondence_check(spinner, 8).ok


def test_stuck_runs_correspond():
    r = correspondence_check(parse_expr("(fun f(x) => x z) z"), 10)
    assert r.ok, r.detail
    assert r.detail.endswith("both are stuck")


def test_a_wrong_case_return_is_caught_at_its_contraction(monkeypatch):
    # k_run hands s(v) instead of v to the successor branch: no label
    # changes, only the term, and the term only from the second contraction;
    # the check walks k_run itself, so it is caught there
    right = "{top.succ_var: e.body}"
    source = inspect.getsource(kmachine.k_run)
    assert source.count(right) == 1
    namespace = dict(vars(kmachine))
    exec(textwrap.dedent(source.replace(right, "{top.succ_var: e}")), namespace)
    e = parse_expr("(fun f(x) => case x { z => f x | s(m) => f m }) s(s(z))")
    assert correspondence_check(e, 40).ok
    monkeypatch.setattr(kmachine, "k_run", namespace["k_run"])
    assert correspondence_check(e, 1).ok
    for budget in (2, 12, 40):
        r = correspondence_check(e, budget)
        assert not r.ok
        assert r.detail.startswith("contraction 2: "), r.detail


def test_a_wrong_case_return_in_k_run_alone_is_caught(monkeypatch):
    # the same wrong return, but only past a call's first transition: each
    # single move of the walk is right, and only k_run given all the moves
    # in one call goes wrong; the check holds that call to the walked state
    right = "{top.succ_var: e.body}"
    source = inspect.getsource(kmachine.k_run)
    assert source.count(right) == 1
    namespace = dict(vars(kmachine))
    wrong = "{top.succ_var: e.body if steps == 0 else e}"
    exec(textwrap.dedent(source.replace(right, wrong)), namespace)
    e = parse_expr("(fun f(x) => case x { z => f x | s(m) => f m }) s(s(z))")
    monkeypatch.setattr(kmachine, "k_run", namespace["k_run"])
    assert correspondence_check(e, 1).ok
    for budget in (2, 12, 40):
        r = correspondence_check(e, budget)
        assert not r.ok
        assert r.detail.startswith("k_run for "), r.detail
