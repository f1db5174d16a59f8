"""The answer tables: every row against its own engine's result.

A row is shared by the CLI and the suites, so a wrong row would show in
neither; here each row's answer is held to what its engine returns, read
field by field, and to answers worked out by hand.
"""

import pytest

from bigstop import (
    FreezeResult,
    ImpDone,
    ImpFuelExhausted,
    ImpStatus,
    RunStatus,
    Skip,
    Stuck,
    StuckError,
    Value,
    annihilator_derivation,
    big_step,
    bigstop_eval,
    config,
    ec_bigstop_eval,
    imp_bigstep,
    imp_bigstop,
    imp_bigstop_freeze,
    imp_multi_step,
    mnf_bigstop_eval,
    multi_step,
    parse_expr,
    parse_stmt,
    print_expr,
    print_state,
    print_stmt,
    to_mnf,
)
import bigstop.harness as harness
from bigstop.harness import IMP_ENGINES, PCF_ENGINES, Answer, _agree
from bigstop.traces import format_trace

VALUE, OUT, STUCK = RunStatus.REACHED_VALUE, RunStatus.OUT_OF_BUDGET, RunStatus.STUCK

# (program, budget) -> what each row answers, printed: term | trace | status,
# with - for a field the engine does not report
PCF_CASES = {
    # a value
    ("(fun f(x) => eff[a] s(x)) z", 10): {
        name: "s(z) | a | ReachedValue" for name in ("multi", "big", "bigstop", "annihilator", "mnf", "ec")},
    # out of budget; the annihilator's cut meets a nat demand with z
    ("eff[a] ((fun f(x) => f x) z)", 1): {
        "multi": "(fun f(x) => f x) z | a | OutOfBudget",
        "big": "- | - | OutOfBudget",
        "bigstop": "(fun f(x) => f x) z | a | OutOfBudget",
        "annihilator": "z | a·0 | OutOfBudget",
        "mnf": "(fun f(x) => f x) z | a | OutOfBudget",
        "ec": "(fun f(x) => f x) z | a | OutOfBudget",
    },
    # a cut that meets a function demand with the identity
    ("(fun f(x) => x) (fun g(y) => y)", 0): {
        "multi": "(fun f(x) => x) (fun g(y) => y) | 1 | OutOfBudget",
        "big": "- | - | OutOfBudget",
        "bigstop": "(fun f(x) => x) (fun g(y) => y) | 1 | OutOfBudget",
        "annihilator": "fun _(x) => x | 0 | OutOfBudget",
        "mnf": "(fun f(x) => x) (fun g(y) => y) | 1 | OutOfBudget",
        "ec": "(fun f(x) => x) (fun g(y) => y) | 1 | OutOfBudget",
    },
    # stuck: multi-step gives the whole term and its trace, the others where they stuck
    ("z z", 5): {
        "multi": "z z | 1 | Stuck",
        **{name: "z z | - | Stuck" for name in ("big", "bigstop", "annihilator", "mnf", "ec")},
    },
    ("x z", 5): {
        "multi": "x z | 1 | Stuck",
        "big": "x | - | Stuck",
        "bigstop": "x | - | Stuck",
        "annihilator": "x | - | Stuck",
        "mnf": "x z | - | Stuck",
        "ec": "x | - | Stuck",
    },
}


def _printed(a, term, trace):
    shown = ("-" if x is None else f(x) for f, x in ((term, a.term), (trace, a.trace)))
    return " | ".join((*shown, a.status.value))


def test_the_pcf_table_has_one_row_per_semantics_in_order():
    assert tuple(PCF_ENGINES) == ("multi", "big", "bigstop", "annihilator", "mnf", "ec")
    assert tuple(IMP_ENGINES) == ("multi", "big", "bigstop", "freeze")


@pytest.mark.parametrize("src, budget", sorted(PCF_CASES))
def test_every_pcf_row_gives_the_worked_answers(src, budget):
    e = parse_expr(src)
    got = {name: _printed(row(e, budget), print_expr, format_trace) for name, row in PCF_ENGINES.items()}
    assert got == PCF_CASES[src, budget]


def _stuck_at(engine, *args):
    with pytest.raises(StuckError) as err:
        engine(*args)
    return Answer(err.value.at, None, STUCK)


@pytest.mark.parametrize("src, budget", sorted(PCF_CASES))
def test_every_pcf_row_reads_its_own_engine(src, budget):
    e = parse_expr(src)
    m = multi_step(e, budget)
    assert PCF_ENGINES["multi"](e, budget) == Answer(m.final, m.trace, m.status)
    g = big_step(e, budget)
    assert PCF_ENGINES["big"](e, budget) == (
        Answer(g.value, g.trace, VALUE) if type(g) is Value
        else Answer(g.at, None, STUCK) if type(g) is Stuck else Answer(None, None, OUT))
    if m.status is STUCK:
        for name, engine, term in (("bigstop", bigstop_eval, e), ("annihilator", annihilator_derivation, e),
                                   ("mnf", mnf_bigstop_eval, to_mnf(e)), ("ec", ec_bigstop_eval, e)):
            assert PCF_ENGINES[name](e, budget) == _stuck_at(engine, term, budget), name
        return
    for name, r in (("bigstop", bigstop_eval(e, budget)), ("mnf", mnf_bigstop_eval(to_mnf(e), budget)),
                    ("ec", ec_bigstop_eval(e, budget))):
        status = VALUE if r.stopped == m.final and m.status is VALUE else OUT
        assert PCF_ENGINES[name](e, budget) == Answer(r.stopped, r.trace, status, r.derivation), name
    d = annihilator_derivation(e, budget)
    cut = tuple(d.trace)[-1:] == ("0",)
    assert PCF_ENGINES["annihilator"](e, budget) == Answer(d.rhs, tuple(d.trace), OUT if cut else VALUE, d)


# (program, store, budget) -> what each row answers: statement | store | status
IMP_CASES = {
    ("x := 1 ; y := x", (), 5): {
        "multi": "skip | {x=1, y=1} | ReachedSkip",
        "big": "skip | {x=1, y=1} | ReachedSkip",
        "bigstop": "skip | {x=1, y=1} | ReachedSkip",
        "freeze": "- | {x=1, y=1} | ReachedSkip",  # finished
    },
    ("while x do { x := x - 1 }", (("x", 2),), 3): {
        "multi": "while x do { x := x - 1 } | {x=1} | OutOfBudget",
        "big": "- | - | OutOfBudget",
        "bigstop": "while x do { x := x - 1 } | {x=1} | OutOfBudget",
        "freeze": "- | {x=1} | OutOfBudget",  # frozen
    },
}


@pytest.mark.parametrize("src, init, budget", sorted(IMP_CASES))
def test_every_imp_row_gives_the_worked_answers(src, init, budget):
    c = config(parse_stmt(src), init)
    got = {name: _printed(row(c, budget), print_stmt, print_state) for name, row in IMP_ENGINES.items()}
    assert got == IMP_CASES[src, init, budget]


@pytest.mark.parametrize("src, init, budget", sorted(IMP_CASES))
def test_every_imp_row_reads_its_own_engine(src, init, budget):
    c = config(parse_stmt(src), init)
    m = imp_multi_step(c, budget)
    assert IMP_ENGINES["multi"](c, budget) == Answer(m.config.stmt, m.config.state, m.status)
    s = imp_bigstop(c, budget)
    assert IMP_ENGINES["bigstop"](c, budget) == Answer(s.stmt, s.state, m.status)
    g = imp_bigstep(c, budget)
    assert type(g) is (ImpDone if m.status is ImpStatus.REACHED_SKIP else ImpFuelExhausted)
    assert IMP_ENGINES["big"](c, budget) == (
        Answer(Skip(), g.state, ImpStatus.REACHED_SKIP) if type(g) is ImpDone
        else Answer(None, None, ImpStatus.OUT_OF_BUDGET))
    f = imp_bigstop_freeze(c, budget)
    assert type(f) is FreezeResult
    assert IMP_ENGINES["freeze"](c, budget) == Answer(
        None, f.state, ImpStatus.OUT_OF_BUDGET if f.frozen else ImpStatus.REACHED_SKIP)


### the comparator

def _fixed(answer):
    return lambda t, b: answer


_show = (str, str)  # how a term and a trace are printed


def test_agreement_skips_what_a_row_does_not_report():
    want = Answer("v", ("a",), VALUE)
    rows = (_fixed(Answer("v", None, VALUE)), _fixed(Answer(None, ("a",), VALUE)), _fixed(Answer(None, None, VALUE)))
    assert _agree(_fixed(want), rows, _show)(None, 0) is None


def test_a_cut_trace_is_compared_up_to_the_cut_and_its_term_not_at_all():
    want = Answer("e", ("a",), OUT)
    assert _agree(_fixed(want), (_fixed(Answer("z", ("a", "0"), OUT)),), _show)(None, 0) is None
    got = Answer("z", ("0",), OUT)
    assert _agree(_fixed(want), (_fixed(got),), _show)(None, 0) == ("e | ('a',)", "z | ('0',)")


def test_a_stuck_term_is_not_compared():
    want = Answer("x z", (), STUCK)
    assert _agree(_fixed(want), (_fixed(Answer("x", None, STUCK)),), _show)(None, 0) is None


def test_the_first_row_that_differs_is_reported_with_its_status():
    want = Answer("v", ("a",), VALUE)
    rows = (_fixed(want), _fixed(Answer(None, None, OUT)), _fixed(Answer("w", ("a",), VALUE)))
    assert _agree(_fixed(want), rows, _show)(None, 0) == ("ReachedValue: v | ('a',)", "OutOfBudget: - | -")
    assert _agree(_fixed(want), rows[::2], _show)(None, 0) == ("v | ('a',)", "w | ('a',)")


def test_a_result_of_no_known_shape_is_refused_not_read_as_out_of_budget(monkeypatch):
    # were it out of budget, omega's run would agree with multi-step's
    monkeypatch.setattr(harness, "bigstop_eval", lambda e, b: None)
    with pytest.raises(TypeError, match=r"^no answer shape: None$"):
        harness._against_multi("bigstop")(harness.corpus_term("omega"), 5)
