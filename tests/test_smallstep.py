from bigstop.bigstop import ec_bigstop_eval
from bigstop.mnf import mnf_multi_step, to_mnf
from bigstop.smallstep import (
    RunStatus,
    contract,
    decompose,
    multi_step,
    plug,
    small_step,
    step_trace,
)
from bigstop.syntax import App, Eff, Lam, Let, Succ, Var, Zero, parse_expr, print_expr

ID = Lam("f", "x", Var("x"))


def run(src, budget):
    return multi_step(parse_expr(src), budget)


### decomposition


def test_values_do_not_decompose():
    assert decompose(Zero()) is None
    assert decompose(ID) is None


def test_redex_at_top_gives_hole():
    ctx, r = decompose(App(ID, Zero()))
    assert ctx == ()
    assert r == App(ID, Zero())


def test_decompose_descends_into_succ():
    e = Succ(App(ID, Zero()))
    ctx, r = decompose(e)
    assert ctx == (e,)
    assert r == App(ID, Zero())
    assert plug(ctx, r) == e


def test_argument_waits_for_function():
    inner = App(ID, Zero())
    ctx, r = decompose(App(inner, inner))
    assert r == inner
    # the hole is in the function: plug fills that side
    assert plug(ctx, Zero()) == App(Zero(), inner)


def test_argument_steps_once_function_is_a_value():
    e = App(ID, App(ID, Zero()))
    ctx, r = decompose(e)
    assert r == App(ID, Zero())
    assert plug(ctx, Zero()) == App(ID, Zero())


def test_effect_is_a_redex_not_a_context():
    # the effect fires before anything under it is touched
    e = Eff("a", App(ID, Zero()))
    ctx, r = decompose(e)
    assert ctx == ()
    assert r == e


### contraction


def test_contract_case_zero():
    e = parse_expr("case z { z => s(z) | s(n) => n }")
    assert contract(e) == (Succ(Zero()), ())


def test_contract_case_succ_substitutes_predecessor():
    e = parse_expr("case s(s(z)) { z => z | s(n) => n }")
    assert contract(e) == (Succ(Zero()), ())


def test_contract_beta_substitutes_function_and_argument():
    # the function itself replaces its self-variable: recursion by unrolling
    loop = parse_expr("fun f(x) => f x")
    got = contract(App(loop, Zero()))
    assert got == (App(loop, Zero()), ())


def test_contract_effect_emits_label():
    assert contract(Eff("ping", Zero())) == (Zero(), ("ping",))


def test_contract_stuck_application():
    assert contract(App(Zero(), Zero())) is None


### single steps


def test_small_step_value_is_none():
    assert small_step(Zero()) is None


def test_small_step_under_context():
    got = small_step(Succ(Eff("a", Zero())))
    assert got.expr == Succ(Zero())
    assert got.trace == ("a",)


def test_small_step_stuck_is_none():
    assert small_step(App(Zero(), Zero())) is None
    assert not App(Zero(), Zero()) == Zero()  # and it is not a value


### multi-step


def test_runs_to_value_and_stops_counting():
    r = run("s((fun f(x) => x) z)", 10)
    assert r.final == Succ(Zero())
    assert r.status == RunStatus.REACHED_VALUE
    assert r.steps == 1
    assert r.trace == ()


def test_budget_exhaustion_reports_where_it_stopped():
    r = run("(fun f(x) => f x) z", 5)
    assert r.status == RunStatus.OUT_OF_BUDGET
    assert r.steps == 5
    assert print_expr(r.final) == "(fun f(x) => f x) z"


def test_value_at_budget_zero_is_reached_value():
    r = run("z", 0)
    assert r.status == RunStatus.REACHED_VALUE
    assert r.steps == 0


def test_non_value_at_budget_zero_is_out_of_budget():
    r = run("eff[a] z", 0)
    assert r.status == RunStatus.OUT_OF_BUDGET
    assert r.trace == ()


def test_stuck_term_reports_stuck():
    r = run("z z", 5)
    assert r.status == RunStatus.STUCK
    assert r.final == App(Zero(), Zero())


def test_traces_accumulate_in_evaluation_order():
    r = run("eff[a] eff[b] z", 10)
    assert r.trace == ("a", "b")
    assert r.final == Zero()


def test_argument_effects_fire_before_the_call():
    r = run("(fun f(x) => eff[body] x) (eff[arg] z)", 10)
    assert r.trace == ("arg", "body")


def test_step_trace_lists_every_configuration():
    mids = step_trace(parse_expr("eff[a] eff[b] z"), 10)
    assert [print_expr(e) for e in mids] == ["eff[a] eff[b] z", "eff[b] z", "z"]


def test_case_scrutinee_evaluates_before_selection():
    r = run("case eff[scrut] s(z) { z => z | s(n) => eff[branch] n }", 10)
    assert r.trace == ("scrut", "branch")
    assert r.final == Zero()


def _spine(e, c):
    """How many c nodes sit on e's spine, and the term below them; counted
    in a loop, since == and print_expr recurse on deep terms."""
    n = 0
    while type(e) is c:
        e = e.body if c is Succ else e.bound
        n += 1
    return n, e


def test_contexts_deeper_than_the_recursion_limit(at_recursion_limit_1000):
    # every step wraps one more s(.) around the redex, or in MNF nests one
    # more let in the bound
    grow = parse_expr("(fun f(x) => s(f x)) z")
    got = at_recursion_limit_1000(
        multi=lambda: multi_step(grow, 1200),
        step_trace=lambda: step_trace(grow, 1200),
        ec=lambda: ec_bigstop_eval(grow, 1200),
        mnf=lambda: mnf_multi_step(to_mnf(grow), 1200),
    )
    m = got["multi"]
    assert (m.steps, m.status, m.trace) == (1200, RunStatus.OUT_OF_BUDGET, ())
    n, rest = _spine(m.final, Succ)
    assert n == 1200 and rest == grow
    points = got["step_trace"]
    assert len(points) == 1201
    assert [_spine(p, Succ)[0] for p in points] == list(range(1201))
    ec = got["ec"]
    links, d = 0, ec.derivation
    while d.rule == "EC-Seq":
        links, d = links + 1, d.premises[1]
    assert (links, d.rule, ec.trace) == (1200, "EC-Stop", ())
    assert _spine(ec.stopped, Succ) == (1200, grow)
    mnf = got["mnf"]
    assert (mnf.steps, mnf.status, mnf.trace) == (1200, RunStatus.OUT_OF_BUDGET, ())
    n, rest = _spine(mnf.final, Let)
    assert n == 1200 and type(rest) is App
