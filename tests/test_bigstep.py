from bigstop.bigstep import FuelExhausted, Stuck, Value, big_step
from bigstop.smallstep import RunStatus, multi_step
from bigstop.syntax import App, Succ, Zero, numeral, parse_expr


def ev(src, fuel):
    return big_step(parse_expr(src), fuel)


def test_values_need_no_fuel():
    assert ev("z", 0) == Value(Zero(), ())
    assert ev("s(s(z))", 0) == Value(Succ(Succ(Zero())), ())


def test_one_beta_costs_one():
    assert ev("(fun f(x) => x) z", 1) == Value(Zero(), ())
    assert ev("(fun f(x) => x) z", 0) == FuelExhausted()


def test_case_selection_costs_one():
    assert ev("case s(z) { z => z | s(n) => s(n) }", 1) == Value(Succ(Zero()), ())


def test_effects_cost_one_and_emit():
    assert ev("eff[a] eff[b] z", 2) == Value(Zero(), ("a", "b"))
    assert ev("eff[a] eff[b] z", 1) == FuelExhausted()


def test_divergence_is_fuel_exhaustion():
    assert ev("(fun f(x) => f x) z", 1000) == FuelExhausted()


def test_stuck_reports_the_bad_application():
    got = ev("z z", 5)
    assert got == Stuck(App(Zero(), Zero()))


def test_fuel_is_tested_before_the_stuck_test():
    assert ev("z z", 0) == FuelExhausted()
    assert ev("z z", 1) == Stuck(App(Zero(), Zero()))


def test_stuck_under_evaluation_order():
    # function position evaluates first, so the stuck spot is found there
    got = ev("(z z) ((fun f(x) => x) z)", 5)
    assert isinstance(got, Stuck)


def test_argument_evaluates_after_function():
    assert ev("(fun f(x) => x) (eff[arg] s(z))", 5) == Value(Succ(Zero()), ("arg",))


def test_fuel_boundary_agrees_with_step_counting():
    # fuel n succeeds exactly when n small steps reach the value
    src = "s((fun f(x) => x) (eff[a] (fun g(y) => y) z))"
    e = parse_expr(src)
    full = multi_step(e, 100)
    assert full.status == RunStatus.REACHED_VALUE
    n = full.steps
    assert big_step(e, n) == Value(full.final, full.trace)
    assert big_step(e, n - 1) == FuelExhausted()


def test_any_depth_runs_at_the_recursion_limit(at_recursion_limit_1000):
    # one loop and a stack of pending work: a context 1,200 deep, 200,000
    # turns of omega and a numeral 3,000 deep need no Python frames
    countdown = parse_expr("fun f(x) => case x { z => z | s(m) => eff[t] f m }")
    got = at_recursion_limit_1000(
        grow=lambda: ev("(fun f(x) => s(f x)) z", 1200),
        omega=lambda: ev("(fun f(x) => f x) z", 200_000),
        countdown=lambda: big_step(App(countdown, numeral(3000)), 10**6),
    )
    assert got == {
        "grow": FuelExhausted(),
        "omega": FuelExhausted(),
        "countdown": Value(Zero(), ("t",) * 3000),
    }
