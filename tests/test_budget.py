"""The budget: every engine that takes one rejects a negative budget and
one that is not an int the same way, with the errors check_budget raises."""

import pytest

from bigstop import (
    Budget,
    annihilator_eval,
    big_step,
    bigstop_eval,
    compile,
    config,
    correspondence_check,
    ec_bigstop_eval,
    imp_bigstep,
    imp_bigstop,
    imp_bigstop_freeze,
    imp_multi_step,
    k_run,
    mnf_bigstop_eval,
    mnf_multi_step,
    multi_step,
    parse_expr,
    parse_stmt,
    step_trace,
    to_mnf,
)

# terminating non-values: an engine that ignores a negative budget runs them
# to the end and returns instead of raising
TERM = parse_expr("(fun f(x) => x) z")
STMT = parse_stmt("x := 1")


@pytest.mark.parametrize("run", [
    lambda b: Budget(b),
    lambda b: multi_step(TERM, b),
    lambda b: step_trace(TERM, b),
    lambda b: mnf_multi_step(to_mnf(TERM), b),
    lambda b: k_run(compile(TERM), b),
    lambda b: imp_multi_step(config(STMT), b),
    lambda b: imp_bigstop(config(STMT), b),
    lambda b: imp_bigstop_freeze(config(STMT), b),
    lambda b: imp_bigstep(config(STMT), b),
    lambda b: big_step(TERM, b),
    lambda b: bigstop_eval(TERM, b),
    lambda b: ec_bigstop_eval(TERM, b),
    lambda b: annihilator_eval(TERM, b),
    lambda b: mnf_bigstop_eval(to_mnf(TERM), b),
    lambda b: correspondence_check(TERM, b),
], ids=["Budget", "multi_step", "step_trace", "mnf_multi_step", "k_run", "imp_multi_step",
        "imp_bigstop", "imp_bigstop_freeze", "imp_bigstep", "big_step", "bigstop_eval",
        "ec_bigstop_eval", "annihilator_eval", "mnf_bigstop_eval", "correspondence_check"])
def test_a_negative_budget_raises(run):
    with pytest.raises(ValueError, match="budget must be non-negative"):
        run(-1)
    with pytest.raises(TypeError, match="budget must be an int"):
        run(2.5)  # a count that skips 0 would never run out
    run(0)  # zero is a budget
