"""
Where is a program after n units of work?
=========================================

A budget run answers directly: give the evaluator n units, get back the
exact expression the step relation would be sitting on, plus everything
it emitted on the way.  Sweep the budget and you see the whole trajectory.
"""

from bigstop import (
    bigstop_eval,
    check_derivation,
    compose,
    derivation_to_json_str,
    multi_step,
    parse_expr,
    print_expr,
)
from bigstop.traces import format_trace

program = parse_expr("eff[boot] ((fun f(x) => eff[tick] s(x)) (eff[init] z))")

print("program:", print_expr(program))
print()

# one line per budget: expression | trace
for budget in range(6):
    r = bigstop_eval(program, budget)
    print(f"  budget {budget}:  {print_expr(r.stopped)}  |  {format_trace(r.trace)}")

# the step relation gives the same answers, one contraction at a time
print()
for budget in range(6):
    m = multi_step(program, budget)
    r = bigstop_eval(program, budget)
    assert m.final == r.stopped and m.trace == r.trace
print("every budget agrees with the step relation")

# each run carries a derivation tree; the checker replays the rules
d = bigstop_eval(program, 2).derivation
assert check_derivation(d) is None
print()
print("derivation at budget 2 (root rule", d.rule + "):")
print(derivation_to_json_str(d)[:200], "...")

# budgets add up: the budget-2 tree, composed with the budget-3 tree that
# starts where it stopped, is the budget-5 tree, and it checks
d3 = bigstop_eval(d.rhs, 3).derivation
d5 = compose(d, d3)
assert d5 == bigstop_eval(program, 5).derivation
assert check_derivation(d5) is None
print()
print(f"budget 2, then 3 from {print_expr(d.rhs)}: the budget-5 tree, {print_expr(d5.rhs)} | {format_trace(d5.trace)}")
