"""Every engine's answers, pinned by one hash.

A change that is meant to keep behaviour (a refactor, a speed-up) must
leave this hash alone.  It covers the enumerated terms up to 5 nodes and
the first 300 terms of the generated pool, at budgets 0, 1, 3, 10 and 64,
and is taken over printed text and explicit fields only, so a change to
repr or to the derivation file format does not move it.  Every term is well
typed, so no engine may get stuck.
"""

import hashlib
from itertools import islice

from bigstop import (
    Stuck,
    Value,
    annihilator_derivation,
    big_step,
    bigstop_eval,
    compile as k_compile,
    ec_bigstop_eval,
    enumerate_exprs,
    k_run,
    mnf_bigstop_eval,
    multi_step,
    print_expr,
    to_mnf,
)
from bigstop.kmachine import show_state
from bigstop.traces import format_trace
from test_typecheck import _default_gen_pool

BUDGETS = (0, 1, 3, 10, 64)
ANSWERS = "82bc8e358f09f37b61beed1c77a985bf3a34b67b779b055d024287db01f8a917"


def _rows(d):
    """A derivation as its preorder rows of printed fields."""
    rows, todo = [], [d]
    while todo:
        n = todo.pop()
        rows.append("\t".join((n.rule, print_expr(n.lhs), print_expr(n.rhs), format_trace(n.trace))))
        todo += reversed(n.premises)
    return rows


def _big_step(e, fuel):
    got = big_step(e, fuel)
    if type(got) is Value:
        return f"value\t{print_expr(got.value)}\t{format_trace(got.trace)}"
    return f"stuck\t{print_expr(got.at)}" if type(got) is Stuck else "fuel exhausted"


def _answers(e, budget):
    m = multi_step(e, budget)
    k = k_run(k_compile(e), budget)
    yield f"multi\t{print_expr(m.final)}\t{format_trace(m.trace)}\t{m.steps}\t{m.status.value}"
    yield from _rows(bigstop_eval(e, budget).derivation)
    yield from _rows(ec_bigstop_eval(e, budget).derivation)
    yield from _rows(annihilator_derivation(e, budget))
    yield from _rows(mnf_bigstop_eval(to_mnf(e), budget).derivation)
    yield _big_step(e, budget)
    yield f"kmachine\t{show_state(k.state)}\t{format_trace(k.trace)}\t{k.status.value}"


def test_every_engine_gives_the_pinned_answers():
    h = hashlib.sha256()
    for e in [*enumerate_exprs(5), *islice(_default_gen_pool(), 300)]:
        for budget in BUDGETS:
            h.update(f"{print_expr(e)}\t{budget}\n".encode())
            for line in _answers(e, budget):
                h.update(line.encode() + b"\n")
    assert h.hexdigest() == ANSWERS
