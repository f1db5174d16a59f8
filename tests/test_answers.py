"""Every engine's answers, pinned by one hash per language.

A change that is meant to keep behaviour (a refactor, a speed-up) must
leave these hashes alone.  The PCF hash covers the enumerated terms up to
5 nodes and the first 300 terms of the generated pool; the while-language
hash covers the enumerated statements up to 5 nodes from x=2, y=0 and the
first 300 generated configurations.  Both run at budgets 0, 1, 3, 10 and
64, and are taken over printed text and explicit fields only, so a change
to repr or to the derivation file format does not move them.  Every term
is well typed, so no engine may get stuck.
"""

import hashlib
import random
from itertools import islice

from bigstop import (
    ImpDone,
    Stuck,
    Value,
    annihilator_derivation,
    big_step,
    bigstop_eval,
    compile as k_compile,
    config,
    ec_bigstop_eval,
    enumerate_exprs,
    enumerate_stmts,
    imp_bigstep,
    imp_bigstop,
    imp_bigstop_freeze,
    imp_multi_step,
    k_run,
    mnf_bigstop_eval,
    multi_step,
    print_expr,
    print_stmt,
    to_mnf,
)
from bigstop.harness import gen_imp_config
from bigstop.kmachine import show_state
from bigstop.traces import format_trace
from test_typecheck import _default_gen_pool

BUDGETS = (0, 1, 3, 10, 64)
ANSWERS = "82bc8e358f09f37b61beed1c77a985bf3a34b67b779b055d024287db01f8a917"
IMP_ANSWERS = "d839bd20937be312e7ee1a186057a47829614b598de1cae16c23c71523151bca"


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


def _store(st):
    """A store in hex: a generated loop of products outgrows the digit limit
    that str() puts on an int, and a power-of-two base has none."""
    return ", ".join(f"{n}={v:#x}" for n, v in st)


def _config(c):
    return f"{print_stmt(c.stmt)} | {_store(c.state)}"


def _imp_answers(cfg, budget):
    m = imp_multi_step(cfg, budget)
    yield f"multi\t{_config(m.config)}\t{m.steps}\t{m.status.value}"
    yield f"bigstop\t{_config(imp_bigstop(cfg, budget))}"
    f = imp_bigstop_freeze(cfg, budget)
    yield f"freeze\t{_store(f.state)}\t{f.frozen}"
    b = imp_bigstep(cfg, budget)
    yield f"done\t{_store(b.state)}" if type(b) is ImpDone else "fuel exhausted"


def test_every_imp_engine_gives_the_pinned_answers():
    rng = random.Random(0)
    pool = [config(s, {"x": 2, "y": 0}) for s in enumerate_stmts(5)]
    pool += [gen_imp_config(rng) for _ in range(300)]
    h = hashlib.sha256()
    for cfg in pool:
        for budget in BUDGETS:
            h.update(f"{_config(cfg)}\t{budget}\n".encode())
            for line in _imp_answers(cfg, budget):
                h.update(line.encode() + b"\n")
    assert h.hexdigest() == IMP_ANSWERS
