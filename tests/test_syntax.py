import copy
import dataclasses
import pickle
import sys
from functools import partial

import pytest

from bigstop.bigstep import big_step
from bigstop.bigstop import (
    annihilator_derivation, annihilator_eval, bigstop_eval, check_derivation, ec_bigstop_eval,
)
from bigstop.harness import enumerate_exprs
from bigstop.kmachine import compile as k_compile, k_run, show_state
from bigstop.mnf import mnf_bigstop_eval, mnf_multi_step, to_mnf
from bigstop.smallstep import multi_step, step_trace
from bigstop.syntax import (
    App,
    Case,
    Eff,
    Lam,
    Let,
    ParseError,
    Succ,
    SubstOpenValue,
    Var,
    Zero,
    all_names,
    alpha_eq,
    beta,
    check_mnf,
    expr_size,
    free_vars,
    is_mnf_value,
    is_value,
    numeral,
    parse_expr,
    print_expr,
    rebuild,
    scoped_children,
    subst,
)
from bigstop.traces import BadLabel

ID = Lam("f", "x", Var("x"))


### parsing


def test_parse_basics():
    assert parse_expr("z") == Zero()
    assert parse_expr("s(z)") == Succ(Zero())
    assert parse_expr("s(s(z))") == Succ(Succ(Zero()))
    assert parse_expr("fun f(x) => x") == ID


def test_application_is_juxtaposition_left_assoc():
    e = parse_expr("f x y")
    assert e == App(App(Var("f"), Var("x")), Var("y"))


def test_parse_case():
    e = parse_expr("case s(z) { z => z | s(n) => n }")
    assert e == Case(Zero(), "n", Var("n"), Succ(Zero()))


def test_eff_body_extends_right():
    # the body of eff is everything to its right
    e = parse_expr("eff[a] f x")
    assert e == Eff("a", App(Var("f"), Var("x")))


def test_parse_let():
    e = parse_expr("let t = s(z) in s(t)")
    assert e == Let("t", Succ(Zero()), Succ(Var("t")))


def test_comments_and_whitespace():
    src = """
    -- the constant function
    fun _(x) =>   -- ignores its argument
      z
    """
    assert parse_expr(src) == Lam("_", "x", Zero())


def test_wildcard_cannot_be_referenced():
    with pytest.raises(ParseError):
        parse_expr("fun _(x) => _")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_expr("fun case(x) => x")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expr("z z)")


def test_reserved_label_rejected():
    # "0" is the annihilator's cut-off marker; a program may not emit it
    with pytest.raises(ParseError, match="label"):
        parse_expr("eff[0] z")
    assert parse_expr("eff[a0] z") == Eff("a0", Zero())


@pytest.mark.parametrize("label", ["0", "", "a·b"])
def test_a_term_built_with_a_reserved_label_is_refused(label):
    # not only by the parser: the annihilator would read an emitted 0 as
    # its cut, and the printer would write text the parser refuses
    with pytest.raises(BadLabel):
        Eff(label, Zero())


def test_parse_error_carries_position():
    try:
        parse_expr("s(")
    except ParseError as pe:
        assert pe.line >= 1
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize("src, line, col, says", [
    ("z -- a comment\n  # z", 2, 3, "unexpected character '#'"),   # after a comment
    ("s(\tz ?)", 1, 6, "unexpected character '?'"),                 # a tab is one column
    ("fun f(x) =>", 1, 12, "expected an expression"),               # end of input
    ("fun f(x) =>  ", 1, 14, "expected an expression"),             # past the blanks
    ("fun f(x) => -- no body", 1, 13, "expected an expression"),    # at the comment
    ("s(z\n-- open\n", 3, 1, "end of input"),
])
def test_parse_error_pins_line_and_column(src, line, col, says):
    with pytest.raises(ParseError, match=says) as err:
        parse_expr(src)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize(
    "src",
    [
        "z",
        "s(s(z))",
        "fun f(x) => f x",
        "(fun _(x) => z) ((fun f(y) => f y) z)",
        "case x { z => z | s(n) => eff[out] n }",
        "eff[a] eff[b] z",
        "let t0 = (fun f(x) => x) z in s(t0)",
        "fun f(x) => fun _(y) => f x y",
    ],
)
def test_print_parse_round_trip(src):
    e = parse_expr(src)
    assert parse_expr(print_expr(e)) == e


### values, sizes, numerals


def test_values():
    assert is_value(Zero())
    assert is_value(Succ(Succ(Zero())))
    assert is_value(ID)
    assert not is_value(Succ(App(ID, Zero())))
    assert not is_value(Var("x"))


def test_numerals():
    assert numeral(0) == Zero()
    assert numeral(3) == Succ(Succ(Succ(Zero())))


def test_expr_size_counts_every_node():
    assert expr_size(Zero()) == 1
    assert expr_size(Succ(Zero())) == 2
    assert expr_size(App(ID, Zero())) == 4  # app + lam + var + zero
    assert expr_size(parse_expr("case z { z => z | s(n) => n }")) == 4


### free variables and substitution


def test_free_vars():
    assert free_vars(parse_expr("fun f(x) => f y")) == frozenset({"y"})
    assert free_vars(parse_expr("case x { z => y | s(w) => w }")) == frozenset({"x", "y"})
    assert free_vars(ID) == frozenset()


def test_binders_scope_over_their_body_only():
    # a let's variable is not bound in what it is bound to
    assert free_vars(parse_expr("let x = x in x")) == {"x"}
    # a case variable is bound in the successor branch only
    assert free_vars(parse_expr("case x { z => z | s(x) => x }")) == {"x"}
    assert free_vars(parse_expr("case z { z => x | s(x) => x }")) == {"x"}
    assert free_vars(parse_expr("case z { z => z | s(x) => x }")) == frozenset()


def test_subst_replaces_free_occurrences():
    e = parse_expr("f x")
    assert subst(e, {"f": ID, "x": Zero()}) == App(ID, Zero())


def test_subst_respects_shadowing():
    e = parse_expr("fun g(x) => x")
    assert subst(e, {"x": Zero()}) == e


def test_subst_skips_wildcard_keys():
    assert subst(Var("y"), {"_": Zero(), "y": Zero()}) == Zero()


def test_subst_rejects_open_replacements():
    with pytest.raises(SubstOpenValue):
        subst(Var("x"), {"x": Var("y")})


def test_subst_rejects_non_values():
    with pytest.raises(SubstOpenValue):
        subst(Var("x"), {"x": App(ID, Zero())})


def test_subst_rejects_an_open_function_every_time():
    # a term remembers its closedness, so asking first, or substituting
    # twice, must not let an open function through later
    open_fn = parse_expr("fun f(y) => x")
    assert not open_fn.closed
    for value in (open_fn, open_fn, Succ(Succ(open_fn))):
        with pytest.raises(SubstOpenValue):
            subst(Var("v"), {"v": value})
    assert ID.closed
    assert subst(Var("v"), {"v": ID}) == ID
    assert subst(Var("v"), {"v": ID}) == ID


### beta: a function keeps its last instantiation


def _fresh_beta(f, v):
    return subst(f.body, {f.self_var: f, f.param: v})


def test_beta_is_the_substitution_whatever_the_argument_before():
    f = parse_expr("fun f(x) => case x { z => eff[a] f s(x) | s(m) => f m }")
    v1, v2 = numeral(2), parse_expr("fun g(y) => y")
    outs = [beta(f, v) for v in (v1, v2, v1)]
    assert outs == [_fresh_beta(f, v) for v in (v1, v2, v1)]
    assert outs[0] != outs[1]


def test_beta_again_on_the_same_objects_is_the_same_object():
    f, v = parse_expr("fun f(x) => eff[t] f x"), Zero()
    out = beta(f, v)
    assert beta(f, v) is out
    # an equal argument that is another object gets an equal term
    for other in (Zero(), parse_expr("z")):
        assert other is not v
        assert beta(f, other) == out
    w = parse_expr("fun g(y) => s(y)")
    assert beta(f, w) == beta(f, parse_expr("fun g(y) => s(y)")) == _fresh_beta(f, w)


def test_beta_refuses_an_open_or_non_value_argument_every_time():
    f, v = parse_expr("fun f(x) => s(x)"), numeral(1)
    out = beta(f, v)
    for bad in (Var("y"), parse_expr("fun g(y) => x"), App(ID, Zero()), Succ(Var("y"))):
        for _ in range(2):
            with pytest.raises(SubstOpenValue):
                beta(f, bad)
            assert f._inst == (v, out)  # untouched
    assert beta(f, v) is out
    w = Succ(ID)
    assert beta(f, w) == Succ(w) == _fresh_beta(f, w)


def test_beta_binds_as_substitution_does():
    # the parameter wins over the self binder of the same name
    f = parse_expr("fun f(f) => f")
    assert beta(f, Zero()) == Zero()
    assert beta(f, Zero()) == Zero()
    # `_` binds nothing: the body's own names stay free, and the bound one is replaced
    anon = parse_expr("fun _(x) => x")
    assert beta(anon, numeral(1)) == numeral(1) == _fresh_beta(anon, numeral(1))
    ignores = parse_expr("fun f(_) => f")
    assert beta(ignores, Zero()) is ignores
    assert beta(ignores, ID) is ignores


def test_a_loop_instantiates_its_body_once():
    omega = parse_expr("(fun f(x) => eff[t] f x) z")
    assert multi_step(omega, 2).final is multi_step(omega, 4).final
    assert multi_step(omega, 4).final == omega


def test_closedness_is_the_absence_of_free_variables():
    for src in ("z", "fun f(x) => f x", "fun f(x) => y", "case x { z => z | s(n) => n }",
                "let t = z in t", "let t = z in u", "fun _(x) => eff[a] x"):
        e = parse_expr(src)
        assert e.closed == (not free_vars(e)), src


def _free_vars_calls(run):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is free_vars.__code__

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def _free_vars_calls_in_omega(budget):
    omega = parse_expr("(fun f(x) => eff[t] f x) z")
    calls, r = _free_vars_calls(partial(bigstop_eval, omega, budget))
    assert len(r.trace) == budget // 2
    return calls


def test_closedness_of_a_function_is_walked_once_not_per_beta_step():
    # omega substitutes the same function value on every beta step
    assert _free_vars_calls_in_omega(1_000) == _free_vars_calls_in_omega(2_000)


def _checked(derive, dialect):
    def prepare(e, budget):
        # a copy rebuilt through __init__: no term in it knows its closedness
        return partial(check_derivation, copy.deepcopy(derive(e, budget)), dialect)
    return prepare


# each run of countdown, from a fresh term to the thunk whose work is counted
COUNTDOWN_RUNS = {
    "multi_step": lambda e, b: partial(multi_step, e, b),
    "step_trace": lambda e, b: partial(step_trace, e, b),
    "bigstop_eval": lambda e, b: partial(bigstop_eval, e, b),
    "ec_bigstop_eval": lambda e, b: partial(ec_bigstop_eval, e, b),
    "annihilator_eval": lambda e, b: partial(annihilator_eval, e, b),
    "big_step": lambda e, b: partial(big_step, e, b),
    "mnf_multi_step": lambda e, b: partial(mnf_multi_step, to_mnf(e), b),
    "mnf_bigstop_eval": lambda e, b: partial(mnf_bigstop_eval, to_mnf(e), b),
    "k_run": lambda e, b: partial(k_run, k_compile(e), b),
    "check_derivation": _checked(lambda e, b: bigstop_eval(e, b).derivation, "plain"),
    "check_derivation ec": _checked(lambda e, b: ec_bigstop_eval(e, b).derivation, "ec"),
    "check_derivation annihilator": _checked(annihilator_derivation, "annihilator"),
    "check_derivation mnf": _checked(lambda e, b: mnf_bigstop_eval(to_mnf(e), b).derivation, "mnf"),
}


@pytest.mark.parametrize("run", sorted(COUNTDOWN_RUNS))
def test_countdown_asks_each_numeral_for_its_closedness_once(run):
    # a case on s(m) substitutes the predecessor numeral, whose successors
    # learnt their closedness when the numeral above it was asked, and gives
    # back the countdown function itself: the work does not grow with n
    counts = []
    for n in (200, 400):
        e = App(parse_expr("fun f(x) => case x { z => z | s(m) => eff[t] f m }"), numeral(n))
        counts.append(_free_vars_calls(COUNTDOWN_RUNS[run](e, 10**9))[0])
    assert counts[0] == counts[1], counts


### what a successor knows about its numeral


def _spine_walk(e):
    # the reference: what s^j(v), j >= 0 and v no successor, heads: 1 when
    # v is z, 2 when v is a function, 0 when it is no value
    while type(e) is Succ:
        e = e.body
    return 1 if type(e) is Zero else 2 if type(e) is Lam else 0


def _subst_walk(e, m):
    # the reference substitution, read off the syntax table: rebuilds every node
    if type(e) is Var:
        return m.get(e.name, e)
    return rebuild(e, [_subst_walk(kid, {x: v for x, v in m.items() if x not in names})
                       for kid, names in scoped_children(e)])


CLOSED_VALUES = (Zero(), numeral(2), ID, Succ(ID))


def _holds_to_the_walks(e):
    todo = [e]
    while todo:
        e = todo.pop()
        todo += [kid for kid, _ in scoped_children(e)]
        if type(e) is Succ:
            assert e._spine == _spine_walk(e), print_expr(e)
        assert is_value(e) == (_spine_walk(e) > 0), print_expr(e)
        m = {x: CLOSED_VALUES[i % 4] for i, x in enumerate(sorted(all_names(e)))}
        assert subst(e, m) == _subst_walk(e, m), print_expr(e)
        assert e.closed == (not free_vars(e)), print_expr(e)
        # again, now that e and its functions know whether they are closed
        assert subst(e, m) == _subst_walk(e, m), print_expr(e)


def test_stored_spines_closedness_and_subst_match_the_walks():
    for e in enumerate_exprs(5):
        for point in step_trace(e, 10):
            _holds_to_the_walks(point)
    for e in (Var("x"), parse_expr("fun f(y) => x"), App(ID, Zero()), Zero(), ID):
        for _ in range(5):
            _holds_to_the_walks(e)
            e = Succ(e)


def test_copies_of_a_successor_know_what_it_knows():
    for end in (Var("x"), parse_expr("fun f(y) => x"), App(ID, Zero()), Zero(), ID):
        e = Succ(Succ(end))
        copies = [copy.copy(e), copy.deepcopy(e), dataclasses.replace(e)]
        copies += [pickle.loads(pickle.dumps(e, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
        for other in copies:
            assert other == e and other._spine == e._spine == _spine_walk(e)
            assert other.closed == e.closed
    assert dataclasses.replace(numeral(3), body=Var("x"))._spine == 0
    assert dataclasses.replace(numeral(3), body=ID)._spine == 2


### alpha equivalence


def test_alpha_eq_renames_binders():
    a = parse_expr("fun f(x) => x")
    b = parse_expr("fun g(y) => y")
    assert alpha_eq(a, b)


def test_alpha_eq_wildcard_binds_nothing():
    assert alpha_eq(parse_expr("fun _(x) => x"), parse_expr("fun h(y) => y"))


def test_alpha_eq_distinguishes_structure():
    assert not alpha_eq(parse_expr("fun f(x) => x"), parse_expr("fun f(x) => f"))
    assert not alpha_eq(Zero(), Succ(Zero()))


def test_alpha_eq_case_binder():
    a = parse_expr("case z { z => z | s(n) => n }")
    b = parse_expr("case z { z => z | s(m) => m }")
    assert alpha_eq(a, b)


def test_alpha_eq_let_binder():
    assert alpha_eq(parse_expr("let x = x in x"), parse_expr("let y = x in y"))
    assert not alpha_eq(parse_expr("let x = x in x"), parse_expr("let y = y in y"))
    assert not alpha_eq(parse_expr("let x = z in x"), parse_expr("let y = z in x"))


def test_alpha_eq_compares_effect_labels():
    assert alpha_eq(parse_expr("eff[a] z"), parse_expr("eff[a] z"))
    assert not alpha_eq(parse_expr("eff[a] z"), parse_expr("eff[b] z"))


def test_alpha_eq_wildcard_on_one_side_only():
    # the other side uses the name its binder binds; the wildcard's side
    # leaves the same name free
    for blank, named in (("fun _(x) => f", "fun f(x) => f"),
                         ("let _ = z in t", "let t = z in t"),
                         ("case z { z => z | s(_) => n }", "case z { z => z | s(n) => n }")):
        assert not alpha_eq(parse_expr(blank), parse_expr(named)), blank
        assert not alpha_eq(parse_expr(named), parse_expr(blank)), named


### every structural walker is independent of depth


def _nest(depth, f="f", x="x", leaf=None):
    # Lam, Case and Let in turn, each binding x over the next; y is free
    e = Var(x) if leaf is None else leaf
    for i in range(depth):
        e = (Lam(f, x, e), Case(Zero(), x, e, Var("y")), Let(x, Zero(), e))[i % 3]
    return e


def test_walkers_handle_terms_deeper_than_the_recursion_limit(at_recursion_limit_1000):
    deep = 10_000
    num, nest = numeral(deep), _nest(deep)
    got = at_recursion_limit_1000(
        num_size=lambda: expr_size(num),
        num_free=lambda: free_vars(num),
        num_closed=lambda: numeral(deep).closed,
        num_mnf=lambda: check_mnf(num) and is_mnf_value(Succ(numeral(deep))),
        num_names=lambda: all_names(num),
        num_alpha=lambda: alpha_eq(num, numeral(deep)),
        num_alpha_not=lambda: alpha_eq(num, numeral(deep - 1)),
        nest_size=lambda: expr_size(nest),
        nest_free=lambda: free_vars(nest),
        nest_closed=lambda: _nest(deep).closed,
        nest_names=lambda: all_names(nest),
        nest_alpha=lambda: alpha_eq(nest, _nest(deep, "g", "w")),
        nest_alpha_not=lambda: alpha_eq(nest, _nest(deep, leaf=Var("y"))),
    )
    assert got == {
        "num_size": deep + 1,
        "num_free": frozenset(),
        "num_closed": True,
        "num_mnf": True,
        "num_names": set(),
        "num_alpha": True,
        "num_alpha_not": False,
        # a leaf, then 3,334 Lam nodes, 3,333 Case nodes of three and 3,333 Let nodes of two
        "nest_size": 1 + 3_334 + 3 * 3_333 + 2 * 3_333,
        "nest_free": {"y"},
        "nest_closed": False,
        "nest_names": {"f", "x", "y"},
        "nest_alpha": True,
        "nest_alpha_not": False,
    }


def test_a_numeral_prints_in_one_loop(at_recursion_limit_1000):
    # under pytest at the package's limit of 100,000, a printer that recursed
    # once per successor crashed the interpreter on this machine state
    n = 10**5
    got = at_recursion_limit_1000(
        text=lambda: print_expr(numeral(n)),
        state=lambda: show_state(k_compile(numeral(n))),
        over_var=lambda: print_expr(Succ(Succ(App(Var("f"), Var("x"))))),
    )
    assert got["text"] == "s(" * n + "z" + ")" * n
    assert got["state"].endswith(" " + got["text"])
    assert got["over_var"] == "s(s(f x))"


def test_a_successor_chain_parses_in_one_loop(at_recursion_limit_1000):
    # texts, not terms, are compared: a term's == still recurses
    n = 10_000
    num, over_var = "s(" * n + "z" + ")" * n, "s(" * n + "x" + ")" * n
    got = at_recursion_limit_1000(
        num=lambda: print_expr(parse_expr(num)),
        over_var=lambda: print_expr(parse_expr(over_var)),
    )
    assert got == {"num": num, "over_var": over_var}


@pytest.mark.parametrize("src, term", [
    # an inner s(...) heads the application inside its parent's parentheses
    ("s(s(z) z)", Succ(App(Succ(Zero()), Zero()))),
    ("s(s(s(z)) f) x", App(Succ(App(Succ(Succ(Zero())), Var("f"))), Var("x"))),
    ("f s(z) z", App(App(Var("f"), Succ(Zero())), Zero())),
])
def test_arguments_after_an_inner_successor_stay_inside_it(src, term):
    assert parse_expr(src) == term


@pytest.mark.parametrize("src, says", [
    ("fun f(", "1:7: expected a binder, found end of input"),
    ("eff[", "1:5: expected an effect label, found end of input"),
    ("eff[(", "1:5: expected an effect label, found '('"),
    ("s(z", "1:4: expected ')', found end of input"),
])
def test_every_missing_token_is_expected_and_found(src, says):
    with pytest.raises(ParseError) as err:
        parse_expr(src)
    assert str(err.value) == says


### the let-free fragment checker


def test_mnf_values_include_variables():
    assert is_mnf_value(Var("x"))
    assert is_mnf_value(Zero())
    assert not is_mnf_value(App(ID, Zero()))


def test_check_mnf_accepts_let_chains():
    assert check_mnf(parse_expr("let t0 = (fun f(x) => x) z in s(t0)"))


def test_check_mnf_rejects_compound_scrutinee():
    assert not check_mnf(parse_expr("case s((fun f(x) => x) z) { z => z | s(n) => n }"))


def test_check_mnf_rejects_nested_application():
    assert not check_mnf(parse_expr("(fun f(x) => x) ((fun g(y) => y) z)"))
