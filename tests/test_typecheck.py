import re

import pytest

from bigstop.harness import GenConfig, GenerationExhausted, enumerate_exprs, gen_typed_expr
from bigstop.smallstep import step_trace
from bigstop.syntax import App, Succ, Var, Zero, numeral, parse_expr, print_expr
from bigstop.typecheck import (
    ArrowT,
    MetaT,
    NatT,
    TypeFailure,
    infer_type,
    principal_type,
    print_type,
    types_unifiable,
    well_typed,
)

NAT = NatT()


def ty(src):
    return infer_type(parse_expr(src))


def test_ground_terms():
    assert ty("z") == NAT
    assert ty("s(s(z))") == NAT


def test_identity_defaults_to_nat_to_nat():
    # nothing constrains the argument, so the leftover meta becomes nat
    assert ty("fun f(x) => x") == ArrowT(NAT, NAT)


def test_application():
    assert ty("(fun f(x) => s(x)) z") == NAT


def test_recursive_self_reference():
    # f is in scope in its own body at the same arrow type
    assert ty("fun f(x) => f x") == ArrowT(NAT, NAT)


def test_case_branches_must_agree():
    assert ty("case z { z => z | s(n) => n }") == NAT
    with pytest.raises(TypeFailure):
        ty("case z { z => z | s(n) => fun g(y) => y }")


def test_case_scrutinee_must_be_nat():
    with pytest.raises(TypeFailure):
        ty("case (fun f(x) => x) { z => z | s(n) => n }")


def test_effects_are_transparent():
    assert ty("eff[a] s(z)") == NAT
    assert ty("fun f(x) => eff[a] x") == ArrowT(NAT, NAT)


def test_self_application_fails_occurs_check():
    with pytest.raises(TypeFailure):
        ty("fun f(x) => x x")


def test_zero_applied_to_zero():
    with pytest.raises(TypeFailure):
        ty("z z")


def test_failure_points_at_the_offending_subterm():
    try:
        infer_type(App(Zero(), Zero()))
    except TypeFailure as tf:
        assert tf.at == App(Zero(), Zero())
    else:
        raise AssertionError("expected TypeFailure")


def test_open_terms_fail():
    with pytest.raises(TypeFailure):
        infer_type(Var("x"))


def test_let_is_monomorphic():
    assert ty("let i = fun f(x) => x in i z") == NAT
    with pytest.raises(TypeFailure):
        # i used at two incompatible types
        ty("let i = fun f(x) => x in (i i) z")


def test_print_type():
    assert print_type(NAT) == "nat"
    assert print_type(ArrowT(NAT, NAT)) == "nat -> nat"
    assert print_type(ArrowT(ArrowT(NAT, NAT), NAT)) == "(nat -> nat) -> nat"
    assert print_type(ArrowT(NAT, ArrowT(NAT, NAT))) == "nat -> nat -> nat"


def test_well_typed_predicate():
    assert well_typed(parse_expr("s(z)"))
    assert not well_typed(parse_expr("z z"))


def test_unifiable_principal_types():
    # the double-identity application has a more general principal type than
    # its one-step reduct, but the two must stay unifiable
    a = principal_type(parse_expr("(fun f(x) => x) (fun g(y) => y)"))
    b = principal_type(parse_expr("fun g(y) => y"))
    assert types_unifiable(a, b)
    assert not types_unifiable(NAT, ArrowT(NAT, NAT))


### pinned principal types and failures

def _renamed(t):
    # print with metas numbered by first occurrence: equal up to renaming
    seen = {}
    return re.sub(r"\?\d+", lambda m: seen.setdefault(m.group(0), f"?{len(seen)}"), print_type(t))


PRINCIPAL = [
    ("z", "nat"),
    ("s(s(z))", "nat"),
    ("fun f(x) => x", "?0 -> ?0"),
    ("fun f(x) => f x", "?0 -> ?1"),
    ("fun f(x) => s(x)", "nat -> nat"),
    ("fun _(x) => fun _(y) => x", "?0 -> ?1 -> ?0"),
    ("fun f(x) => fun g(y) => x y", "(?0 -> ?1) -> ?0 -> ?1"),
    ("(fun f(x) => x) (fun g(y) => y)", "?0 -> ?0"),
    ("fun f(g) => fun h(x) => g (h x)", "(?0 -> ?0) -> ?1 -> ?0"),
    ("fun f(x) => case x { z => z | s(n) => f n }", "nat -> nat"),
    ("fun f(x) => case x { z => fun g(y) => y | s(n) => f n }", "nat -> ?0 -> ?0"),
    ("fun f(x) => eff[a] x", "?0 -> ?0"),
    ("let i = fun f(x) => x in i", "?0 -> ?0"),
    ("let _ = z in fun f(x) => fun g(y) => y", "?0 -> ?1 -> ?1"),
    ("fun f(x) => fun x(x) => x", "?0 -> ?1 -> ?1"),
    ("fun f(f) => f", "?0 -> ?0"),
    ("fun f(x) => case z { z => x | s(x) => x }", "nat -> nat"),
    ("(fun f(x) => f x) z", "?0"),
    ("fun f(k) => k (k z)", "(nat -> nat) -> nat"),
]


@pytest.mark.parametrize("src,want", PRINCIPAL)
def test_principal_types_are_pinned_up_to_renaming(src, want):
    assert _renamed(principal_type(parse_expr(src))) == want


FAILURES = [
    ("y", "unbound variable y", "y"),
    ("fun f(x) => s(f)", "successor of a non-number", "s(f)"),
    ("fun f(x) => f", "function body disagrees with its own uses", "fun f(x) => f"),
    ("fun f(x) => x x", "applying a non-function or wrong argument type", "x x"),
    ("(fun f(x) => s(x)) (fun g(y) => y)", "applying a non-function or wrong argument type",
     "(fun f(x) => s(x)) (fun g(y) => y)"),
    ("s(s(s(fun f(x) => x)))", "successor of a non-number", "s(fun f(x) => x)"),
    ("case (fun f(x) => x) { z => z | s(n) => n }", "case scrutinee is not a number",
     "case (fun f(x) => x) { z => z | s(n) => n }"),
    ("fun f(x) => case x { z => f | s(n) => n }", "case branches have different types",
     "case x { z => f | s(n) => n }"),
]


@pytest.mark.parametrize("src,msg,at", FAILURES)
def test_each_failure_kind_keeps_its_message_and_subterm(src, msg, at):
    with pytest.raises(TypeFailure) as info:
        principal_type(parse_expr(src))
    assert str(info.value) == msg
    assert print_expr(info.value.at) == at


def test_a_numeral_deeper_than_the_recursion_limit_is_typed(at_recursion_limit_1000):
    deep = 10_000
    ident = parse_expr("fun f(x) => x")
    bad = ident
    for _ in range(deep):
        bad = Succ(bad)

    def failure():
        with pytest.raises(TypeFailure) as info:
            principal_type(bad)
        return info.value.at

    got = at_recursion_limit_1000(
        typed=lambda: infer_type(App(ident, numeral(deep))),
        well=lambda: well_typed(numeral(deep)),
        failure=failure,
    )
    assert got["typed"] == NAT and got["well"] is True
    assert type(got["failure"]) is Succ and got["failure"].body is ident


def _metas(t):
    match t:
        case MetaT(i):
            return {i}
        case ArrowT(d, c):
            return _metas(d) | _metas(c)
    return set()


def test_two_calls_never_share_a_meta():
    # preservation checks unify the types of two separate calls, so a shared
    # ident would wrongly tie them together
    e = parse_expr("fun f(x) => fun g(y) => x y")
    a, b = principal_type(e), principal_type(e)
    assert _metas(a) and _metas(b)
    assert not _metas(a) & _metas(b)


def test_environments_may_be_dicts_or_pairs_and_later_pairs_shadow():
    k = ArrowT(NAT, NAT)
    assert infer_type(parse_expr("k z"), {"k": k}) == NAT
    assert infer_type(parse_expr("k z"), (("k", NAT), ("k", k))) == NAT
    assert principal_type(Var("x"), {"x": MetaT(7)}) == MetaT(7)


### the principal scheme a closed function keeps

@pytest.mark.parametrize("src,want", PRINCIPAL)
def test_pins_hold_when_the_same_object_is_inferred_again(src, want):
    e = parse_expr(src)
    assert _renamed(principal_type(e)) == want
    assert _renamed(principal_type(e)) == want


def test_each_use_of_a_kept_scheme_takes_its_own_metas():
    ident = parse_expr("fun f(x) => x")
    # the first call walks the body and keeps the scheme; the others use it
    a, b, c = principal_type(ident), principal_type(ident), principal_type(ident)
    assert _metas(a) and _metas(b) and _metas(c)
    assert not _metas(a) & _metas(b) and not _metas(b) & _metas(c)
    # one object at two types in one term: a shared instance would fail
    # the occurs check
    assert principal_type(App(App(ident, ident), Zero())) == NAT


@pytest.mark.parametrize("src,msg,at", FAILURES)
def test_a_failure_is_the_same_on_the_second_call(src, msg, at):
    e = parse_expr(src)
    seen = []
    for _ in range(2):
        with pytest.raises(TypeFailure) as info:
            principal_type(e)
        assert str(info.value) == msg
        assert print_expr(info.value.at) == at
        seen.append(info.value.at)
    assert seen[0] is seen[1]


def test_a_function_typed_under_an_environment_keeps_nothing():
    e = parse_expr("fun f(x) => k x")
    assert infer_type(e, {"k": ArrowT(NAT, NAT)}) == ArrowT(NAT, NAT)
    with pytest.raises(TypeFailure, match="unbound variable k"):
        principal_type(e)


def test_a_closed_function_under_a_binder_still_types():
    outer = parse_expr("fun f(x) => (fun g(y) => y) x")
    inner = outer.body.fn
    assert _renamed(principal_type(inner)) == "?0 -> ?0"
    for _ in range(2):
        assert _renamed(principal_type(outer)) == "?0 -> ?0"
    shadowed = parse_expr("fun y(x) => case x { z => fun g(y) => y | s(n) => y n }")
    for _ in range(2):
        assert _renamed(principal_type(shadowed.body.zero_branch)) == "?0 -> ?0"
        assert _renamed(principal_type(shadowed)) == "nat -> ?0 -> ?0"


def _shape(t, metas):
    # t as nested pairs, its metas numbered by first occurrence: _renamed's
    # printing costs more at the 100,000 types the trajectory test compares
    if type(t) is ArrowT:
        return (_shape(t.domain, metas), _shape(t.codomain, metas))
    if type(t) is MetaT:
        return metas.setdefault(t.ident, len(metas))
    return "nat"


def _default_gen_pool(n=2000):
    # the terms the harness's generated suites draw by default
    seed = 0
    while n:
        try:
            yield gen_typed_expr(GenConfig(seed=seed))
            n -= 1
        except GenerationExhausted:
            pass
        seed += 1


def test_kept_schemes_type_every_trajectory_point_as_a_fresh_parse_does():
    # Each point's reparse is the same point of the reparsed start term's
    # trajectory, whose objects are fresh.  Typed under an environment, they
    # keep no scheme, so every point there is typed by a full walk; the
    # environment's name occurs in no closed term.
    walk_all = {"unused": NAT}
    points = 0
    for terms in (enumerate_exprs(6), _default_gen_pool()):
        for e in terms:
            kept = step_trace(e, 64)
            fresh = step_trace(parse_expr(print_expr(e)), 64)
            assert len(kept) == len(fresh)
            for i, (a, b) in enumerate(zip(kept, fresh)):
                got = _shape(principal_type(a), {})
                assert got == _shape(principal_type(b, walk_all), {}), (print_expr(e), i)
            assert print_expr(kept[-1]) == print_expr(fresh[-1])
            points += len(kept)
    assert points > 50_000
