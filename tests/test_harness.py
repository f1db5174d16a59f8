"""Term enumeration, random generation, shrinking, and the property suites."""

import dataclasses
import hashlib
import importlib
import random

import pytest

from bigstop import (
    App,
    Eff,
    FuelExhausted,
    GenConfig,
    GenerationExhausted,
    ImpConfig,
    ImpFuelExhausted,
    Lam,
    Let,
    Value,
    Var,
    While,
    Zero,
    corpus,
    corpus_term,
    enumerate_exprs,
    enumerate_stmts,
    expr_size,
    gen_typed_expr,
    parse_expr,
    parse_stmt,
    print_expr,
    print_stmt,
    run_property_suite,
    suite_names,
    well_typed,
)
from bigstop.harness import _enum, gen_imp_config, gen_stmt, shrink_expr, shrink_stmt
from bigstop.mnf import _spine
from bigstop.typecheck import principal_typing


def walk(x):
    yield x
    for f in dataclasses.fields(x):
        v = getattr(x, f.name)
        if dataclasses.is_dataclass(v):
            yield from walk(v)


### enumeration

def test_size_one_is_just_zero():
    assert list(enumerate_exprs(1)) == [Zero()]


def test_enumeration_count_is_stable():
    # regression pin: the well-typed fragment up to four nodes
    assert len(list(enumerate_exprs(4))) == 117


def test_everything_enumerated_is_well_typed_and_small():
    for e in enumerate_exprs(4):
        assert well_typed(e)
        assert expr_size(e) <= 4


@pytest.fixture(scope="module")
def stream_8():
    # the stream _enum builds up to the size ceiling, which enumerate_exprs(8) yields
    memo = {}
    return [e for size in range(1, 9) for e in _enum(size, frozenset(), memo)]


def _digest(terms):
    return hashlib.sha256("\n".join(map(print_expr, terms)).encode()).hexdigest()


def test_enumeration_is_duplicate_free(stream_8):
    # _enum type-filters every memo list, so its stream is the typed one
    assert len(stream_8) == 92_148
    assert len(set(stream_8)) == len(stream_8)


def test_enumeration_yields_a_pinned_stream(stream_8):
    # content and order, pinned when the filter ran on whole terms
    pins = {
        6: (2_883, "8ef97ebdd3f89977760d44bbc8f71612329aef37015669b04f4913f61e798745"),
        7: (16_014, "ba245750e9841e4078fb3203a67142ca822270ee21324b5dd46e9f1c490fad58"),
        8: (92_148, "e02db68f4bf718d092ef4f6730699b9921f7a3f34591c6801c9c7768c0f96e47"),
    }
    for n in (6, 7):
        terms = list(enumerate_exprs(n))
        assert (len(terms), _digest(terms)) == pins[n]
        assert terms == stream_8[: len(terms)]
    assert (len(stream_8), _digest(stream_8)) == pins[8]


def test_enumeration_types_only_typable_parts(monkeypatch):
    # whole-term filtering made 59,647 typing calls at size 7, filtering
    # built from typable parts 42,311; one per key of constructor and
    # parts' typings makes 2,425
    import bigstop.harness as harness

    calls = []

    def counted(*args):
        calls.append(None)
        return principal_typing(*args)

    monkeypatch.setattr(harness, "principal_typing", counted)
    assert len(list(enumerate_exprs(7))) == 16_014
    assert len(calls) <= 2_500


def test_enumeration_typing_ids_are_exact():
    # each memo list's typing ids are those a fresh inference gives
    memo = {}
    for size in range(1, 7):
        _enum(size, frozenset(), memo)
    ids = memo["ids"]
    lists = [(k, terms) for k, terms in memo.items() if type(k) is tuple and len(k) == 2]
    assert sum(len(terms) for _, terms in lists) > 2_883
    for (size, env), terms in lists:
        names = sorted(env)
        got = [ids[principal_typing(e, names)] for e in terms]
        assert got == memo["ids", size, env], (size, env)


def test_enumeration_cache_is_local_to_one_call():
    one, two = enumerate_exprs(6), enumerate_exprs(6)
    a, b = [], []
    for x, y in zip(one, two):
        a.append(x)
        b.append(y)
    assert next(one, None) is None and next(two, None) is None
    assert a == b == list(enumerate_exprs(6))
    assert len(a) == 2_883


def test_known_members():
    assert parse_expr("s(s(z))") in set(enumerate_exprs(3))
    # an application of the identity needs four nodes
    ident_app = App(Lam("a", "b", Var("b")), Zero())
    assert ident_app not in set(enumerate_exprs(3))
    assert ident_app in set(enumerate_exprs(4))


def test_enumeration_has_a_hard_ceiling():
    with pytest.raises(ValueError):
        list(enumerate_exprs(9))


def test_statement_enumeration_reaches_loops():
    stmts = list(enumerate_stmts(4))
    assert any(isinstance(s, While) for s in stmts)
    assert len(stmts) == len(set(stmts))


### random generation

def test_generation_is_deterministic_in_the_seed():
    assert gen_typed_expr(GenConfig(seed=7)) == gen_typed_expr(GenConfig(seed=7))
    assert gen_typed_expr(GenConfig(seed=7)) != gen_typed_expr(GenConfig(seed=8))


def test_generated_terms_are_well_typed():
    # the generator runs the typing rules backwards and checks nothing after
    for seed in range(2000):
        assert well_typed(gen_typed_expr(GenConfig(seed=seed)))


def test_impossible_requests_raise(monkeypatch):
    import bigstop.harness as harness

    def fail(*args):
        raise harness._GenFail()

    monkeypatch.setattr(harness, "_gen", fail)
    with pytest.raises(GenerationExhausted):
        gen_typed_expr(GenConfig(seed=0))


def test_config_validates_its_size():
    with pytest.raises(ValueError):
        GenConfig(max_size=0)


def test_statement_generator_produces_runnable_configs():
    rng = random.Random(5)
    for _ in range(20):
        c = gen_imp_config(rng)
        assert isinstance(c, ImpConfig)
        # printable and re-parseable
        assert parse_stmt(print_stmt(c.stmt)) == c.stmt
    assert print_stmt(gen_stmt(random.Random(5)))  # non-empty rendering


def test_generated_programs_are_pinned():
    # sequences are built nested to the left, as the parser nests them; a
    # change to that or to the draws changes imp-sweep's generated pool
    per_seed = hashlib.sha256()
    for seed in range(1000):
        per_seed.update(repr(gen_stmt(random.Random(seed))).encode())
    assert per_seed.hexdigest() == "91dc69a2ebd39b630c7459b16d13de91c9ca6744df9fe94d66a595c72f8c18c9"
    rng, pool = random.Random(0), hashlib.sha256()
    for _ in range(2000):
        pool.update(repr(gen_imp_config(rng)).encode())
    assert pool.hexdigest() == "96866523f95fdc8afcd7f8d50407bf09b83b6b045347dcc18e3870d29df9312b"


### the reference programs

def test_corpus_names():
    assert [n for n, _ in corpus()] == [
        "leroy-grall",
        "filinski",
        "omega",
        "alloc-unbounded",
        "alloc-bounded",
    ]


def test_corpus_terms_are_well_typed():
    for _, e in corpus():
        assert well_typed(e)


def test_corpus_lookup_by_name():
    assert print_expr(corpus_term("omega")) == "(fun f(x) => f x) z"
    with pytest.raises(KeyError):
        corpus_term("nope")


### shrinking

def test_shrinking_replaces_irrelevant_subterms():
    e = parse_expr("s(s(eff[a] (fun f(x) => x) z))")
    fails = lambda t: any(isinstance(n, Eff) for n in walk(t))  # noqa: E731
    small = shrink_expr(e, fails)
    assert small == parse_expr("s(s(eff[a] z))")
    assert fails(small)


def test_shrinking_never_returns_a_passing_term():
    e = parse_expr("case s(z) { z => z | s(n) => eff[boom] n }")
    fails = lambda t: any(isinstance(n, Eff) for n in walk(t))  # noqa: E731
    assert fails(shrink_expr(e, fails))


def test_statement_shrinking_keeps_the_fault():
    s = parse_stmt("x := 1 ; while y do { y := y - 1 } ; z := 2")
    fails = lambda st: any(isinstance(n, While) for n in walk(st))  # noqa: E731
    small = shrink_stmt(s, fails)
    assert print_stmt(small) == "skip ; while y do { skip } ; skip"


### property suites

def test_suite_names_are_stable():
    assert suite_names() == (
        "annihilator",
        "derivation-integrity",
        "ec",
        "imp",
        "kmachine",
        "mnf",
        "progress-preservation",
        "stop-multi",
        "stop-step-big",
    )


def test_unknown_suites_are_rejected_by_name():
    with pytest.raises(KeyError):
        run_property_suite("nope")


def test_enumeration_suite_scales_with_the_config():
    rep = run_property_suite("stop-multi", cfg=GenConfig(max_size=4), max_budget=3)
    assert rep.trials == 117 * 4
    assert rep.ok
    assert rep.failures == ()


def test_generation_suite_scales_with_trials():
    rep = run_property_suite("stop-step-big", trials=40)
    assert rep.trials == 40
    assert rep.ok


def test_imp_suites_run_small():
    rep = run_property_suite("imp", cfg=GenConfig(max_size=3), trials=30, max_budget=3)
    assert rep.ok


def test_report_renders_both_ways():
    rep = run_property_suite("stop-multi", cfg=GenConfig(max_size=3), max_budget=2)
    text = rep.to_text()
    assert "property: stop-multi" in text
    assert "result:   PASS" in text
    obj = rep.to_json()
    assert sorted(obj.keys()) == ["failures", "property", "seed", "trials"]
    assert obj["failures"] == []


### the failure path: a wrong engine, capped, shrunk and reported

def test_a_wrong_engine_fails_stop_multi_with_five_shrunk_counterexamples(monkeypatch):
    import bigstop.harness as harness

    real = harness.bigstop_eval

    def drops_the_last_label_at_budget_2(e, b):
        r = real(e, b)
        if b == 2 and r.trace:
            return dataclasses.replace(r, trace=r.trace[:-1])
        return r

    monkeypatch.setattr(harness, "bigstop_eval", drops_the_last_label_at_budget_2)
    rep = run_property_suite("stop-multi", cfg=GenConfig(max_size=4), max_budget=3)
    assert not rep.ok
    assert rep.trials == 117 * 4
    got = [(print_expr(f.term), f.budget, f.expected, f.actual) for f in rep.failures]
    assert got == [
        ("eff[a] z", 2, "z | a", "z | 1"),
        ("eff[b] z", 2, "z | b", "z | 1"),
        ("s(eff[a] z)", 2, "s(z) | a", "s(z) | 1"),
        ("s(eff[b] z)", 2, "s(z) | b", "s(z) | 1"),
        ("eff[a] z", 2, "z | a", "z | 1"),
    ]
    assert "result:   FAIL" in rep.to_text()
    assert rep.to_json()["failures"][0] == {
        "term": "eff[a] z", "budget": 2, "expected": "z | a", "actual": "z | 1",
    }


def test_a_wrong_engine_fails_imp_stop_multi_with_shrunk_statements(monkeypatch):
    import bigstop.harness as harness
    from bigstop import ImpConfig, state_get

    real = harness.imp.imp_bigstop

    def loses_the_third_step_when_y_is_3(c, b):
        r = real(c, b)
        if b == 3 and state_get(c.state, "y") == 3:
            return ImpConfig(r.stmt, real(c, 2).state)
        return r

    monkeypatch.setattr(harness.imp, "imp_bigstop", loses_the_third_step_when_y_is_3)
    rep = run_property_suite("imp", cfg=GenConfig(seed=1, max_size=4), trials=60, max_budget=3)
    assert rep.trials == 5168
    assert rep.to_json()["failures"] == [
        {
            "term": "if y + 1 + 3 then { while y do { y := x ; skip ; skip } } | {x=2, y=3}",
            "budget": 3,
            "expected": "skip ; skip ; skip ; while y do { y := x ; skip ; skip } | {x=2, y=2}",
            "actual": "skip ; skip ; skip ; while y do { y := x ; skip ; skip } | {x=2, y=3}",
        },
        {
            "term": "while 2 - (3 - 2) do { if 3 + y * y then { x := 1 + y - (x - 2) ; skip } }"
                    " ; skip | {x=1, y=3}",
            "budget": 3,
            "expected": "skip ; skip ; while 2 - (3 - 2) do { if 3 + y * y then"
                        " { x := 1 + y - (x - 2) ; skip } } ; skip | {x=5, y=3}",
            "actual": "skip ; skip ; while 2 - (3 - 2) do { if 3 + y * y then"
                      " { x := 1 + y - (x - 2) ; skip } } ; skip | {x=1, y=3}",
        },
        {
            "term": "if x then { if y - 1 + (x + y) then { y := y - y + (3 + y) ; skip }"
                    " ; skip ; skip } | {x=3, y=3}",
            "budget": 3,
            "expected": "skip ; skip ; skip ; skip | {x=3, y=6}",
            "actual": "skip ; skip ; skip ; skip | {x=3, y=3}",
        },
    ]


### no suite passes vacuously: each fails once one engine it compares is wrong

def _wrong(change, at=None):
    """A wrong engine made from the real one: change(result, input) replaces
    its result on every call at budget `at`, or on every call."""

    def make(real):
        def engine(t, b):
            r = real(t, b)
            return change(r, t) if at is None or b == at else r

        return engine

    return make


def _drop_last_label(r, _):
    return dataclasses.replace(r, trace=tuple(r.trace)[:-1])


def _silent(step):
    # a stepper that emits nothing
    return lambda e: (r := step(e)) and dataclasses.replace(r, trace=())


def _ends_at_the_identity(trajectory, _):
    # the last point of a longer run turns into a function
    if len(trajectory) < 2:
        return trajectory
    return [*trajectory[:-1], Lam("f", "x", Var("x"))]


SMALL = dict(cfg=GenConfig(max_size=4), max_budget=3)
SMALL_GEN = dict(cfg=GenConfig(max_size=12), trials=30)
SMALL_IMP = dict(cfg=GenConfig(max_size=3), trials=20, max_budget=3)
replace = dataclasses.replace

# one wrong engine per compared engine, named by the comparison it breaks;
# kmachine and imp hold two comparisons each:
# name -> (suite, module, engine the suite compares, how it goes wrong, scale)
WRONG_ENGINES = {
    "annihilator": ("annihilator", "bigstop.harness", "annihilator_derivation", _wrong(
        lambda d, e: replace(d, trace=tuple(d.trace)[1:]), at=1), SMALL),
    "derivation-integrity": ("derivation-integrity", "bigstop.harness", "bigstop_eval", _wrong(
        lambda r, e: replace(r, derivation=replace(
            r.derivation, trace=(*r.derivation.trace, "a"))), at=1), SMALL),
    "ec": ("ec", "bigstop.harness", "ec_bigstop_eval", _wrong(_drop_last_label, at=2), SMALL),
    "imp-freeze": ("imp", "bigstop.imp", "imp_bigstop_freeze", _wrong(
        lambda r, c: replace(r, frozen=not r.frozen), at=3), SMALL_IMP),
    "imp-stop-multi": ("imp", "bigstop.imp", "imp_bigstep", _wrong(
        lambda r, c: ImpFuelExhausted(), at=3), SMALL_IMP),
    "kmachine-convergent": ("kmachine", "bigstop.kmachine", "k_run", _wrong(
        lambda r, s: replace(r, trace=())), SMALL),
    # 37 is a budget only the divergers' sweep reaches
    "kmachine-divergent": ("kmachine", "bigstop.bigstop", "bigstop_eval", _wrong(
        lambda r, e: replace(r, stopped=Zero()), at=37), SMALL),
    "mnf": ("mnf", "bigstop.harness", "mnf_small_step", _silent, SMALL_GEN),
    "progress-preservation": ("progress-preservation", "bigstop.harness", "step_trace", _wrong(
        _ends_at_the_identity), SMALL_GEN),
    "stop-multi": ("stop-multi", "bigstop.harness", "bigstop_eval", _wrong(
        lambda r, e: replace(r, stopped=e), at=1), SMALL),
    "stop-step-big": ("stop-step-big", "bigstop.harness", "big_step", _wrong(
        lambda r, e: FuelExhausted() if isinstance(r, Value) else r), SMALL_GEN),
}


def test_every_suite_has_a_wrong_engine():
    assert tuple(sorted({suite for suite, *_ in WRONG_ENGINES.values()})) == suite_names()


@pytest.mark.parametrize("comparison", sorted(WRONG_ENGINES))
def test_a_wrong_engine_fails_its_suite(monkeypatch, comparison):
    suite, module, name, make_wrong, scale = WRONG_ENGINES[comparison]
    module = importlib.import_module(module)
    monkeypatch.setattr(module, name, make_wrong(getattr(module, name)))
    assert run_property_suite(suite, **scale).ok is False


def _administrative(e):
    return type(_spine(e)[1]) is Let


def _fold_administrative(step):
    # an MNF stepper that takes each administrative let and the step after it as one
    def fold(e):
        r = step(e)
        return (step(r.expr) or r) if r is not None and _administrative(e) else r

    return fold


def _at_administrative_lets(change):
    # an MNF stepper that changes each administrative step's result
    def make(step):
        return lambda e: change(step(e), e) if _administrative(e) else step(e)

    return make


def _one_step_late(step):
    # an MNF stepper that emits each step's labels on the step after it
    late = [()]

    def delay(e):
        r = step(e)
        if r is None:
            return None
        out, late[0] = late[0], r.trace
        return dataclasses.replace(r, trace=out)

    return delay


def _flip_the_cut(d, _):
    # a cut tree loses its trailing 0, any other gains one
    t = tuple(d.trace)
    return replace(d, trace=t[:-1] if t[-1:] == ("0",) else (*t, "0"))


# engines wrong in ways only an exact comparison per case sees:
# name -> (suite, engine the suite compares, how it goes wrong, scale)
SABOTAGED = {
    "annihilator-cut-flipped": ("annihilator", "annihilator_derivation", _wrong(_flip_the_cut), SMALL),
    "annihilator-value-z": ("annihilator", "annihilator_derivation", _wrong(
        lambda d, e: replace(d, rhs=Zero())), SMALL),
    "mnf-folds-administrative-lets": ("mnf", "mnf_small_step", _fold_administrative, SMALL_GEN),
    "mnf-labels-one-step-late": ("mnf", "mnf_small_step", _one_step_late, SMALL_GEN),
    "mnf-labels-administrative-lets": ("mnf", "mnf_small_step", _at_administrative_lets(
        lambda r, e: replace(r, trace=("let",))), SMALL_GEN),
    "mnf-administrative-let-unchanged": ("mnf", "mnf_small_step", _at_administrative_lets(
        lambda r, e: replace(r, expr=e)), SMALL_GEN),
}


@pytest.mark.parametrize("sabotage", sorted(SABOTAGED))
def test_a_sabotaged_engine_fails_at_a_named_point(monkeypatch, sabotage):
    suite, name, make_wrong, scale = SABOTAGED[sabotage]
    harness = importlib.import_module("bigstop.harness")
    monkeypatch.setattr(harness, name, make_wrong(getattr(harness, name)))
    rep = run_property_suite(suite, **scale)
    assert not rep.ok
    for f in rep.failures:
        # an annihilator case is one budget; an MNF report names the contraction
        assert suite == "annihilator" or "contraction" in f.expected, f
