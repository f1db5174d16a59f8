"""Imperative sibling language: arithmetic, the four engines, and freezing."""

import pytest

from bigstop import (
    Add,
    Assign,
    FreezeResult,
    If,
    ImpDone,
    ImpFuelExhausted,
    ImpParseError,
    ImpStatus,
    Lit,
    Mul,
    ParseError,
    Ref,
    SeqS,
    Skip,
    Sub,
    While,
    aeval,
    config,
    enumerate_stmts,
    imp_bigstep,
    imp_bigstop,
    imp_bigstop_freeze,
    imp_multi_step,
    imp_small_step,
    make_state,
    parse_init,
    parse_stmt,
    print_config,
    print_state,
    print_stmt,
    state_get,
    state_set,
)


def countdown():
    return config(parse_stmt("while x do { x := x - 1 }"), parse_init("x=2"))


### stores

def test_states_are_canonically_sorted():
    st = make_state({"b": 1, "a": 2})
    assert st == (("a", 2), ("b", 1))
    assert print_state(st) == "{a=2, b=1}"


def test_unbound_variables_read_as_zero():
    assert state_get(make_state({}), "q") == 0
    assert aeval(make_state({}), Ref("q")) == 0


def test_updates_are_functional():
    st = make_state({"x": 3})
    st2 = state_set(st, "x", 9)
    assert state_get(st, "x") == 3
    assert state_get(st2, "x") == 9


BDF = make_state({"b": 1, "d": 2, "f": 3})


@pytest.mark.parametrize(
    "st, name",
    [
        ((), "m"),     # empty store
        (BDF, "d"),    # replace
        (BDF, "a"),    # insert before every name
        (BDF, "c"),    # insert between two names
        (BDF, "e"),
        (BDF, "g"),    # insert after every name
    ],
)
def test_state_set_keeps_the_store_canonical(st, name):
    assert state_set(st, name, 7) == make_state({**dict(st), name: 7})


def test_the_gate_pool_holds_one_store():
    pool = [config(s, {"x": 2, "y": 0}) for s in enumerate_stmts(6)]
    assert len(pool) == 60_662
    assert len({id(c.state) for c in pool}) == 1


def test_equal_stores_of_ints_are_one_object():
    st = make_state({"y": 0, "x": 2})
    assert st is make_state([("x", 2), ("y", 0)])
    assert st is parse_init("x=2,y=0")
    assert st == (("x", 2), ("y", 0))


@pytest.mark.parametrize("other", [True, 1.0])
def test_a_store_is_shared_only_with_values_of_the_same_type(other):
    # other compares and hashes equal to 1, yet prints differently
    make_state({"x": other})
    st = make_state({"x": 1})
    assert type(state_get(st, "x")) is int
    assert print_config(config(Skip(), {"x": 1})) == "skip | {x=1}"
    assert type(state_get(make_state({"x": other}), "x")) is type(other)


def test_state_set_leaves_a_shared_store_unchanged():
    st = make_state({"x": 2, "y": 0})
    st2 = state_set(st, "x", 5)
    assert st2 is not st
    assert st == (("x", 2), ("y", 0))
    assert make_state({"x": 2, "y": 0}) is st
    assert st2 == (("x", 5), ("y", 0))


### arithmetic

def test_aeval_mixes_operators_with_usual_precedence():
    st = make_state({"x": 3})
    got = parse_stmt("y := x * x + 1")
    assert got == Assign("y", Add(Mul(Ref("x"), Ref("x")), Lit(1)))
    assert aeval(st, got.expr) == 10


def test_subtraction_is_not_truncated():
    assert aeval(make_state({}), Sub(Lit(0), Lit(1))) == -1


### parsing and printing

ROUND_TRIPS = [
    "skip",
    "x := 0",
    "x := x - 1 ; y := y + x",
    "if x then { x := 0 ; y := y + 1 }",
    "while x do { x := x - 1 }",
    "while x do { if y then { y := 0 } ; x := x - 1 }",
]


@pytest.mark.parametrize("src", ROUND_TRIPS)
def test_print_parse_round_trip(src):
    assert print_stmt(parse_stmt(src)) == src


def test_sequencing_associates_left():
    assert parse_stmt("skip ; skip ; skip") == SeqS(SeqS(Skip(), Skip()), Skip())


def test_loop_bodies_require_braces():
    with pytest.raises(ImpParseError):
        parse_stmt("while x do skip")


@pytest.mark.parametrize("src, says", [
    ("x := ", "1:6: expected an expression, found end of input"),
    ("x := 1 ;\ny := )", "2:6: expected an expression, found ')'"),
    # digits are ASCII, as names are: \d would read these as 33, 13 and 3
    ("x := ٣٣ + 1", "1:6: unexpected character '٣'"),
    ("x := 1٣", "1:7: unexpected character '٣'"),
    ("x := ３", "1:6: unexpected character '３'"),
])
def test_parse_errors_name_the_line_and_column(src, says):
    with pytest.raises(ImpParseError) as err:
        parse_stmt(src)
    assert str(err.value) == says


def test_initial_store_syntax():
    assert parse_init("x=2,y=0") == (("x", 2), ("y", 0))
    assert parse_init("") == ()


def test_initial_store_rejects_names_a_program_cannot_use():
    assert parse_init(" _a1 = 3 , b=-1") == (("_a1", 3), ("b", -1))
    for bad in ("x y=2", "while=3", "skip=1", "=4", "x=1,x=2", "é=1", "x=abc", "x="):
        with pytest.raises(ImpParseError):
            parse_init(bad)


@pytest.mark.parametrize("text, says", [
    ("x=1,x=2", "1:5: 'x' is bound twice"),
    ("x=2,\ny", "2:2: expected '=', found end of input"),
    ("x=- 3", "1:3: expected an integer, found '-'"),   # the sign touches the digits
    ("x=+3", "1:3: expected an integer, found '+'"),    # a literal no program can write
    ("x=3_000", "1:4: expected ',', found '_000'"),
    ("x=1 -- no comments", "1:5: expected ',', found '-'"),
    ("é=1", "1:1: unexpected character 'é'"),
    ("x=٣", "1:3: unexpected character '٣'"),       # digits are ASCII, as names are
])
def test_initial_store_errors_name_the_line_and_column(text, says):
    with pytest.raises(ParseError) as err:
        parse_init(text)
    assert isinstance(err.value, ImpParseError)
    assert (str(err.value), err.value.line, err.value.col) == (says, *map(int, says.split(":")[:2]))


def test_a_long_sequence_prints_in_one_loop(at_recursion_limit_1000):
    # `;` nests to the left, one SeqS per statement
    src = " ; ".join(["x := x + 1"] * 3_000)
    prog = parse_stmt(src)
    got = at_recursion_limit_1000(again=lambda: print_stmt(parse_stmt(print_stmt(prog))))
    assert got["again"] == src


### small step

def test_only_skip_is_terminal():
    assert imp_small_step(config(Skip(), ())) is None
    assert imp_small_step(config(parse_stmt("x := 1"), ())) is not None


def test_countdown_trajectory():
    # the canonical two-iteration loop, one counted step at a time
    want = [
        "x := x - 1 ; while x do { x := x - 1 } | {x=2}",
        "skip ; while x do { x := x - 1 } | {x=1}",
        "while x do { x := x - 1 } | {x=1}",
        "x := x - 1 ; while x do { x := x - 1 } | {x=1}",
        "skip ; while x do { x := x - 1 } | {x=0}",
        "while x do { x := x - 1 } | {x=0}",
        "skip | {x=0}",
    ]
    cur = countdown()
    got = []
    while (nxt := imp_small_step(cur)) is not None:
        cur = nxt
        got.append(print_config(cur))
    assert got == want


def test_multi_statuses_and_step_counts():
    c = countdown()
    r = imp_multi_step(c, 3)
    assert r.status is ImpStatus.OUT_OF_BUDGET
    assert r.steps == 3
    assert print_config(r.config) == "while x do { x := x - 1 } | {x=1}"
    r = imp_multi_step(c, 7)
    assert r.status is ImpStatus.REACHED_SKIP
    assert r.steps == 7
    r = imp_multi_step(c, 50)
    assert r.steps == 7


def test_branching_steps():
    taken = config(parse_stmt("if x then { y := 1 }"), parse_init("x=2,y=5"))
    r = imp_multi_step(taken, 10)
    assert r.steps == 2                     # pick the branch, then assign
    assert print_config(r.config) == "skip | {x=2, y=1}"
    skipped = config(parse_stmt("if x then { y := 1 }"), parse_init("x=0,y=5"))
    r = imp_multi_step(skipped, 10)
    assert r.steps == 1
    assert print_config(r.config) == "skip | {x=0, y=5}"


### fuelled big step

def test_bigstep_fuel_boundary_matches_the_step_count():
    c = countdown()
    assert imp_bigstep(c, 7) == ImpDone((("x", 0),))
    assert imp_bigstep(c, 6) == ImpFuelExhausted()


def test_bigstep_on_divergence():
    spin = config(parse_stmt("while x do { y := 0 }"), parse_init("x=1"))
    assert imp_bigstep(spin, 1000) == ImpFuelExhausted()


### budgeted big step mirrors the step relation

def test_bigstop_is_the_multi_prefix_everywhere():
    c = countdown()
    for budget in range(10):
        assert imp_bigstop(c, budget) == imp_multi_step(c, budget).config


def test_bigstop_goldens():
    c = countdown()
    assert print_config(imp_bigstop(c, 3)) == "while x do { x := x - 1 } | {x=1}"
    assert print_config(imp_bigstop(c, 9)) == "skip | {x=0}"


### freezing

def test_freeze_reports_whether_the_run_was_cut():
    c = countdown()
    f = imp_bigstop_freeze(c, 3)
    assert f.frozen
    assert print_state(f.state) == "{x=1}"
    f = imp_bigstop_freeze(c, 7)
    assert not f.frozen
    assert print_state(f.state) == "{x=0}"


def test_frozen_stores_never_see_later_writes():
    c = config(parse_stmt("x := 1 ; y := 2"), parse_init(""))
    expect = [("{}", True), ("{x=1}", True), ("{x=1}", True), ("{x=1, y=2}", False)]
    for budget, (state, frozen) in enumerate(expect):
        f = imp_bigstop_freeze(c, budget)
        assert (print_state(f.state), f.frozen) == (state, frozen)


def test_freeze_state_always_matches_multi():
    c = config(
        parse_stmt("while x do { y := y + x ; x := x - 1 }"),
        parse_init("x=3,y=0"),
    )
    for budget in range(20):
        f = imp_bigstop_freeze(c, budget)
        m = imp_multi_step(c, budget)
        assert f.state == m.config.state
        assert f.frozen == (m.status is ImpStatus.OUT_OF_BUDGET)


### long runs

def test_long_loops_run_at_the_default_recursion_limit(at_recursion_limit_1000):
    # the loop turns 33,333 times within the budget; no engine may recurse
    # once per turn
    c = config(parse_stmt("x := 1 ; while x do { y := y + 1 }"), ())
    budget = 100_000
    got = at_recursion_limit_1000(
        multi=lambda: imp_multi_step(c, budget),
        bigstop=lambda: imp_bigstop(c, budget),
        freeze=lambda: imp_bigstop_freeze(c, budget),
        bigstep=lambda: imp_bigstep(c, budget),
    )
    m = got["multi"]
    assert m.status is ImpStatus.OUT_OF_BUDGET
    assert print_config(m.config) == "skip ; while x do { y := y + 1 } | {x=1, y=33333}"
    assert got["bigstop"] == m.config
    assert got["freeze"] == FreezeResult(m.config.state, True)
    assert got["bigstep"] == ImpFuelExhausted()


def test_deep_programs_run_at_the_default_recursion_limit(at_recursion_limit_1000):
    # 3,000 statements nest 3,000 deep to the left, as `;` parses; the nest
    # alternates 3,000 loops and conditionals around y := y + 1 ; x := 0.
    # Only stores are compared: == and repr on a statement recurse per level.
    # Multi-step walks the whole spine at every step, so it takes a few steps
    # only: from the start of the line, and from deep inside the nest.
    line = config(parse_stmt(" ; ".join(["x := x + 1"] * 3_000)), ())
    nest = SeqS(Assign("y", Add(Ref("y"), Lit(1))), Assign("x", Lit(0)))
    for i in range(3_000):
        nest = If(Ref("x"), nest) if i % 2 else While(Ref("x"), nest)
    nest = config(nest, parse_init("x=1"))
    fuel = 10_000

    def unrolled():
        # one step per loop unrolled and per branch taken: at 3,000 steps the
        # nest's next step assigns at the foot of a spine 1,501 sequences deep
        return imp_bigstop(nest, 3_000)

    got = at_recursion_limit_1000(
        line_bigstop=lambda: imp_bigstop(line, fuel).state,
        line_freeze=lambda: imp_bigstop_freeze(line, fuel),
        line_bigstep=lambda: imp_bigstep(line, fuel),
        line_multi=lambda: imp_multi_step(line, 20).config.state,
        line_small=lambda: imp_small_step(line).state,
        nest_bigstop=lambda: imp_bigstop(nest, fuel).state,
        nest_freeze=lambda: imp_bigstop_freeze(nest, fuel),
        nest_bigstep=lambda: imp_bigstep(nest, fuel),
        nest_multi=lambda: imp_multi_step(unrolled(), 3).config.state,
        nest_small=lambda: imp_small_step(unrolled()).state,
    )
    done = make_state({"x": 3_000})
    assert got["line_bigstop"] == done
    assert got["line_freeze"] == FreezeResult(done, False)
    assert got["line_bigstep"] == ImpDone(done)
    assert got["line_multi"] == make_state({"x": 10})
    assert got["line_small"] == make_state({"x": 1})
    done = make_state({"x": 0, "y": 1})
    assert got["nest_bigstop"] == done
    assert got["nest_freeze"] == FreezeResult(done, False)
    assert got["nest_bigstep"] == ImpDone(done)
    assert got["nest_multi"] == done
    assert got["nest_small"] == make_state({"x": 1, "y": 1})
