from functools import reduce

import pytest

from bigstop import (
    Eff,
    Zero,
    bigstop_eval,
    derivation_from_json,
    derivation_to_json_str,
    parse_expr,
    print_expr,
)
from bigstop.traces import (
    AnnTrace,
    BadLabel,
    Span,
    ann_join,
    check_label,
    emit,
    format_trace,
)


def test_empty_trace_prints_as_identity():
    assert format_trace(()) == "1"


def test_format_joins_labels_with_dots():
    assert format_trace(("a",)) == "a"
    assert format_trace(("alloc", "alloc")) == "alloc·alloc"
    assert format_trace(("a", "b", "a")) == "a·b·a"


def test_labels_cannot_be_zero_or_empty():
    with pytest.raises(BadLabel):
        check_label("0")
    with pytest.raises(BadLabel):
        check_label("")
    with pytest.raises(BadLabel):
        check_label("a·b")
    check_label("alloc")  # fine


@pytest.mark.parametrize("label", ["a b", "x]"])
def test_labels_the_parser_cannot_read_back_are_refused(label):
    with pytest.raises(BadLabel):
        check_label(label)
    with pytest.raises(BadLabel):
        Eff(label, Zero())


def test_a_label_that_passed_leaves_the_others_refused():
    # check_label keeps the labels that passed; none of them vouches for another
    for label in ("a", "b", "x", "a_b", "x'", "00"):
        assert check_label(label) == check_label(label) == label
        assert Eff(label, Zero()).label == label
    for bad in ("0", "a b", "x]"):
        for _ in range(2):
            with pytest.raises(BadLabel):
                check_label(bad)
            with pytest.raises(BadLabel):
                Eff(bad, Zero())


@pytest.mark.parametrize("label", ["a'_1", "é", "1"])
def test_every_identifier_is_a_label_that_round_trips(label):
    e = Eff(label, Eff(label, Zero()))
    assert parse_expr(print_expr(e)) == e
    d = bigstop_eval(e, 1).derivation
    assert derivation_from_json(derivation_to_json_str(d)) == d


def test_annihilated_trace_prints_trailing_zero():
    assert str(AnnTrace(("a", "b"), True)) == "a·b·0"
    assert str(AnnTrace((), True)) == "0"
    assert str(AnnTrace(("a",), False)) == "a"
    assert str(AnnTrace()) == "1"


def test_zero_absorbs_everything_after_it():
    # abc0def = abc0
    abc0 = ("a", "b", "c", "0")
    assert ann_join(abc0, ("d", "e", "f")) == abc0
    assert ann_join(abc0, ("0",)) == abc0
    assert format_trace(ann_join(abc0, ("d",))) == "a·b·c·0"


def test_concat_without_zero_just_appends():
    assert ann_join(("a",), ("b",)) == ("a", "b")
    assert ann_join((), ("b",)) == ("b",)
    assert ann_join(("a",), ()) == ("a",)


def test_concat_ending_in_zero_annihilates():
    assert ann_join(("a",), ("0",)) == ("a", "0")
    assert ann_join((), ("0",)) == ("0",)


def test_concat_all_folds_left():
    got = reduce(ann_join, [("a",), ("b",), ("c", "0"), ("d",)], ())
    assert got == ("a", "b", "c", "0")


### spans of a run's label log

LOG = ["a", "b", "c", "a", "b"]


def test_span_equals_and_hashes_like_its_labels():
    sp = Span(LOG, 1, 4)
    assert sp == ("b", "c", "a") and ("b", "c", "a") == sp
    assert not (sp != ("b", "c", "a")) and not (("b", "c", "a") != sp)
    assert sp != ("b", "c") and ("b", "c") != sp
    assert sp != ("b", "c", "b") and ("b", "c", "b") != sp
    assert hash(sp) == hash(("b", "c", "a"))
    assert {sp: 1}[("b", "c", "a")] == 1
    assert len(sp) == 3 and list(sp) == ["b", "c", "a"] and sp[-1] == "a"
    assert [sp[i] for i in range(-3, 3)] == ["b", "c", "a", "b", "c", "a"]
    assert sp[1:] == ("c", "a") and type(sp[1:]) is tuple
    for i in (3, -4):
        with pytest.raises(IndexError):
            sp[i]
    assert format_trace(sp) == "b·c·a"


def test_spans_of_different_logs_compare_by_their_labels():
    assert Span(LOG, 0, 2) == Span(["x", "a", "b"], 1, 3)
    assert Span(LOG, 0, 2) == Span(LOG, 3, 5)
    assert Span(LOG, 0, 2) != Span(list(LOG), 1, 3)
    assert Span(LOG, 0, 2) != Span(LOG, 0, 3)
    assert Span(LOG, 0, 2) != Span(LOG, 1, 3)


def test_joining_adjacent_spans_gives_a_span():
    got = Span(LOG, 0, 2) + Span(LOG, 2, 5)
    assert isinstance(got, Span) and (got.start, got.end) == (0, 5)
    assert got == tuple(LOG)
    assert isinstance(() + Span(LOG, 1, 2), Span)
    assert isinstance(Span(LOG, 1, 2) + (), Span)


def test_joining_spans_that_are_not_adjacent_copies():
    got = Span(LOG, 0, 1) + Span(LOG, 2, 3)
    assert type(got) is tuple and got == ("a", "c")
    got = Span(LOG, 0, 2) + Span(list(LOG), 2, 3)   # same labels, another log
    assert type(got) is tuple and got == ("a", "b", "c")
    got = Span(LOG, 3, 5) + ("c",)
    assert type(got) is tuple and got == ("a", "b", "c")


def test_a_matching_label_in_front_extends_the_span():
    got = ("c",) + Span(LOG, 3, 5)
    assert isinstance(got, Span) and (got.start, got.end) == (2, 5)
    got = ("b", "c") + Span(LOG, 3, 5)
    assert isinstance(got, Span) and (got.start, got.end) == (1, 5)
    got = ("z",) + Span(LOG, 3, 5)
    assert type(got) is tuple and got == ("z", "a", "b")
    got = ("x", "a") + Span(LOG, 1, 2)   # longer than what precedes the span
    assert type(got) is tuple and got == ("x", "a", "b")


def test_emit_logs_the_label():
    log: list = []
    first, second = emit(log, "a"), emit(log, "b")
    assert log == ["a", "b"]
    assert first == ("a",) and second == ("b",)
    assert isinstance(first + second, Span)


class _NoSlicing(list):
    """A log that refuses to be copied."""

    def __getitem__(self, i):
        assert type(i) is int, "the log was sliced"
        return super().__getitem__(i)


def test_annihilator_traces_over_spans():
    log = _NoSlicing(["a", "b", "0", "c"])
    got = ann_join(Span(log, 0, 1), Span(log, 1, 3))   # ends in the cut
    assert isinstance(got, Span) and (got.start, got.end) == (0, 3)
    cut = Span(log, 0, 3)
    assert ann_join(cut, Span(log, 3, 4)) is cut         # the cut absorbs c
    assert ann_join(cut, ("d",)) is cut
    assert str(AnnTrace(("a", "b"), True)) == "a·b·0"
