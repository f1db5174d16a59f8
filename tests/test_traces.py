import pytest

from bigstop.traces import (
    ANN_EMPTY,
    ANN_ZERO,
    AnnTrace,
    BadLabel,
    Span,
    ann_concat,
    ann_concat_all,
    check_label,
    emit,
    format_trace,
    parse_trace,
)


def test_empty_trace_prints_as_identity():
    assert format_trace(()) == "1"


def test_format_and_parse_round_trip():
    for t in [(), ("a",), ("alloc", "alloc"), ("a", "b", "a")]:
        assert parse_trace(format_trace(t)) == t


def test_labels_cannot_be_zero_or_empty():
    with pytest.raises(BadLabel):
        check_label("0")
    with pytest.raises(BadLabel):
        check_label("")
    with pytest.raises(BadLabel):
        check_label("a·b")
    check_label("alloc")  # fine


def test_annihilated_trace_prints_trailing_zero():
    assert str(AnnTrace(("a", "b"), True)) == "a·b·0"
    assert str(AnnTrace((), True)) == "0"
    assert str(AnnTrace(("a",), False)) == "a"
    assert str(ANN_EMPTY) == "1"


def test_zero_absorbs_everything_after_it():
    # abc0def = abc0
    abc0 = AnnTrace(("a", "b", "c"), True)
    dEf = AnnTrace(("d", "e", "f"), False)
    assert ann_concat(abc0, dEf) == abc0
    assert ann_concat(abc0, ANN_ZERO) == abc0


def test_concat_without_zero_just_appends():
    got = ann_concat(AnnTrace(("a",), False), AnnTrace(("b",), False))
    assert got == AnnTrace(("a", "b"), False)


def test_concat_ending_in_zero_annihilates():
    got = ann_concat(AnnTrace(("a",), False), ANN_ZERO)
    assert got == AnnTrace(("a",), True)


def test_concat_all_folds_left():
    got = ann_concat_all(
        AnnTrace(("a",), False), AnnTrace(("b",), False),
        AnnTrace(("c",), True), AnnTrace(("d",), False),
    )
    assert got == AnnTrace(("a", "b", "c"), True)


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


def test_annihilator_traces_over_spans():
    cut = AnnTrace(Span(LOG, 0, 2), True)
    assert cut == AnnTrace(("a", "b"), True)
    assert str(cut) == "a·b·0"
    got = ann_concat(AnnTrace(Span(LOG, 0, 1), False), AnnTrace(Span(LOG, 1, 2), True))
    assert isinstance(got.prefix, Span) and got == AnnTrace(("a", "b"), True)
