"""Effect traces.

A trace is the finite word of effect labels a run has emitted so far,
represented as a tuple of strings, or inside a derivation as a Span of the
run's label log.  The empty trace is the monoid identity, always the tuple
(), and prints as "1".  The annihilator variant pairs a prefix with a flag
that, once set, absorbs everything appended afterwards; it prints with a
trailing "0".  The label "0" itself is reserved and can never be emitted.
"""

from .record import record

Trace = tuple[str, ...]

ANNIHILATOR = "0"  # reserved; never a legal label


class BadLabel(Exception):
    pass


def check_label(label: str) -> str:
    if label == ANNIHILATOR or label == "" or "·" in label:
        raise BadLabel(f"illegal effect label {label!r}")
    return label


class Span:
    """The labels log[start:end] of one run's label log, start < end.

    The engines that build derivations append every label they emit to one
    list per run, so each node's trace is a span of it.  A span stands for
    the tuple of its labels: it compares and hashes equal to that tuple.
    Joining spans that sit side by side in the same log, or putting the
    labels just before a span in front of it, gives a span without copying;
    any other join copies into a tuple.  Two spans of the same log with the
    same bounds are equal without looking at the labels.
    """

    __slots__ = ("log", "start", "end")

    def __init__(self, log: list, start: int, end: int):
        self.log = log
        self.start = start
        self.end = end

    def _tuple(self) -> Trace:
        return tuple(self.log[self.start:self.end])

    def __len__(self) -> int:
        return self.end - self.start

    def __iter__(self):
        return iter(self.log[self.start:self.end])

    def __getitem__(self, i):
        return self._tuple()[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Span):
            if other.log is self.log and other.start == self.start and other.end == self.end:
                return True
            return self.log[self.start:self.end] == other.log[other.start:other.end]
        if isinstance(other, tuple):
            return self.end - self.start == len(other) and self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __add__(self, other):
        if isinstance(other, Span):
            if other.log is self.log and other.start == self.end:
                return Span(self.log, self.start, other.end)
            return self._tuple() + other._tuple()
        if isinstance(other, tuple):
            return self._tuple() + other if other else self
        return NotImplemented

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        if not other:
            return self
        start = self.start - len(other)
        if start >= 0 and tuple(self.log[start:self.start]) == other:
            return Span(self.log, start, self.end)
        return other + self._tuple()

    def __repr__(self) -> str:
        return repr(self._tuple())


def emit(log: list, label: str) -> Span:
    """Append label to a run's log; the one-label trace it makes."""
    log.append(label)
    return Span(log, len(log) - 1, len(log))


def format_trace(t: Trace) -> str:
    if not t:
        return "1"
    return "·".join(t)


def parse_trace(text: str) -> Trace:
    text = text.strip()
    if text == "1":
        return ()
    return tuple(check_label(p) for p in text.split("·"))


@record
class AnnTrace:
    """A trace that may have been cut off ("annihilated").

    Appending to an annihilated trace is a no-op: a·0·b = a·0.
    """

    prefix: Trace = ()
    annihilated: bool = False

    def __str__(self) -> str:
        if self.annihilated:
            if not self.prefix:
                return "0"
            return "·".join(self.prefix) + "·0"
        return format_trace(self.prefix)


ANN_EMPTY = AnnTrace((), False)
ANN_ZERO = AnnTrace((), True)


def ann_concat(a: AnnTrace, b: AnnTrace) -> AnnTrace:
    if a.annihilated:
        return a
    return AnnTrace(a.prefix + b.prefix, b.annihilated)


def ann_concat_all(*parts: AnnTrace) -> AnnTrace:
    out = ANN_EMPTY
    for p in parts:
        out = ann_concat(out, p)
    return out
