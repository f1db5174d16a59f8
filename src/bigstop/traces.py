"""Effect traces.

A trace is the finite word of effect labels a run has emitted so far,
represented as a tuple of strings, or inside a derivation as a Span of the
run's label log.  The empty trace is the monoid identity, always the tuple
(), and prints as "1".  The annihilator variant adds a zero: a run that is
cut off ends its trace in the reserved label "0", which no program can
emit, and ann_join lets such a trace absorb everything appended after it
(a·0·b = a·0).  Only annihilator_eval's answer splits the zero off again,
into an AnnTrace.
"""

from .record import record

Trace = tuple[str, ...]

ANNIHILATOR = "0"  # reserved; never a legal label


class BadLabel(Exception):
    pass


_LEGAL: set = set()  # the labels that passed: every Eff built checks its label


def check_label(label: str) -> str:
    if label in _LEGAL:
        return label
    # one identifier to the parser, [\w']+ (isalnum is \w without _)
    if label == ANNIHILATOR or not label.replace("_", "a").replace("'", "a").isalnum():
        raise BadLabel(f"illegal effect label {label!r}")
    _LEGAL.add(label)
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
        if type(i) is not int:
            return self._tuple()[i]
        n = self.end - self.start
        if not -n <= i < n:
            raise IndexError("span index out of range")
        return self.log[self.start + i % n]  # one label, read from the log

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


def since(log: list, start: int):
    """The trace a run logged from start on: what a node emitted, taken at
    its exit from where the log stood at its entry."""
    end = len(log)
    return Span(log, start, end) if end > start else ()


def format_trace(t: Trace) -> str:
    if not t:
        return "1"
    return "·".join(t)


def ann_join(a, b):
    """The annihilator's join: a trace cut off by the zero absorbs b."""
    return a if a and a[-1] == ANNIHILATOR else a + b


@record
class AnnTrace:
    """annihilator_eval's trace: the labels before any cut, and whether the
    run was cut off ("annihilated")."""

    prefix: Trace = ()
    annihilated: bool = False

    def __str__(self) -> str:
        return format_trace(self.prefix + (ANNIHILATOR,) if self.annihilated else self.prefix)
