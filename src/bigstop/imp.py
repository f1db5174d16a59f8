"""A small imperative while-language over integer stores.

Arithmetic is total (unbound variables read as 0) so a configuration can
only ever finish or keep going - there is no stuck state.  The budgeted
engine stops mid-statement and returns exactly the configuration the
small-step engine would be sitting at; the freeze variant instead commits
to the store it had when the budget died and ignores the rest of the
program, reporting that it froze.
"""

import enum
import re

from .budget import Budget, BudgetExhausted, check_budget
from .record import record
from .syntax import ParseError, _Cursor

### syntax


class AExpr:
    __slots__ = ()


@record
class Lit(AExpr):
    value: int


@record
class Ref(AExpr):
    name: str


@record
class Add(AExpr):
    left: AExpr
    right: AExpr


@record
class Sub(AExpr):
    left: AExpr
    right: AExpr


@record
class Mul(AExpr):
    left: AExpr
    right: AExpr


class Stmt:
    __slots__ = ()


@record
class Skip(Stmt):
    pass


@record
class Assign(Stmt):
    name: str
    expr: AExpr


@record
class SeqS(Stmt):
    first: Stmt
    second: Stmt


@record
class If(Stmt):
    guard: AExpr
    body: Stmt


@record
class While(Stmt):
    guard: AExpr
    body: Stmt


@record
class ImpConfig:
    stmt: Stmt
    state: tuple  # sorted (name, value) pairs


_STORES: dict = {}  # every initial store of exact ints a caller asked for, once


def make_state(bindings=()) -> tuple:
    """The canonical store of bindings: (name, value) pairs sorted by name.
    Equal stores whose values are all exact ints are one object, so a pool
    of programs that start from one store holds that store once, not once
    per program.  Other stores are built fresh: True and 1.0 compare and
    hash equal to 1 but print differently, so they must not share."""
    if not isinstance(bindings, dict):
        bindings = dict(bindings)
    st = tuple(sorted(bindings.items()))
    for _, v in st:
        if type(v) is not int:
            return st
    return _STORES.setdefault(st, st)


def state_get(state: tuple, name: str) -> int:
    for n, v in state:
        if n == name:
            return v
    return 0


def state_set(state: tuple, name: str, value: int) -> tuple:
    """state with name bound to value.  state must be a canonical store,
    sorted by name with each name once, as make_state builds it; one scan
    finds where the pair goes, so the result is canonical too."""
    for i, (n, _) in enumerate(state):
        if n >= name:
            rest = state[i + 1 :] if n == name else state[i:]
            return state[:i] + ((name, value),) + rest
    return state + ((name, value),)


def config(stmt: Stmt, bindings=()) -> ImpConfig:
    return ImpConfig(stmt, make_state(bindings))


# The engines below dispatch on exact classes, the most frequent first, by
# the convention stated above syntax.is_value.


def aeval(state: tuple, a: AExpr) -> int:
    t = type(a)
    if t is Ref:
        return state_get(state, a.name)
    if t is Lit:
        return a.value
    if t is Sub:
        return aeval(state, a.left) - aeval(state, a.right)
    if t is Mul:
        return aeval(state, a.left) * aeval(state, a.right)
    if t is Add:
        return aeval(state, a.left) + aeval(state, a.right)
    raise TypeError(f"not an arithmetic expression: {a!r}")


_SKIP = Skip()  # statements compare by value, so one instance serves every engine


### small-step


def _step(s: Stmt, st: tuple):
    """One step of the statement s, which is not skip, from the store st,
    as a (statement, store) pair."""
    t = type(s)
    if t is SeqS:
        s1 = s.first
        if type(s1) is Skip:
            return s.second, st
        s1, st = _step(s1, st)
        return SeqS(s1, s.second), st
    if t is If:
        return (s.body if aeval(st, s.guard) != 0 else _SKIP), st
    if t is Assign:
        return _SKIP, state_set(st, s.name, aeval(st, s.expr))
    if t is While:
        return (SeqS(s.body, s) if aeval(st, s.guard) != 0 else _SKIP), st
    raise TypeError(f"not a statement: {s!r}")


def imp_small_step(cfg: ImpConfig):
    """One step, or None when the statement is skip."""
    if type(cfg.stmt) is Skip:
        return None
    return ImpConfig(*_step(cfg.stmt, cfg.state))


class ImpStatus(enum.Enum):
    REACHED_SKIP = "ReachedSkip"
    OUT_OF_BUDGET = "OutOfBudget"


@record
class ImpMultiResult:
    config: ImpConfig
    steps: int
    status: ImpStatus


def imp_multi_step(cfg: ImpConfig, budget: int) -> ImpMultiResult:
    check_budget(budget)
    s, st = cfg.stmt, cfg.state
    steps = 0
    while type(s) is not Skip:
        if steps == budget:
            return ImpMultiResult(ImpConfig(s, st), steps, ImpStatus.OUT_OF_BUDGET)
        s, st = _step(s, st)
        steps += 1
    return ImpMultiResult(ImpConfig(s, st), steps, ImpStatus.REACHED_SKIP)


### big-step with fuel
#
# In the three engines below a sequence's second statement and a loop's
# next turn are tail positions, taken as turns of the engine's own loop:
# the call depth follows how deeply the statements nest, not the budget.


@record
class ImpDone:
    state: tuple


@record
class ImpFuelExhausted:
    pass


def imp_bigstep(cfg: ImpConfig, fuel: int):
    b = Budget(fuel)
    try:
        return ImpDone(_beval(cfg.stmt, cfg.state, b))
    except BudgetExhausted:
        return ImpFuelExhausted()


def _beval(s: Stmt, st: tuple, b: Budget) -> tuple:
    while True:
        t = type(s)
        if t is SeqS:
            st = _beval(s.first, st, b)
            b.spend()  # the skip ; s2 -> s2 step
            s = s.second
        elif t is If:
            b.spend()
            if aeval(st, s.guard) == 0:
                return st
            s = s.body
        elif t is Assign:
            b.spend()
            return state_set(st, s.name, aeval(st, s.expr))
        elif t is While:
            b.spend()  # unrolling or finishing the loop
            if aeval(st, s.guard) == 0:
                return st
            st = _beval(s.body, st, b)
            b.spend()  # the skip ; while step after the unrolled body
        elif t is Skip:
            return st
        else:
            raise TypeError(f"not a statement: {s!r}")


### big-stop


def imp_bigstop(cfg: ImpConfig, budget: int) -> ImpConfig:
    """The configuration after at most `budget` counted steps; matches
    imp_multi_step(cfg, budget) exactly."""
    b = Budget(budget)
    return ImpConfig(*_bstop(cfg.stmt, cfg.state, b))


def _bstop(s: Stmt, st: tuple, b: Budget):
    while True:
        t = type(s)
        if t is Skip or b.remaining == 0:
            return s, st
        if t is SeqS:
            s1, st = _bstop(s.first, st, b)
            if type(s1) is not Skip or b.remaining == 0:
                return SeqS(s1, s.second), st
            b.spend()
            s = s.second
        elif t is If:
            b.spend()
            if aeval(st, s.guard) == 0:
                return _SKIP, st
            s = s.body
        elif t is Assign:
            b.spend()
            return _SKIP, state_set(st, s.name, aeval(st, s.expr))
        elif t is While:
            b.spend()
            if aeval(st, s.guard) == 0:
                return _SKIP, st
            # one unrolling: now behaves exactly like body ; while
            s1, st = _bstop(s.body, st, b)
            if type(s1) is not Skip or b.remaining == 0:
                return SeqS(s1, s), st
            b.spend()
        else:
            raise TypeError(f"not a statement: {s!r}")


### freeze variant


@record
class FreezeResult:
    state: tuple
    frozen: bool


def imp_bigstop_freeze(cfg: ImpConfig, budget: int) -> FreezeResult:
    """Run with a budget; when it dies, freeze the store and skip the rest.

    The bindings always equal the store of imp_multi_step at the same
    budget - a frozen store absorbs every later assignment, so skipping
    the remainder of the program changes nothing.
    """
    b = Budget(budget)
    st, frozen = _fstop(cfg.stmt, cfg.state, b)
    return FreezeResult(st, frozen)


def _fstop(s: Stmt, st: tuple, b: Budget):
    while True:
        t = type(s)
        if t is Skip:
            return st, False
        if b.remaining == 0:
            return st, True
        if t is SeqS:
            st, frozen = _fstop(s.first, st, b)
            if frozen or b.remaining == 0:
                return st, True
            b.spend()
            s = s.second
        elif t is If:
            b.spend()
            if aeval(st, s.guard) == 0:
                return st, False
            s = s.body
        elif t is Assign:
            b.spend()
            return state_set(st, s.name, aeval(st, s.expr)), False
        elif t is While:
            b.spend()
            if aeval(st, s.guard) == 0:
                return st, False
            st, frozen = _fstop(s.body, st, b)
            if frozen or b.remaining == 0:
                return st, True
            b.spend()
        else:
            raise TypeError(f"not a statement: {s!r}")


### concrete syntax


class ImpParseError(ParseError):
    pass


_KEYWORDS = {"skip", "if", "then", "while", "do"}

# punctuation (= and , for stores), a number, a name, anything else; a program
# adds blanks, comments and line breaks, a store blanks, line breaks and signed
# integers.  Digits are ASCII, as names are: \d matches every Unicode digit
_LEXEMES = r"(?P<punct>:=|[();{}+\-*=,])|(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)"
_TOKEN = re.compile(r"[^\S\n]+|(?P<comment>--.*)|(?P<nl>\n)|" + _LEXEMES)
_STORE_TOKEN = re.compile(r"[^\S\n]+|(?P<nl>\n)|(?P<int>-?[0-9]+)|" + _LEXEMES)


def _is_name(t) -> bool:
    """Whether token t is a name a program can assign and read."""
    return t.kind == "name" and t.text not in _KEYWORDS


class _ImpParser(_Cursor):
    error = ImpParseError

    def stmt(self) -> Stmt:
        s = self.simple()
        while self.peek().text == ";":
            self.next()
            s = SeqS(s, self.simple())
        return s

    def simple(self) -> Stmt:
        t = self.peek()
        if t.text == "skip":
            self.next()
            return Skip()
        if t.text == "if":
            self.next()
            guard = self.aexpr()
            self.expect("then")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return If(guard, body)
        if t.text == "while":
            self.next()
            guard = self.aexpr()
            self.expect("do")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return While(guard, body)
        if _is_name(t):
            name = self.next().text
            self.expect(":=")
            return Assign(name, self.aexpr())
        self.fail("a statement")

    def aexpr(self) -> AExpr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            r = self.term()
            e = Add(e, r) if op == "+" else Sub(e, r)
        return e

    def term(self) -> AExpr:
        e = self.factor()
        while self.peek().text == "*":
            self.next()
            e = Mul(e, self.factor())
        return e

    def factor(self) -> AExpr:
        t = self.peek()
        if t.text == "(":
            self.next()
            e = self.aexpr()
            self.expect(")")
            return e
        if t.kind == "num":
            return Lit(int(self.next().text))
        if _is_name(t):
            return Ref(self.next().text)
        self.fail("an expression")


def parse_stmt(src: str) -> Stmt:
    p = _ImpParser(src, _TOKEN)
    return p.whole(p.stmt)


def parse_init(text: str) -> tuple:
    """Parse an initial store given as x=2,y=-1: comma-separated bindings
    of a name a program can refer to, each bound once, to an integer."""
    p = _ImpParser(text, _STORE_TOKEN)
    bindings = {}
    while p.peek().kind != "eof":
        if bindings:
            p.expect(",")
        t = p.peek()
        if not _is_name(t):
            p.fail("a name")
        if t.text in bindings:
            raise ImpParseError(f"{t.text!r} is bound twice", t.line, t.col)
        p.next()
        p.expect("=")
        if p.peek().kind != "int":
            p.fail("an integer")
        bindings[t.text] = int(p.next().text)
    return make_state(bindings)


def print_aexpr(a: AExpr) -> str:
    match a:
        case Lit(v):
            return str(v)
        case Ref(x):
            return x
        case Add(l, r):
            return f"{print_aexpr(l)} + {_fac(r)}"
        case Sub(l, r):
            return f"{print_aexpr(l)} - {_fac(r)}"
        case Mul(l, r):
            return f"{_fac(l)} * {_fac(r, in_mul=True)}"
    raise TypeError(f"not an arithmetic expression: {a!r}")


def _fac(a: AExpr, in_mul: bool = False) -> str:
    # both operators parse left-associative, so right operands at the same
    # precedence level keep their brackets; +/- always bracket under *
    s = print_aexpr(a)
    needs = (Add, Sub, Mul) if in_mul else (Add, Sub)
    return f"({s})" if isinstance(a, needs) else s


def print_stmt(s: Stmt) -> str:
    match s:
        case Skip():
            return "skip"
        case Assign(x, a):
            return f"{x} := {print_aexpr(a)}"
        case SeqS():
            # `;` nests to the left: a long program's spine prints in one loop
            rest = []
            while type(s) is SeqS:
                rest.append(s.second)
                s = s.first
            return " ; ".join(map(print_stmt, [s, *reversed(rest)]))
        case If(a, body):
            return f"if {print_aexpr(a)} then {{ {print_stmt(body)} }}"
        case While(a, body):
            return f"while {print_aexpr(a)} do {{ {print_stmt(body)} }}"
    raise TypeError(f"not a statement: {s!r}")


def print_state(state: tuple) -> str:
    inner = ", ".join(f"{n}={v}" for n, v in state)
    return "{" + inner + "}"


def print_config(cfg: ImpConfig) -> str:
    return f"{print_stmt(cfg.stmt)} | {print_state(cfg.state)}"
