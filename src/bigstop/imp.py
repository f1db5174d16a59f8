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


def make_state(bindings=()) -> tuple:
    if isinstance(bindings, dict):
        bindings = bindings.items()
    return tuple(sorted(dict(bindings).items()))


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


class ImpParseError(Exception):
    pass


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_KEYWORDS = {"skip", "if", "then", "while", "do"}


def _imp_tokens(src: str):
    toks = []
    spec = rf"(:=|[();{{}}+\-*]|\d+|{_NAME}|\S)"
    line = 1
    for raw in src.split("\n"):
        body = raw.split("--", 1)[0]
        for m in re.finditer(spec, body):
            toks.append((m.group(0), line, m.start() + 1))
        line += 1
    return toks


class _ImpParser:
    def __init__(self, src: str):
        self.toks = _imp_tokens(src)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ImpParseError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t != text:
            raise ImpParseError(f"expected {text!r}, found {t!r}")

    def stmt(self) -> Stmt:
        s = self.simple()
        while self.peek() == ";":
            self.next()
            s = SeqS(s, self.simple())
        return s

    def simple(self) -> Stmt:
        t = self.peek()
        if t == "skip":
            self.next()
            return Skip()
        if t == "if":
            self.next()
            guard = self.aexpr()
            self.expect("then")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return If(guard, body)
        if t == "while":
            self.next()
            guard = self.aexpr()
            self.expect("do")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return While(guard, body)
        if t is not None and (t[0].isalpha() or t[0] == "_"):
            name = self.next()
            self.expect(":=")
            return Assign(name, self.aexpr())
        raise ImpParseError(f"expected a statement, found {t!r}")

    def aexpr(self) -> AExpr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            r = self.term()
            e = Add(e, r) if op == "+" else Sub(e, r)
        return e

    def term(self) -> AExpr:
        e = self.factor()
        while self.peek() == "*":
            self.next()
            e = Mul(e, self.factor())
        return e

    def factor(self) -> AExpr:
        t = self.peek()
        if t == "(":
            self.next()
            e = self.aexpr()
            self.expect(")")
            return e
        if t is not None and t.isdigit():
            return Lit(int(self.next()))
        if t is not None and (t[0].isalpha() or t[0] == "_"):
            if t in ("then", "do"):
                raise ImpParseError(f"expected an expression, found {t!r}")
            return Ref(self.next())
        raise ImpParseError(f"expected an expression, found {t!r}")


def parse_stmt(src: str) -> Stmt:
    p = _ImpParser(src)
    s = p.stmt()
    if p.peek() is not None:
        raise ImpParseError(f"trailing input starting at {p.peek()!r}")
    return s


def parse_init(text: str) -> tuple:
    """Parse an initial store given as x=2,y=0.  Each name must be one a
    program can refer to, and no name may be bound twice."""
    bindings = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise ImpParseError(f"bad binding {part!r}, want name=value")
            name, value = (side.strip() for side in part.split("=", 1))
            if not re.fullmatch(_NAME, name) or name in _KEYWORDS:
                raise ImpParseError(f"bad name {name!r} in binding {part!r}")
            if name in bindings:
                raise ImpParseError(f"{name!r} is bound twice")
            try:
                bindings[name] = int(value)
            except ValueError:
                raise ImpParseError(f"bad value {value!r} in binding {part!r}") from None
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
        case SeqS(s1, s2):
            return f"{print_stmt(s1)} ; {print_stmt(s2)}"
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
