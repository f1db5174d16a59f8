"""Abstract and concrete syntax for the call-by-value functional language.

Terms are numerals built from z/s, a case split on numerals, recursive
functions (the self binder is in scope in the body), application, an effect
marker `eff[label] e`, and - for the monadic-normal-form dialect only - a
`let x = e in e` form.  `_` is a legal binder that binds nothing.

Values are z, s applied to a value, and functions.  Variables are never
values here; the MNF *grammar* additionally counts variables as values,
which is what `is_mnf_value` captures.
"""

import re

from .record import record
from .traces import BadLabel, check_label

### abstract syntax

BLANK = "_"


class Expr:
    __slots__ = ("_closed",)

    @property
    def closed(self) -> bool:
        """No variable occurs free.  Terms are frozen, so each object walks
        itself at most once and keeps the answer in its `_closed` slot.  A
        successor is closed when its body is: a spine is walked down to the
        first term that knows, and every successor above it is told."""
        try:
            return self._closed
        except AttributeError:
            pass
        spine, e, closed = [], self, None
        while type(e) is Succ and closed is None:
            spine.append(e)
            e = e.body
            closed = getattr(e, "_closed", None)
        if closed is None:
            closed = not free_vars(e)
            _set_closed(e, closed)
        for s in spine:
            _set_closed(s, closed)
        return closed


_set_closed = Expr._closed.__set__


@record
class Var(Expr):
    name: str

    def __repr__(self):
        return f"Var({self.name!r})"


@record
class Zero(Expr):
    def __repr__(self):
        return "Zero()"


def _spine_of(body: Expr) -> int:
    # s(body) is s^j(e) with e no successor; its spine says what the numeral
    # heads: 1 when e is z, 2 when e is a function, 0 when s(body) is no value
    if type(body) is Succ:
        return body._spine
    return 1 if type(body) is Zero else 2 if type(body) is Lam else 0


@record
class Succ(Expr):
    body: Expr
    _derive = {"_spine": _spine_of}


@record
class Case(Expr):
    zero_branch: Expr
    succ_var: str
    succ_branch: Expr
    scrutinee: Expr


class _Function(Expr):
    # typecheck's principal type scheme of a closed function, and beta's last (argument, result)
    __slots__ = ("_scheme", "_inst")


@record
class Lam(_Function):
    self_var: str
    param: str
    body: Expr


@record
class App(Expr):
    fn: Expr
    arg: Expr


@record
class Eff(Expr):
    label: str
    body: Expr
    # a reserved label is refused when the term is built, however it is built
    _derive = {"_label": lambda label, body: check_label(label)}


@record
class Let(Expr):
    var: str
    bound: Expr
    body: Expr


# The one table of subterms and binders.  For each constructor: its
# immediate subterms in field order, each paired with the binder names (as
# written, `_` included) that the node scopes over it, and how to put the
# node back together from new subterms.
_SHAPES = {
    Var: (lambda e: (), lambda e, kids: e),
    Zero: (lambda e: (), lambda e, kids: e),
    Succ: (lambda e: ((e.body, ()),), lambda e, kids: Succ(*kids)),
    Eff: (lambda e: ((e.body, ()),), lambda e, kids: Eff(e.label, *kids)),
    Lam: (
        lambda e: ((e.body, (e.self_var, e.param)),),
        lambda e, kids: Lam(e.self_var, e.param, *kids),
    ),
    App: (lambda e: ((e.fn, ()), (e.arg, ())), lambda e, kids: App(*kids)),
    Case: (
        lambda e: ((e.zero_branch, ()), (e.succ_branch, (e.succ_var,)), (e.scrutinee, ())),
        lambda e, kids: Case(kids[0], e.succ_var, kids[1], kids[2]),
    ),
    Let: (lambda e: ((e.bound, ()), (e.body, (e.var,))), lambda e, kids: Let(e.var, *kids)),
}


def scoped_children(e: Expr) -> tuple:
    """Each immediate subterm of e in field order, with the names e binds in
    it: a function binds its self name and parameter in its body, a case
    its variable in the successor branch only, a let its variable in its
    body only."""
    return _SHAPES[type(e)][0](e)


def rebuild(e: Expr, kids) -> Expr:
    """e with its immediate subterms, in field order, replaced by kids."""
    return _SHAPES[type(e)][1](e, kids)


# The engines, the type checker and the derivation checker's helpers choose
# a rule with `c = type(e)` and then `if c is C:` tests, the most frequent
# class first, and read fields by name.  A positional class pattern such as
# `case App(f, a):` costs several times as much per hit (on CPython 3.11,
# about 0.70 against 0.12 µs), and the rule is chosen at every node of every
# run.  Each module writes its own dispatch, so the engines stay
# independent; cold paths (printing, the CLI, the harness) keep `match`.


# hand-written, not read off the table: what makes a value is per constructor
def is_value(e: Expr) -> bool:
    c = type(e)
    if c is Succ:
        return e._spine > 0
    return c is Zero or c is Lam


def numeral(n: int) -> Expr:
    e: Expr = Zero()
    for _ in range(n):
        e = Succ(e)
    return e


def expr_size(e: Expr) -> int:
    size, todo = 0, [e]
    while todo:
        size += 1
        for kid, _ in scoped_children(todo.pop()):
            todo.append(kid)
    return size


def free_vars(e: Expr) -> frozenset:
    out: set = set()
    todo = [(e, frozenset())]
    while todo:
        e, bound = todo.pop()
        if isinstance(e, Var) and e.name not in bound:
            out.add(e.name)
        for kid, names in scoped_children(e):
            todo.append((kid, bound.union(names) if names else bound))
    out.discard(BLANK)
    return frozenset(out)


class SubstOpenValue(Exception):
    """Raised when substitution is asked to push a non-value or open term."""


def subst(e: Expr, mapping: dict) -> Expr:
    """Capture-free substitution of closed values for variables.

    Only closed values may be substituted (that is all evaluation ever
    needs), which makes capture impossible; anything else raises
    SubstOpenValue.  The guard passes a numeral that ends in z on its stored
    spine and asks a function, or a numeral that ends in one, for its
    `closed` flag, which each object computes once.  A numeral that ends in
    z, or a function that is closed or whose binders shadow every
    substituted name, comes back as the same object, with its flags and
    type scheme.  Entries for the wildcard binder are ignored: `_` never
    stands for anything.
    """
    if BLANK in mapping:
        mapping = {x: v for x, v in mapping.items() if x != BLANK}
    for x, v in mapping.items():
        c = type(v)
        if not (c is Zero or c is Succ and v._spine == 1
                or (c is Lam or c is Succ and v._spine == 2) and v.closed):
            raise SubstOpenValue(f"substituting non-closed-value for {x}: {print_expr(v)}")
    return _subst(e, mapping)


def beta(f: Lam, v: Expr) -> Expr:
    """f's body with f for its self binder and v for its parameter, which
    wins where both are one name.  f keeps its last instantiation: a loop
    that applies it to the same v object again gets the same term back."""
    inst = getattr(f, "_inst", None)
    if inst is None or inst[0] is not v:
        inst = (v, subst(f.body, {f.self_var: f, f.param: v}))
        _Function._inst.__set__(f, inst)
    return inst[1]


# hand-written, not read off the table: it runs at every contraction (third in
# self time on gen-pool), and the table's lookup and calls cost more per node
def _subst(e: Expr, m: dict) -> Expr:
    if not m:
        return e
    c = type(e)
    if c is Var:
        return m.get(e.name, e)
    if c is App:
        return App(_subst(e.fn, m), _subst(e.arg, m))
    if c is Succ:
        return e if e._spine == 1 else Succ(_subst(e.body, m))
    if c is Lam:
        if getattr(e, "_closed", False):
            return e
        f, x = e.self_var, e.param
        inner = {k: v for k, v in m.items() if k != f and k != x} if f in m or x in m else m
        return Lam(f, x, _subst(e.body, inner)) if inner else e
    if c is Zero:
        return e
    if c is Eff:
        return Eff(e.label, _subst(e.body, m))
    if c is Case:
        xv = e.succ_var
        inner = {k: v for k, v in m.items() if k != xv} if xv in m else m
        return Case(_subst(e.zero_branch, m), xv, _subst(e.succ_branch, inner), _subst(e.scrutinee, m))
    if c is Let:
        x = e.var
        inner = {k: v for k, v in m.items() if k != x} if x in m else m
        return Let(x, _subst(e.bound, m), _subst(e.body, inner))
    raise TypeError(f"not an expression: {e!r}")


def all_names(e: Expr) -> set:
    """Every variable or binder name occurring anywhere in e."""
    out, todo = set(), [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Var):
            out.add(e.name)
        for kid, names in scoped_children(e):
            out.update(names)
            todo.append(kid)
    out.discard(BLANK)
    return out


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to consistent renaming of bound variables.

    A `_` binder binds nothing, so it never participates in the renaming;
    a term that actually references the other side's binder cannot be
    alpha-equal to one whose binder is `_`.
    """
    # each side maps a bound name to the number of the binder pair that
    # bound it; a free name stands for itself
    todo = [(a, b, {}, {})]
    pairs = 0
    while todo:
        a, b, env_a, env_b = todo.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if env_a.get(a.name, a.name) != env_b.get(b.name, b.name):
                return False
        elif isinstance(a, Eff) and a.label != b.label:
            return False
        for (kid_a, names_a), (kid_b, names_b) in zip(scoped_children(a), scoped_children(b)):
            ea, eb = env_a, env_b
            if names_a:
                ea, eb = dict(env_a), dict(env_b)
                for x, y in zip(names_a, names_b):
                    pairs += 1
                    # a blank on one side leaves that name resolving as
                    # before, so Lam(f, ..) and Lam(_, ..) differ when f is used
                    if x != BLANK:
                        ea[x] = pairs
                    if y != BLANK:
                        eb[y] = pairs
            todo.append((kid_a, kid_b, ea, eb))
    return True


### monadic normal form grammar

# hand-written, not read off the table: the MNF grammar is per constructor
def is_mnf_value(e: Expr) -> bool:
    """Value according to the MNF grammar (variables count as values)."""
    while type(e) is Succ:
        e = e.body
    c = type(e)
    if c is Var or c is Zero:
        return True
    if c is Lam:
        return check_mnf(e.body)
    return False


def check_mnf(e: Expr) -> bool:
    """True iff e is in monadic normal form: every evaluation position that
    the small-step rules would have to descend into is already a value."""
    c = type(e)
    if c is Let:
        return check_mnf(e.bound) and check_mnf(e.body)
    if c is App:
        return is_mnf_value(e.fn) and is_mnf_value(e.arg)
    if c is Eff:
        return check_mnf(e.body)
    if c is Case:
        return is_mnf_value(e.scrutinee) and check_mnf(e.zero_branch) and check_mnf(e.succ_branch)
    return is_mnf_value(e)  # the value forms; anything else is not a term


### concrete syntax

KEYWORDS = {"z", "s", "case", "fun", "eff", "let", "in"}


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@record
class _Tok:
    kind: str  # the name of the token pattern's group it matched, or 'eof'
    text: str
    line: int
    col: int


def _tokenize(src: str, pattern, error) -> list:
    """Each match of a named group of pattern but `comment`, `nl` and `bad`,
    then 'eof' at the end of src or where a comment that closes it begins."""
    toks = []
    line, bol, m = 1, 0, None  # bol: where the current line begins
    for m in pattern.finditer(src):
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        if kind == "nl":
            line, bol = line + 1, m.end()
        elif kind == "bad":
            raise error(f"unexpected character {m.group()!r}", line, m.start() - bol + 1)
        else:
            toks.append(_Tok(kind, m.group(), line, m.start() - bol + 1))
    end = m.start() if m is not None and m.lastgroup == "comment" else len(src)
    toks.append(_Tok("eof", "", line, end - bol + 1))
    return toks


class _Cursor:
    """Reads the tokens of one text front to back; a grammar subclasses it."""

    error = ParseError

    def __init__(self, src: str, pattern):
        self.toks = _tokenize(src, pattern, self.error)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, want: str):
        t = self.peek()
        found = "end of input" if t.kind == "eof" else repr(t.text)
        raise self.error(f"expected {want}, found {found}", t.line, t.col)

    def expect(self, text: str) -> _Tok:
        if self.peek().text != text:  # the end of input's text is empty
            self.fail(repr(text))
        return self.next()

    def whole(self, rule):
        out = rule()  # must read the whole text
        if self.peek().kind != "eof":
            self.fail("end of input")
        return out


# blanks, a comment, a line break, punctuation, an identifier, anything else
_TOKEN = re.compile(r"[ \t\r]+|(?P<comment>--.*)|(?P<nl>\n)|(?P<punct>=>|[(){}\[\]|=])|(?P<ident>[\w']+)|(?P<bad>.)")


class _Parser(_Cursor):
    def __init__(self, src: str, pattern, table: dict | None = None):
        super().__init__(src, pattern)
        self.table = table

    def make(self, cls, *parts) -> Expr:
        """cls(*parts), or with a table the equal term it already holds.
        Every part is then the table's own, so a term is known by its
        class, its names and its parts' ids, and equal terms are one object."""
        table = self.table
        if table is None:
            return cls(*parts)
        key = (cls, *[x if type(x) is str else id(x) for x in parts])
        e = table.get(key)
        if e is None:
            e = table[key] = cls(*parts)
        return e

    def binder(self, want: str = "a binder") -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail(want)
        return self.next().text

    def expr(self) -> Expr:
        t = self.peek()
        if t.text == "fun":
            self.next()
            f = self.binder()
            self.expect("(")
            x = self.binder()
            self.expect(")")
            self.expect("=>")
            return self.make(Lam, f, x, self.expr())
        if t.text == "let":
            self.next()
            x = self.binder()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return self.make(Let, x, bound, self.expr())
        if t.text == "eff":
            self.next()
            self.expect("[")
            lab = self.peek()
            if lab.kind != "ident":
                self.fail("an effect label")
            try:
                check_label(lab.text)
            except BadLabel as bl:
                raise ParseError(str(bl), lab.line, lab.col) from None
            self.next()
            self.expect("]")
            return self.make(Eff, lab.text, self.expr())
        return self.app()

    def app(self) -> Expr:
        e = self.atom()
        while self.starts_atom():
            e = self.make(App, e, self.atom())
        return e

    def starts_atom(self) -> bool:
        t = self.peek()
        return t.text == "(" if t.kind == "punct" else t.kind == "ident" and t.text not in {"fun", "eff", "let", "in"}

    def atom(self) -> Expr:
        t = self.peek()
        if t.text == "z":
            self.next()
            return self.make(Zero)
        if t.text == "s":
            # a successor chain in one loop, as a numeral may be deeper than the
            # stack; an inner s(...) heads the application in its parent's ( )
            opened = 0
            while self.peek().text == "s":
                self.next()
                self.expect("(")
                opened += 1
            e = self.expr()
            for left in range(opened - 1, -1, -1):
                self.expect(")")
                e = self.make(Succ, e)
                while left and self.starts_atom():
                    e = self.make(App, e, self.atom())
            return e
        if t.text == "case":
            self.next()
            sc = self.expr()
            self.expect("{")
            self.expect("z")
            self.expect("=>")
            zb = self.expr()
            self.expect("|")
            self.expect("s")
            self.expect("(")
            xv = self.binder()
            self.expect(")")
            self.expect("=>")
            sb = self.expr()
            self.expect("}")
            return self.make(Case, zb, xv, sb, sc)
        if t.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            if t.text == BLANK:
                raise ParseError("the wildcard _ cannot be referenced", t.line, t.col)
            return self.make(Var, self.binder("an identifier"))
        self.fail("an expression")


def parse_expr(src: str, table: dict | None = None) -> Expr:
    """The term src writes.  Texts parsed with one table share their equal
    subterms: each is one object, which the table keeps."""
    p = _Parser(src, _TOKEN, table)
    return p.whole(p.expr)


# hand-written, like the parser: the concrete syntax is per constructor
def print_expr(e: Expr) -> str:
    match e:
        case Var(x):
            return x
        case Zero():
            return "z"
        case Succ():
            # a successor chain in one loop: a numeral may be deeper than the stack
            k = 0
            while type(e) is Succ:
                e, k = e.body, k + 1
            return "s(" * k + print_expr(e) + ")" * k
        case Lam(f, x, b):
            return f"fun {f}({x}) => {print_expr(b)}"
        case Eff(l, b):
            return f"eff[{l}] {print_expr(b)}"
        case Let(x, e1, b):
            return f"let {x} = {print_expr(e1)} in {print_expr(b)}"
        case Case(zb, xv, sb, sc):
            return (
                f"case {_wrap(sc, head=True)} "
                f"{{ z => {print_expr(zb)} | s({xv}) => {print_expr(sb)} }}"
            )
        case App(f, a):
            return f"{_wrap(f, head=True)} {_wrap(a, head=False)}"
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expr, head: bool) -> str:
    # prefix forms always need parentheses in application/scrutinee position;
    # an application argument additionally needs them to keep left associativity
    needs = isinstance(e, (Lam, Eff, Let)) or (not head and isinstance(e, App))
    s = print_expr(e)
    return f"({s})" if needs else s
