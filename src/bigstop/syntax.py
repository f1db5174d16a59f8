"""Abstract and concrete syntax for the call-by-value functional language.

Terms are numerals built from z/s, a case split on numerals, recursive
functions (the self binder is in scope in the body), application, an effect
marker `eff[label] e`, and - for the monadic-normal-form dialect only - a
`let x = e in e` form.  `_` is a legal binder that binds nothing.

Values are z, s applied to a value, and functions.  Variables are never
values here; the MNF *grammar* additionally counts variables as values,
which is what `is_mnf_value` captures.
"""

from .record import record
from .traces import BadLabel, check_label

### abstract syntax

BLANK = "_"


class Expr:
    __slots__ = ("_closed",)

    @property
    def closed(self) -> bool:
        """No variable occurs free.  Terms are frozen, so each object walks
        itself at most once and keeps the answer in its `_closed` slot."""
        try:
            return self._closed
        except AttributeError:
            closed = not free_vars(self)
            _set_closed(self, closed)
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


@record
class Succ(Expr):
    body: Expr


@record
class Case(Expr):
    zero_branch: Expr
    succ_var: str
    succ_branch: Expr
    scrutinee: Expr


class _Function(Expr):
    # typecheck's principal type scheme of a closed function, kept by the object
    __slots__ = ("_scheme",)


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
    while type(e) is Succ:
        e = e.body
    c = type(e)
    return c is Zero or c is Lam


def numeral(n: int) -> Expr:
    e: Expr = Zero()
    for _ in range(n):
        e = Succ(e)
    return e


def numeral_value(e: Expr):
    """The int a numeral value denotes, or None for non-numerals."""
    n = 0
    while isinstance(e, Succ):
        e = e.body
        n += 1
    return n if isinstance(e, Zero) else None


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
    SubstOpenValue.  The guard walks down a numeral's spine and asks a
    function for its `closed` flag, which each Lam object computes once, so
    substituting the same function again costs O(1).  Entries for the
    wildcard binder are ignored: `_` never stands for anything.
    """
    mapping = {x: v for x, v in mapping.items() if x != BLANK}
    for x, v in mapping.items():
        w = v
        while type(w) is Succ:
            w = w.body
        # a numeral is closed; a function is closed when the Lam is
        if not (type(w) is Zero or (type(w) is Lam and w.closed)):
            raise SubstOpenValue(f"substituting non-closed-value for {x}: {print_expr(v)}")
    return _subst(e, mapping)


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
        return Succ(_subst(e.body, m))
    if c is Lam:
        f, x = e.self_var, e.param
        return Lam(f, x, _subst(e.body, {k: v for k, v in m.items() if k != f and k != x}))
    if c is Zero:
        return e
    if c is Eff:
        return Eff(e.label, _subst(e.body, m))
    if c is Case:
        xv = e.succ_var
        inner = {k: v for k, v in m.items() if k != xv}
        return Case(_subst(e.zero_branch, m), xv, _subst(e.succ_branch, inner), _subst(e.scrutinee, m))
    if c is Let:
        x = e.var
        return Let(x, _subst(e.bound, m), _subst(e.body, {k: v for k, v in m.items() if k != x}))
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
    c = type(e)
    if c is Var or c is Zero:
        return True
    if c is Succ:
        return is_mnf_value(e.body)
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

_PUNCT = ("=>", "(", ")", "{", "}", "[", "]", "|", "=")


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@record
class _Tok:
    kind: str  # 'punct' | 'ident' | 'eof'
    text: str
    line: int
    col: int


def _tokenize(src: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(_Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            if c.isalnum() or c == "_" or c == "'":
                j = i
                while j < n and (src[j].isalnum() or src[j] in "_'"):
                    j += 1
                toks.append(_Tok("ident", src[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or (t.kind == "eof"):
            self.err(f"expected {text!r}, found {t.text!r}" if t.kind != "eof" else f"expected {text!r}, found end of input")
        return self.next()

    def binder(self) -> str:
        t = self.peek()
        if t.kind != "ident" or (t.text in KEYWORDS and t.text != "_"):
            self.err(f"expected a binder, found {t.text!r}")
        return self.next().text

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.err(f"expected an identifier, found {t.text!r}")
        if t.text == BLANK:
            self.err("the wildcard _ cannot be referenced")
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
            return Lam(f, x, self.expr())
        if t.text == "let":
            self.next()
            x = self.binder()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return Let(x, bound, self.expr())
        if t.text == "eff":
            self.next()
            self.expect("[")
            lab = self.peek()
            if lab.kind != "ident":
                self.err("expected an effect label")
            try:
                check_label(lab.text)
            except BadLabel as bl:
                self.err(str(bl))
            self.next()
            self.expect("]")
            return Eff(lab.text, self.expr())
        return self.app()

    def app(self) -> Expr:
        e = self.atom()
        while self.starts_atom():
            e = App(e, self.atom())
        return e

    def starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "punct":
            return t.text == "("
        if t.kind == "eof":
            return False
        return t.text not in {"fun", "eff", "let", "in"}

    def atom(self) -> Expr:
        t = self.peek()
        if t.text == "z":
            self.next()
            return Zero()
        if t.text == "s":
            self.next()
            self.expect("(")
            b = self.expr()
            self.expect(")")
            return Succ(b)
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
            return Case(zb, xv, sb, sc)
        if t.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            return Var(self.ident())
        self.err(f"expected an expression, found {t.text!r}")


def parse_expr(src: str) -> Expr:
    p = _Parser(src)
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        p.err(f"trailing input starting at {t.text!r}")
    return e


# hand-written, like the parser: the concrete syntax is per constructor
def print_expr(e: Expr) -> str:
    match e:
        case Var(x):
            return x
        case Zero():
            return "z"
        case Succ(b):
            return f"s({print_expr(b)})"
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
