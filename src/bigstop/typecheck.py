"""Simple types (nat and arrows) with inference by unification.

Inference produces a principal type containing metavariables; the public
infer_type defaults every unconstrained metavariable to nat, so e.g. the
identity function comes out at nat -> nat.  Preservation-style checks want
the pre-defaulting types (stepping can make a term more general), which is
what principal_type/types_unifiable expose.

Unification is union-find over mutable metavariable cells (Cardelli, Basic
Polymorphic Typechecking, 1987; Pierce, TAPL ch. 22): a cell is unbound or
linked to the type it was unified with, and finding a cell's representative
halves the path behind it.  The environment is a dict, copied at each
binder.  A result is read back into immutable MetaT/NatT/ArrowT; every cell
takes its ident from one global counter, so two calls never share a
metavariable.
"""

import itertools

from .record import record
from .syntax import (
    App, BLANK, Case, Eff, Expr, Lam, Let, Succ, Var, Zero,
)


class Type:
    __slots__ = ()


@record
class NatT(Type):
    def __repr__(self):
        return "NatT()"


@record
class ArrowT(Type):
    domain: Type
    codomain: Type


@record
class MetaT(Type):
    ident: int


_fresh_meta = itertools.count()


class TypeFailure(Exception):
    """Type inference failed; .at is the offending subterm."""

    def __init__(self, msg: str, at: Expr):
        super().__init__(msg)
        self.at = at


def print_type(t: Type) -> str:
    match t:
        case NatT():
            return "nat"
        case ArrowT(d, c):
            left = print_type(d)
            if isinstance(d, ArrowT):
                left = f"({left})"
            return f"{left} -> {print_type(c)}"
        case MetaT(i):
            return f"?{i}"
    raise TypeError(f"not a type: {t!r}")


class _Cell(Type):
    """A metavariable during inference: unbound while link is None."""

    __slots__ = ("ident", "link")

    def __init__(self, ident: int):
        self.ident = ident
        self.link = None


_NAT = NatT()


def _find(t: Type) -> Type:
    while isinstance(t, _Cell) and t.link is not None:
        up = t.link
        if isinstance(up, _Cell) and up.link is not None:
            t.link = up = up.link
        t = up
    return t


def _occurs(cell: _Cell, t: Type) -> bool:
    t = _find(t)
    if isinstance(t, ArrowT):
        return _occurs(cell, t.domain) or _occurs(cell, t.codomain)
    return t is cell


def _unify(a: Type, b: Type) -> bool:
    a, b = _find(a), _find(b)
    if a is b:
        return True
    if isinstance(a, _Cell):
        if _occurs(a, b):
            return False
        a.link = b
        return True
    if isinstance(b, _Cell):
        return _unify(b, a)
    if isinstance(a, ArrowT) and isinstance(b, ArrowT):
        return _unify(a.domain, b.domain) and _unify(a.codomain, b.codomain)
    return isinstance(a, NatT) and isinstance(b, NatT)


def _thaw(t: Type, cells: dict) -> Type:
    """t with each MetaT ident replaced by its one cell in cells."""
    match t:
        case MetaT(i):
            if i not in cells:
                cells[i] = _Cell(i)
            return cells[i]
        case ArrowT(d, c):
            return ArrowT(_thaw(d, cells), _thaw(c, cells))
    return t


def _zonk(t: Type) -> Type:
    t = _find(t)
    if isinstance(t, _Cell):
        return MetaT(t.ident)
    if isinstance(t, ArrowT):
        return ArrowT(_zonk(t.domain), _zonk(t.codomain))
    return t


def _default(t: Type) -> Type:
    match t:
        case MetaT():
            return NatT()
        case ArrowT(d, c):
            return ArrowT(_default(d), _default(c))
        case _:
            return t


# hand-written, not read off the syntax table: each constructor has its own typing rule
def _infer(e: Expr, env: dict) -> Type:
    c = type(e)
    if c is Var:
        if e.name in env:
            return env[e.name]
        raise TypeFailure(f"unbound variable {e.name}", e)
    if c is App:
        tf = _infer(e.fn, env)
        ta = _infer(e.arg, env)
        res = _Cell(next(_fresh_meta))
        if not _unify(tf, ArrowT(ta, res)):
            raise TypeFailure("applying a non-function or wrong argument type", e)
        return res
    if c is Succ:
        if not _unify(_infer(e.body, env), _NAT):
            raise TypeFailure("successor of a non-number", e)
        return _NAT
    if c is Lam:
        f, x = e.self_var, e.param
        dom = _Cell(next(_fresh_meta))
        cod = _Cell(next(_fresh_meta))
        fn = ArrowT(dom, cod)
        inner = dict(env)
        if f != BLANK:
            inner[f] = fn
        if x != BLANK:
            inner[x] = dom
        if not _unify(_infer(e.body, inner), cod):
            raise TypeFailure("function body disagrees with its own uses", e)
        return fn
    if c is Zero:
        return _NAT
    if c is Eff:
        return _infer(e.body, env)
    if c is Case:
        xv = e.succ_var
        if not _unify(_infer(e.scrutinee, env), _NAT):
            raise TypeFailure("case scrutinee is not a number", e)
        t1 = _infer(e.zero_branch, env)
        t2 = _infer(e.succ_branch, env if xv == BLANK else {**env, xv: _NAT})
        if not _unify(t1, t2):
            raise TypeFailure("case branches have different types", e)
        return t1
    if c is Let:
        x = e.var
        t1 = _infer(e.bound, env)
        return _infer(e.body, env if x == BLANK else {**env, x: t1})
    raise TypeFailure(f"not an expression: {e!r}", e)


def principal_type(e: Expr, env=()) -> Type:
    """Most general type, metavariables left in place.  env maps names to
    types, as a dict or as pairs (a later pair shadows an earlier one)."""
    cells: dict = {}
    return _zonk(_infer(e, {x: _thaw(t, cells) for x, t in dict(env).items()}))


def infer_type(e: Expr, env=()) -> Type:
    """Infer the type of e, defaulting leftover metavariables to nat."""
    return _default(principal_type(e, env))


def types_unifiable(a: Type, b: Type) -> bool:
    cells: dict = {}
    return _unify(_thaw(a, cells), _thaw(b, cells))


def well_typed(e: Expr, env=()) -> bool:
    try:
        infer_type(e, env)
        return True
    except TypeFailure:
        return False
