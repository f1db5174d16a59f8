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

A closed function is typed once.  When a Lam infers without error under an
empty environment it must be closed (a free name would have failed as
unbound), so its type is its own principal type whatever surrounds it; the
Lam keeps that type as a scheme, numbered ?0, ?1, ... by first occurrence
and shared with every other Lam of the same scheme.  A later inference of
the same object, under any environment, gives each meta of the scheme a
fresh cell with a fresh ident instead of walking the body.  Evaluation
never steps under a binder, so the function values of a run are typed
under an empty environment and their objects recur from step to step.  A
Lam that fails, or that is typed only under outside names, keeps nothing.
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
    while type(t) is _Cell and t.link is not None:
        up = t.link
        if type(up) is _Cell and up.link is not None:
            t.link = up = up.link
        t = up
    return t


def _occurs(cell: _Cell, t: Type) -> bool:
    t = _find(t)
    if type(t) is ArrowT:
        return _occurs(cell, t.domain) or _occurs(cell, t.codomain)
    return t is cell


def _unify(a: Type, b: Type) -> bool:
    a, b = _find(a), _find(b)
    if a is b:
        return True
    ca, cb = type(a), type(b)
    if ca is _Cell:
        if _occurs(a, b):
            return False
        a.link = b
        return True
    if cb is _Cell:
        return _unify(b, a)
    if ca is ArrowT:
        return cb is ArrowT and _unify(a.domain, b.domain) and _unify(a.codomain, b.codomain)
    return ca is NatT and cb is NatT


def _thaw(t: Type, cells: dict, fresh: bool = False) -> Type:
    """t with each MetaT ident replaced by its one cell in cells.  The cell
    keeps the meta's ident, or with fresh takes a new one from _fresh_meta."""
    c = type(t)
    if c is MetaT:
        cell = cells.get(t.ident)
        if cell is None:
            cell = cells[t.ident] = _Cell(next(_fresh_meta) if fresh else t.ident)
        return cell
    if c is ArrowT:
        return ArrowT(_thaw(t.domain, cells, fresh), _thaw(t.codomain, cells, fresh))
    return t


def _zonk(t: Type, names=None) -> Type:
    """t read back into immutable types.  An unbound cell becomes the MetaT
    of its own ident, or, given a dict names, of its number by first
    occurrence (?0, ?1, ...)."""
    t = _find(t)
    c = type(t)
    if c is _Cell:
        if names is None:
            return MetaT(t.ident)
        if t not in names:
            names[t] = MetaT(len(names))
        return names[t]
    if c is ArrowT:
        return ArrowT(_zonk(t.domain, names), _zonk(t.codomain, names))
    return t


# one object per distinct scheme, so a pool of terms holds few of them
_schemes: dict = {}
_set_scheme = Lam._scheme.__set__


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
        tf = _find(_infer(e.fn, env))
        ta = _infer(e.arg, env)
        if type(tf) is ArrowT:
            # unifying with a fresh arrow would only link its result cell
            if not _unify(tf.domain, ta):
                raise TypeFailure("applying a non-function or wrong argument type", e)
            return tf.codomain
        res = _Cell(next(_fresh_meta))
        if not _unify(tf, ArrowT(ta, res)):
            raise TypeFailure("applying a non-function or wrong argument type", e)
        return res
    if c is Succ:
        # a numeral in one loop: only the innermost successor's body can fail
        while type(e.body) is Succ:
            e = e.body
        if not _unify(_infer(e.body, env), _NAT):
            raise TypeFailure("successor of a non-number", e)
        return _NAT
    if c is Lam:
        scheme = getattr(e, "_scheme", None)
        if scheme is not None:
            return _thaw(scheme, {}, True)
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
        if not env:
            # typed without error and without an outside name: e is closed
            scheme = _zonk(fn, {})
            _set_scheme(e, _schemes.setdefault(scheme, scheme))
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


def _infer_in(e: Expr, env) -> Type:
    cells: dict = {}
    return _infer(e, {x: _thaw(t, cells) for x, t in dict(env).items()})


def principal_type(e: Expr, env=()) -> Type:
    """Most general type, metavariables left in place.  env maps names to
    types, as a dict or as pairs (a later pair shadows an earlier one)."""
    return _zonk(_infer_in(e, env))


def infer_type(e: Expr, env=()) -> Type:
    """Infer the type of e, defaulting leftover metavariables to nat."""
    return _default(principal_type(e, env))


def types_unifiable(a: Type, b: Type) -> bool:
    cells: dict = {}
    return _unify(_thaw(a, cells), _thaw(b, cells))


def well_typed(e: Expr, env=()) -> bool:
    try:
        _infer_in(e, env)
        return True
    except TypeFailure:
        return False
