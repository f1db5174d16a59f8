"""Frozen records as small as a hand-slotted object.

`record` makes a slotted class that `dataclasses` takes for a frozen
dataclass: `fields`, `replace`, `is_dataclass`, pattern matching,
`FrozenInstanceError`, pickling and copying work as on one.  The dataclass
decorator is asked only for the field metadata and `__match_args__`.  The
methods it would add are made here, because it compiles each one in an
`exec` of its own (about half a millisecond a class, most of the cost of
importing the package):

- `__init__`, `__eq__` and `__hash__` are compiled per class, together, in
  one `compile` under the file name `<record Name>`, so a profile keeps the
  classes apart.  `__eq__` and `__hash__` are the dataclass's own code: they
  compare and hash the tuple of the fields.  They stay per class because
  engines compare and hash terms on their hot paths, and a shared version
  that reads the fields through a getter is about twice as slow.
  `__init__` stores each field through the slot's descriptor: the
  dataclass's own goes through `object.__setattr__` per field and costs
  about 2.5 times as much.
- `__repr__` (in the dataclass's format) and `__reduce__` are shared by
  every record: they are cold, and read the fields through `fields`.
- `__dataclass_params__` is one object for every record, taken from a
  frozen dataclass made once here, so every record reports `frozen`.

A class may also name derived slots in a `_derive` dict, from slot name to
a function of the fields in order.  The `__init__` stores each one's value
after the fields, so a fact about the whole value costs one slot read.  A
derived slot is no field: equality, hashing, repr and `replace` ignore it.
Pickling and copying rebuild a record through its `__init__`, so they
compute its derived slots again.
"""

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from functools import wraps
from gc import disable, enable, isenabled
from reprlib import recursive_repr

_PARAMS = dataclass(frozen=True, init=False)(type("Frozen", (), {"__doc__": "-"})).__dataclass_params__


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@recursive_repr()
def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self):
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _tuple(obj, names):
    return f"({''.join(f'{obj}.{n}, ' for n in names)})"


def record(cls):
    if "__post_init__" in cls.__dict__:
        raise TypeError(f"{cls.__name__}: a record's __init__ only stores its fields")
    derive = cls.__dict__.get("_derive", {})
    doc, qualname = cls.__doc__, cls.__qualname__
    cls.__doc__ = "-"  # else dataclass asks inspect.signature for one
    # frozen only under a record, where dataclass requires it; the methods it
    # then adds are replaced below
    cls = dataclass(init=False, repr=False, eq=False, frozen=is_dataclass(cls))(cls)
    fs = fields(cls)
    names = [f.name for f in fs]
    env, params = {}, ["self"]
    for f in fs:
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: records take plain defaults only")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    args = "".join(f"{n}, " for n in names)
    lines = [f"_set_{n}(self, {n})" for n in names]
    for n, fn in derive.items():
        env[f"_derive_{n}"] = fn
        lines.append(f"_set_{n}(self, _derive_{n}({args}))")
    cmp = [f.name for f in fs if f.compare]
    hashed = [f.name for f in fs if (f.compare if f.hash is None else f.hash)]
    src = (f"def __init__({', '.join(params)}):\n    " + ("\n    ".join(lines) or "pass")
           + "\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
           + f"        return {_tuple('self', cmp)} == {_tuple('other', cmp)}\n"
           + "    return NotImplemented\n"
           + f"def __hash__(self):\n    return hash({_tuple('self', hashed)})\n")
    exec(compile(src, f"<record {cls.__name__}>", "exec"), env)
    for method in ("__init__", "__eq__", "__hash__"):
        env[method].__qualname__ = f"{qualname}.{method}"
    # the slotted class, made here rather than by slots=True so that it has
    # the derived slots as well as the fields; a method the class defines
    # itself wins, as it does over a dataclass's
    body = {k: v for k, v in cls.__dict__.items()
            if k not in names and k not in ("__dict__", "__weakref__", "_derive")}
    cls = type(cls)(cls.__name__, cls.__bases__, {
        "__repr__": _repr, "__eq__": env["__eq__"], "__hash__": env["__hash__"], **body,
        "__init__": env["__init__"], "__reduce__": _reduce, "__setattr__": _assign,
        "__delattr__": _delete, "__dataclass_params__": _PARAMS, "__qualname__": qualname,
        "__doc__": doc or f"{cls.__name__}({', '.join(names)})", "__slots__": (*names, *derive)})
    # __init__ looks these up when it runs
    env.update({f"_set_{n}": cls.__dict__[n].__set__ for n in (*names, *derive)})
    return cls


def paused(build):
    """build with automatic cyclic collection paused while it runs, then
    the collector as it was found: one already off stays off, so calls nest.

    A tree of records built bottom-up from fields that already exist holds
    no cycle, so reference counting alone frees it, and the collector's
    rescans of a growing derivation find nothing.  The exception is `beta`'s
    cache: a function whose instantiated body holds the function itself is
    a cycle, which the first collection after the call finds.  The switch is
    interpreter-wide, so it is not thread-safe: another thread's cyclic
    garbage waits until the call ends, and a collector that anything switches
    off during the call is on again after it.
    """
    @wraps(build)
    def run(*args, **kwargs):
        if not isenabled():
            return build(*args, **kwargs)
        disable()
        try:
            return build(*args, **kwargs)
        finally:
            enable()
    return run
