"""Frozen records at the cost of a plain object.

`record` makes a frozen, slotted dataclass, so equality, hashing, repr,
pattern matching, `FrozenInstanceError` and `dataclasses.replace` are the
dataclass's own.  Its `__init__` stores each field through the slot's
descriptor instead: the dataclass's own goes through `object.__setattr__`
per field and costs about 2.5 times as much.  Each `__init__` is compiled
under its own file name, `<record Name>`, so a profile keeps the classes
apart.

A class may also name derived slots in a `_derive` dict, from slot name to
a function of the fields in order.  The `__init__` stores each one's value
after the fields, so a fact about the whole value costs one slot read.  A
derived slot is no field: equality, hashing, repr and `replace` ignore it.
Pickling and copying rebuild a record through its `__init__`, so they
compute its derived slots again.
"""

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


# A slotted dataclass's own __setattr__ and __delattr__ test against the
# class that slots=True replaced, so (on Python 3.11 at least) a name that is
# no field raises TypeError instead of FrozenInstanceError.
def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    if "__post_init__" in cls.__dict__:
        raise TypeError(f"{cls.__name__}: a record's __init__ only stores its fields")
    derive = cls.__dict__.get("_derive", {})
    doc, qualname = cls.__doc__, cls.__qualname__
    cls.__doc__ = "-"  # else dataclass asks inspect.signature for one
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    # the slotted class, made here rather than by slots=True so that it has
    # the derived slots as well as the fields
    body = {k: v for k, v in cls.__dict__.items()
            if k not in names and k not in ("__dict__", "__weakref__", "_derive")}
    cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": (*names, *derive)})
    cls.__qualname__ = qualname
    env = {f"_set_{n}": cls.__dict__[n].__set__ for n in (*names, *derive)}
    params = ["self"]
    for f in fields(cls):
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
    src = (f"def __init__({', '.join(params)}):\n    " + ("\n    ".join(lines) or "pass")
           + f"\ndef __reduce__(self):\n    return type(self), ({''.join(f'self.{n}, ' for n in names)})\n")
    exec(compile(src, f"<record {cls.__name__}>", "exec"), env)
    for method in ("__init__", "__reduce__"):
        setattr(cls, method, env[method])
        env[method].__qualname__ = f"{qualname}.{method}"
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(names)})"
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    return cls
