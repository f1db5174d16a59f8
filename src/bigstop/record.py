"""Frozen records at the cost of a plain object.

`record` makes a frozen, slotted dataclass, so equality, hashing, repr,
pattern matching, `FrozenInstanceError` and `dataclasses.replace` are the
dataclass's own.  Its `__init__` stores each field through the slot's
descriptor instead: the dataclass's own goes through `object.__setattr__`
per field and costs about 2.5 times as much.  Each `__init__` is compiled
under its own file name, `<record Name>`, so a profile keeps the classes
apart.
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
    doc = cls.__doc__
    cls.__doc__ = "-"  # else dataclass asks inspect.signature for one
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    env = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    params = ["self"]
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: records take plain defaults only")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    body = "".join(f"\n    _set_{n}(self, {n})" for n in names) or "\n    pass"
    exec(compile(f"def __init__({', '.join(params)}):{body}\n", f"<record {cls.__name__}>", "exec"), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(names)})"
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    return cls
