"""Every frozen record class in the package: frozen, slotted, copyable and
picklable like a dataclass, built by its own `__init__`, and equal, hashed
and printed as a genuine frozen dataclass would be."""

import builtins
import cProfile
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import pstats
import random
import tracemalloc

import pytest

import bigstop
from bigstop.record import record
from bigstop.syntax import App, Succ, Zero


def _record_classes():
    found = {}
    for mod in pkgutil.iter_modules(bigstop.__path__):
        if mod.name == "__main__":
            continue
        module = importlib.import_module(f"bigstop.{mod.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen):
                found[f"{mod.name}.{obj.__qualname__}"] = obj
    return found


RECORDS = _record_classes()


def _sample(cls):
    return cls(*(f"v{i}" for i, _ in enumerate(dataclasses.fields(cls))))


def test_the_walk_finds_the_records():
    for name in ("syntax.App", "syntax._Tok", "typecheck.ArrowT", "smallstep.StepResult",
                 "smallstep.MultiResult", "bigstop.Derivation", "bigstop.Rule",
                 "traces.AnnTrace", "kmachine.MachineState", "imp.SeqS",
                 "imp.ImpConfig", "harness.PropertyReport"):
        assert name in RECORDS
    assert len(RECORDS) >= 47


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_frozen_class_is_a_record(name):
    cls = RECORDS[name]
    assert cls.__init__.__code__.co_filename == f"<record {cls.__name__}>"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_and_have_no_dict(name):
    cls = RECORDS[name]
    obj = _sample(cls)
    assert not hasattr(obj, "__dict__")
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_replace_pickle_and_copy_to_an_equal_object(name):
    obj = _sample(RECORDS[name])
    copies = [dataclasses.replace(obj), copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
    for other in copies:
        assert type(other) is type(obj)
        assert other == obj and hash(other) == hash(obj)


# field values for the twin comparison: 1, True and 1.0 are equal and hash
# alike but print apart, and a nan is equal only to itself
_VALUES = (0, 1, True, 1.0, "a", (), ("a", "b"), None, Zero(), App(Zero(), Zero()), float("nan"))
_LABELS = ("a", "b")  # for a field declared str, which may have to be a label


def _twin(cls):
    """A genuine frozen dataclass with the name and fields of cls, and the
    methods that cls's own module defines in place of the record's."""
    ns = {"__annotations__": {f.name: f.type for f in dataclasses.fields(cls)},
          "__qualname__": cls.__qualname__, "__module__": cls.__module__}
    for method in ("__repr__", "__eq__", "__hash__"):
        if getattr(cls.__dict__[method], "__module__", None) == cls.__module__:
            ns[method] = cls.__dict__[method]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_hash_and_print_as_their_dataclass_twin(name):
    cls = RECORDS[name]
    twin = _twin(cls)
    rng = random.Random(name)
    rows = [tuple(rng.choice(_LABELS if f.type in (str, "str") else _VALUES)
                  for f in dataclasses.fields(cls)) for _ in range(8)]
    pairs = [(cls(*row), twin(*row)) for row in rows]
    strangers = [_sample(Succ if cls is App else App), rows[0], None]
    for rec, tw in pairs:
        assert repr(rec) == repr(tw)
        assert hash(rec) == hash(tw)
        assert rec != tw and not rec == tw
        for x in strangers:
            assert rec.__eq__(x) is tw.__eq__(x) is NotImplemented
            assert (rec == x, rec != x) == (tw == x, tw != x)
        for rec2, tw2 in pairs:
            assert (rec == rec2, rec != rec2) == (tw == tw2, tw != tw2)
            if rec == rec2:
                assert hash(rec) == hash(rec2)


def test_a_record_costs_one_compile(monkeypatch):
    calls = []
    real_compile, real_exec = builtins.compile, builtins.exec

    def counted_compile(*args, **kwargs):
        calls.append("compile")
        return real_compile(*args, **kwargs)

    def counted_exec(*args, **kwargs):
        calls.append("exec")  # dataclasses compiles each method it adds in an exec
        return real_exec(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted_compile)
    monkeypatch.setattr(builtins, "exec", counted_exec)

    @record
    class Fresh:
        n: int
        label: str = "a"
        _derive = {"_twice": lambda n, label: 2 * n}

    monkeypatch.undo()
    assert calls == ["compile", "exec"]
    assert Fresh(3) == Fresh(3, "a") and Fresh(3)._twice == 6


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_records_methods_come_from_its_one_compile(name):
    cls = RECORDS[name]
    for method in ("__init__", "__eq__", "__hash__"):
        if method != "__init__" and cls.__dict__[method].__module__ == cls.__module__:
            continue  # the class's own, as bigstop.Derivation's walk without recursion
        assert getattr(cls, method).__code__.co_filename == f"<record {cls.__name__}>"
    for value in vars(cls).values():
        code = getattr(value, "__code__", None)
        assert code is None or code.co_filename != "<string>"
    assert cls.__reduce__ is App.__reduce__
    assert cls.__dataclass_params__ is App.__dataclass_params__


def test_terms_round_trip_through_pickle_with_their_closedness():
    e = bigstop.parse_expr("(fun f(x) => eff[t] f x) z")
    assert e.closed
    back = pickle.loads(pickle.dumps(e))
    assert back == e and back.closed and back.fn.closed


def test_records_keep_keywords_and_defaults():
    d = bigstop.Derivation(rule="Val", lhs=Zero(), rhs=Zero(), trace=())
    assert d.premises == () and d == bigstop.Derivation("Val", Zero(), Zero(), ())
    assert dataclasses.replace(d, rule="x").rule == "x"
    with pytest.raises(TypeError):
        App(Zero())


def test_record_refuses_what_its_init_would_skip():
    with pytest.raises(TypeError, match="plain defaults"):
        @record
        class Listy:
            items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="only stores its fields"):
        @record
        class Checked:
            n: int

            def __post_init__(self):
                pass


def test_a_record_may_extend_a_record():
    @record
    class Base:
        n: int

    @record
    class More(Base):
        label: str

    m = More(1, "a")
    assert dataclasses.fields(m)[1].name == "label" and repr(m) == f"{More.__qualname__}(n=1, label='a')"
    assert m == More(1, "a") != Base(1) and hash(m) == hash(More(1, "a"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.n = 2


def _bytes_per_object(make, n=2000):
    keep = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep.extend(make() for _ in range(n))
        return (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()


def test_a_term_costs_what_a_hand_slotted_object_costs():
    class Slotted:
        __slots__ = ("_closed", "fn", "arg")

        def __init__(self, fn, arg):
            self.fn, self.arg = fn, arg

    class Plain:
        def __init__(self, fn, arg):
            self.fn, self.arg = fn, arg

    z = Zero()
    term = _bytes_per_object(lambda: App(z, z))
    assert term <= _bytes_per_object(lambda: Slotted(z, z)) + 1
    assert term < _bytes_per_object(lambda: Plain(z, z))


def test_profiles_count_each_records_constructor_apart():
    z = Zero()
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(1000):
        App(z, z)
    for _ in range(3000):
        Succ(z)
    prof.disable()
    calls = {key[0]: row[1] for key, row in pstats.Stats(prof).stats.items()
             if key[2] == "__init__"}
    assert calls == {"<record App>": 1000, "<record Succ>": 3000}
