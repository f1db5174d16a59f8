"""Every frozen record class in the package: frozen, slotted, copyable and
picklable like a dataclass, built by its own `__init__`."""

import cProfile
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import pstats
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
