"""The value classes behave as frozen dataclasses with the same fields.

Each class of `Value` is checked against a twin made by
`dataclasses.make_dataclass(..., frozen=True)` from the field annotations
and defaults of the class body: the twin holds the same field values, and
the two must agree on repr, equality, hashing, frozenness, keyword
construction and defaults; pickling and copying give back an equal value.
"""

import copy
import dataclasses
import pickle

import pytest

from cantorenv.action import AxiomsReport, AxiomViolation
from cantorenv.algebra import GroupoidFunction, KernelElement, _IndexedTable
from cantorenv.cantor import EMPTY, FULL, ClopenSet, Point
from cantorenv.cells import CellPartition
from cantorenv.cli import SystemDefinition
from cantorenv.envelope import (
    EtaleReport, GermPair, HausdorffCertificate, NonSeparablePair,
)
from cantorenv.filtration import BratteliDiagram, BratteliLevel
from cantorenv.functions import ONE, PiecewiseConstant, Scalar
from cantorenv.prefix_map import ODOMETER, GeneratedMap, PrefixMap
from cantorenv.value import FrozenInstanceError, Value
from cantorenv.verify import VerifyReport

HALF = PiecewiseConstant((("0", ONE),))
TABLE = (((0, 1), HALF),)
LEVEL = BratteliLevel(0, 0, 1, 1, ((0, 2, 2),))
VIOLATION = AxiomViolation(3, 1, -1, "h_1h_-1[0] = undefined")
GERM = GermPair(1, Point("1", "0"))

# each class with keyword arguments for at least two unequal values
SAMPLES = {
    Point: [{"preperiod": "1", "period": "01"}, {}],
    ClopenSet: [{"words": ("0",)}, {"words": ("00", "1")}, {}],
    PrefixMap: [{"rules": (("0", "1"),)}, {"rules": (("1", "0"), ("0", "1"))}],
    GeneratedMap: [{"kind": "odometer"}, {"kind": "rules", "rules": (("0", "1"),)}],
    PiecewiseConstant: [{"pieces": (("0", ONE),)}, {"pieces": (("1", Scalar(0, 1)),)}],
    GroupoidFunction: [{"table": TABLE}, {}],
    KernelElement: [{"table": TABLE}, {"table": (((1, 1), HALF),)}],
    AxiomViolation: [{"axiom": 1, "t": 0, "s": None, "detail": "X_0"},
                     {"axiom": 3, "t": 1, "s": -1, "detail": "h"}],
    AxiomsReport: [{"bound": 2, "violations": ()},
                   {"bound": 2, "violations": (VIOLATION,)}],
    CellPartition: [{"n": 1, "d": 1, "classes": (((0, "0"),), ((0, "1"),))},
                    {"n": 0, "d": 1, "classes": (((0, "0"), (0, "1")),)}],
    BratteliLevel: [{"m": 0, "k": 0, "n": 1, "d": 1, "vertices": ((0, 2, 2),)},
                    {"m": 1, "k": 1, "n": 2, "d": 2, "vertices": ()}],
    BratteliDiagram: [{"levels": (LEVEL,), "edges": ()},
                      {"levels": (LEVEL, LEVEL), "edges": ((0, 0, 0, 1),)}],
    GermPair: [{"index": 0, "point": Point()}, {"index": 1, "point": Point("1")}],
    HausdorffCertificate: [{"verdict": "clopen", "bound": 1, "domains": ((0, FULL),)},
                           {"verdict": "unknown", "depth": 4}],
    NonSeparablePair: [{"first": GERM, "second": GermPair(0, Point()),
                        "approach": ((Point("0"), Point("1")),)},
                       {"first": GERM, "second": GERM, "approach": ()}],
    EtaleReport: [{"t": 0, "s": 1, "base": FULL, "image": EMPTY, "diagonal": False,
                   "violations": ()},
                  {"t": 1, "s": 1, "base": FULL, "image": FULL, "diagonal": True,
                   "violations": ("v",)}],
    VerifyReport: [{"trials": 3, "checked": 9, "failures": ()},
                   {"trials": 3, "checked": 9, "failures": ("f",), "epsilon": 1}],
    SystemDefinition: [{"name": "flip", "generator": PrefixMap((("0", "1"),))},
                       {"name": "odometer", "generator": ODOMETER, "counts": (1, 2),
                        "defaults": {"bound": 3}}],
}
FACTORIES = {(SystemDefinition, "defaults"): dict}


def declared_in(cls):
    """The class of the MRO whose body declares the fields."""
    return next(c for c in cls.__mro__ if c.__dict__.get("__annotations__"))


def twin_of(cls):
    """A frozen dataclass with the fields and defaults of the class body."""
    owner = declared_in(cls)
    fields = []
    for name in owner.__dict__["__annotations__"]:
        if (cls, name) in FACTORIES:
            spec = dataclasses.field(default_factory=FACTORIES[cls, name])
        elif name in owner.__dict__:
            spec = dataclasses.field(default=owner.__dict__[name])
        else:
            spec = dataclasses.field()
        fields.append((name, object, spec))
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: twin_of(cls) for cls in SAMPLES}


def twin(value):
    names = [f.name for f in dataclasses.fields(TWINS[type(value)])]
    return TWINS[type(value)](**{name: getattr(value, name) for name in names})


def values(cls):
    return [cls(**kwargs) for kwargs in SAMPLES[cls]]


def hash_or_error(value):
    """The hash, or TypeError for a value with an unhashable field."""
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


def test_every_value_class_is_sampled():
    classes, stack = set(), [Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            classes.add(sub)
            stack.append(sub)
    assert classes - {_IndexedTable} == set(SAMPLES)
    assert len(classes) == 19  # 17 classes, and the two kinds of table


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
class TestTwin:
    def test_repr(self, cls):
        for v in values(cls):
            assert repr(v) == repr(twin(v))

    def test_equality_and_hash(self, cls):
        vs = values(cls)
        copies = values(cls)
        for a in vs:
            for b in vs + copies:
                assert (a == b) == (twin(a) == twin(b))
                assert (a != b) == (twin(a) != twin(b))
            assert hash_or_error(a) == hash_or_error(twin(a))
        for a, b in zip(vs, copies):
            assert a == b and hash_or_error(a) == hash_or_error(b) and a is not b
        assert vs[0] != vs[1]
        assert (vs[0] == object()) is False and vs[0] != None  # noqa: E711

    def test_frozen(self, cls):
        v = values(cls)[0]
        for name in TWINS[cls].__dataclass_fields__:
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(v, name)
            with pytest.raises(AttributeError):
                setattr(twin(v), name, None)
            with pytest.raises(AttributeError):
                delattr(twin(v), name)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert issubclass(FrozenInstanceError, AttributeError)

    def test_keywords_positions_and_defaults(self, cls):
        fields = dataclasses.fields(TWINS[cls])
        for kwargs in SAMPLES[cls]:
            v = cls(**kwargs)
            assert cls(*(getattr(v, f.name) for f in fields)) == v
            for f in fields:
                if f.name not in kwargs:
                    assert getattr(v, f.name) == (
                        f.default_factory() if f.default is dataclasses.MISSING
                        else f.default
                    )
        required = [f for f in fields if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        if required:
            with pytest.raises(TypeError):
                cls()
        with pytest.raises(TypeError):
            cls(**SAMPLES[cls][0], no_such_field=1)

    def test_pickle_and_copy(self, cls):
        for v in values(cls):
            for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
                assert type(back) is cls and back == v
                assert hash_or_error(back) == hash_or_error(v)


def test_table_kinds_never_equal():
    blocks, kernel = GroupoidFunction(TABLE), KernelElement(TABLE)
    assert blocks.table == kernel.table
    assert blocks != kernel and not blocks == kernel
    assert (twin(blocks) == twin(kernel)) is False


def test_defaults_dict_is_fresh_per_instance():
    first = SystemDefinition("a", ODOMETER)
    second = SystemDefinition("a", ODOMETER)
    assert first.defaults == {} and first.defaults is not second.defaults
    first.defaults["bound"] = 1
    assert second.defaults == {}


def test_memo_and_verdicts_are_no_fields():
    f = PiecewiseConstant((("0", ONE), ("1", Scalar(2))))
    g = PiecewiseConstant((("0", ONE), ("1", Scalar(2))))
    assert f.words == ("0", "1")  # memoized into the instance
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert pickle.loads(pickle.dumps(f)) == g
