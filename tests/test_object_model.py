"""The object model: every frozen dataclass is slotted, and one parse shares
equal leaf types within a file.

These tests need neither pytest nor hypothesis, so that they can also be
called as plain functions under an interpreter that has neither:

    PYTHONPATH=src:tests python -c "import test_object_model as t; t.run_all()"
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
from collections import defaultdict

from semverdiff.corpus import LevelStats, TimeSeriesPoint
from semverdiff.diff import ChangeRecord, ComplianceVerdict
from semverdiff.gotypes import (
    Array,
    Basic,
    Chan,
    FieldDef,
    Func,
    Interface,
    Map,
    MethodSig,
    Named,
    Pointer,
    Slice,
    Struct,
    TypeParamDef,
    TypeParamRef,
    UnionTerm,
)
from semverdiff.impact import BreakingNode, ClientUsage
from semverdiff.manifest import DependencyEdge, Requirement
from semverdiff.parser import ConstSpec, Decl, FuncDecl, ImportSpec, TypeSpec, VarSpec, parse_go_file
from semverdiff.versions import UpgradeLevel, parse_version

PKG = "example.com/lib"

_RECORD = ChangeRecord("example.com/m", "v1.0.0", "v2.0.0", PKG, "F", "Function", "Remove", True, "F removed")
_NODE = BreakingNode(PKG, "F", "Function", "Remove", _RECORD)
_V1 = parse_version("v1.2.3-rc.1+build.5")
_FUNC = Func(params=(Basic("int"), Named(PKG, "T")), results=(Basic("error"),), variadic=True,
             type_params=(TypeParamDef("K", Basic("comparable")),))

# One instance of each frozen dataclass, with every field set.
SAMPLES = {
    Basic: Basic("int"),
    Array: Array(4, Basic("byte")),
    Slice: Slice(Named(PKG, "T")),
    Map: Map(Basic("string"), Pointer(Named(PKG, "T"))),
    FieldDef: FieldDef("A", Basic("int"), 'json:"a"', False, True),
    Struct: Struct((FieldDef("A", Basic("int")), FieldDef("T", Named(PKG, "T"), None, True, True))),
    MethodSig: MethodSig("M", _FUNC),
    UnionTerm: UnionTerm(Basic("int"), True),
    Interface: Interface((MethodSig("M", Func()),), (UnionTerm(Basic("int"), True),)),
    Pointer: Pointer(Basic("int")),
    Chan: Chan("recv", Basic("int")),
    TypeParamDef: TypeParamDef("K", Basic("comparable")),
    Func: _FUNC,
    Named: Named(PKG, "G", (TypeParamRef("K"), Basic("int"))),
    TypeParamRef: TypeParamRef("K"),
    ImportSpec: ImportSpec("a/b", "x"),
    ConstSpec: ConstSpec("C", Basic("untyped"), "1 << 3"),
    VarSpec: VarSpec("V", Named(PKG, "T")),
    TypeSpec: TypeSpec("G", Struct(), (TypeParamDef("K", Basic("any")),), False),
    FuncDecl: FuncDecl("M", _FUNC, "T"),
    ChangeRecord: _RECORD,
    ComplianceVerdict: ComplianceVerdict(UpgradeLevel.MINOR, 1, False),
    BreakingNode: _NODE,
    ClientUsage: ClientUsage("example.com/c", "v0.1.0", "c.go", 7, "lib.F", _NODE),
    Requirement: Requirement("a/b", "v1.0.0", True),
    DependencyEdge: DependencyEdge("example.com/m", _V1, "a/b", "v1.0.0", parse_version("v1.0.0")),
    type(_V1): _V1,
    LevelStats: LevelStats("Major", 3, 1),
    TimeSeriesPoint: TimeSeriesPoint(2023, 5, "Minor", 4, 2),
}


def _frozen_dataclasses() -> set[type]:
    """Every frozen dataclass defined in the package's modules but cli, which
    defines none and needs click."""
    found = set()
    for name in ("corpus", "diff", "gotypes", "impact", "lexer", "manifest", "parser", "surface", "versions"):
        module = importlib.import_module(f"semverdiff.{name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
                found.add(cls)
    return found


def test_the_samples_cover_every_frozen_dataclass():
    assert _frozen_dataclasses() == set(SAMPLES)
    assert len(SAMPLES) == 29


def test_no_instance_has_a_dict():
    for cls, obj in SAMPLES.items():
        assert type(obj) is cls
        assert "__slots__" in cls.__dict__, cls
        assert not hasattr(obj, "__dict__"), cls


def test_assignment_raises_frozen_instance_error():
    for cls, obj in SAMPLES.items():
        for f in dataclasses.fields(cls):
            for change in (lambda: setattr(obj, f.name, getattr(obj, f.name)), lambda: delattr(obj, f.name)):
                try:
                    change()
                except dataclasses.FrozenInstanceError:
                    pass
                else:
                    raise AssertionError(f"{cls.__name__}.{f.name} was changed")
        # Nor can an attribute that is no field be added. The generated
        # __setattr__ of a slotted frozen dataclass raises TypeError here, as
        # it compares against the class before slots were added.
        try:
            obj.extra = 1
        except (dataclasses.FrozenInstanceError, AttributeError, TypeError):
            pass
        else:
            raise AssertionError(f"{cls.__name__} took a new attribute")


def test_pickle_and_deepcopy_give_an_equal_object_with_an_equal_hash():
    for cls, obj in SAMPLES.items():
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(twin) is cls
            assert twin == obj and hash(twin) == hash(obj), cls
            assert repr(twin) == repr(obj), cls


def test_a_version_keeps_its_order_and_precedence_through_pickle():
    versions = [parse_version(v) for v in ("v1.0.0-alpha", "v1.0.0-alpha.1", "v1.0.0", "v1.0.1", "v2.0.0+x")]
    copies = pickle.loads(pickle.dumps(versions))
    assert copies == versions and sorted(reversed(copies)) == versions
    assert [v.precedence for v in copies] == [v.precedence for v in versions]
    assert parse_version("v2.0.0+x") == parse_version("v2.0.0+y")


def test_decl_defaults_and_keys():
    assert Decl.__slots__ == ()
    func = FuncDecl("F", Func())
    method = FuncDecl("M", Func(), "T")
    assert (func.key, func.kind, func.receiver) == ("F", "func", None)
    assert (method.key, method.kind, method.receiver) == ("T.M", "method", "T")
    const = ConstSpec("C", Basic("int"), "1")
    assert (const.key, const.kind, const.value, const.type_params) == ("C", "const", "1", ())
    var = VarSpec("V", Basic("int"))
    assert (var.key, var.kind, var.value, var.receiver) == ("V", "var", None, None)
    assert TypeSpec("T", Struct()).type_params == ()
    # The class attributes a spec gives are not fields: repr and equality are
    # the fields' alone.
    assert repr(var) == "VarSpec(name='V', type=Basic(name='int'))"
    assert [f.name for f in dataclasses.fields(FuncDecl)] == ["name", "type", "receiver"]


_SHARING = """package lib

import (
\tx "a/x"
\t"a/y"
)

type Pair[K comparable, V any] struct {
\tA K
\tB V
\tC x.Y
\tD x.Y
\tE T
\tF T
\tG []K
\tH y.Z[K]
\tI y.Z
\tJ T
\tL Y
}

type T struct{ N T; M *T }

type Y int

func (p *Pair[K, V]) Get(k K) (V, x.Y) { return }

func New[K comparable](k K, t T, u x.Y) *Pair[K, T] { return nil }

var A = x.Y{}

var B = T{}

var C = &T{}

const D = 1
"""


def _walk(value):
    """Every dataclass instance reachable from value, with repeats."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk(item)
    elif dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _walk(getattr(value, f.name))


def leaf_types(gofile) -> list:
    return [t for t in _walk(gofile.decls) if isinstance(t, TypeParamRef) or isinstance(t, Named) and not t.args]


def assert_shares_leaves(gofile) -> set:
    """Within one parsed file, equal leaf types are one object, and each is
    equal to a freshly built one; the set of distinct leaves is returned."""
    by_value = defaultdict(set)
    for t in leaf_types(gofile):
        by_value[t].add(id(t))
        assert t == (TypeParamRef(t.name) if isinstance(t, TypeParamRef) else Named(t.package, t.name))
    assert all(len(ids) == 1 for ids in by_value.values()), by_value
    return set(by_value)


def test_one_parse_shares_equal_leaf_types():
    gofile = parse_go_file(_SHARING, PKG)
    leaves = assert_shares_leaves(gofile)
    assert leaves == {
        TypeParamRef("K"), TypeParamRef("V"), Named("a/x", "Y"), Named(PKG, "T"), Named("a/y", "Z"), Named(PKG, "Y")
    }
    assert len(leaf_types(gofile)) > 2 * len(leaves)


def test_two_parses_give_equal_specs():
    first, second = parse_go_file(_SHARING, PKG), parse_go_file(_SHARING, PKG)
    assert first == second
    for a, b in zip(leaf_types(first), leaf_types(second)):
        assert a == b and a is not b
    # A Named with type arguments is built where it stands.
    generic = [t for t in _walk([d for d in first.decls if isinstance(d, TypeSpec)]) if isinstance(t, Named) and t.args]
    assert generic == [Named("a/y", "Z", (TypeParamRef("K"),))]


def test_parsed_function_and_method_keys():
    gofile = parse_go_file(_SHARING, PKG)
    assert [(f.name, f.receiver, f.key, f.kind) for f in gofile.decls if isinstance(f, FuncDecl)] == [
        ("Get", "Pair", "Pair.Get", "method"),
        ("New", None, "New", "func"),
    ]


def run_all() -> None:
    """Call every test in this module and print its name."""
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)


if __name__ == "__main__":
    run_all()
