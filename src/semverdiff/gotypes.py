"""Structural model of Go type expressions, and their rendering for messages.

Types are slotted frozen dataclasses, with no instance dict; two types are
the same type iff they are `==`, and the differ decides every change that
way, never by identity. So the parser may share one instance of a type
between the places it stands: within a file it builds each leaf type, a
Named without type arguments or a TypeParamRef, once. Renderings are
deterministic and fully qualified (named types carry their package import
path); they make up change messages and the surface document, and decide
nothing.

On the types the parser builds, render equality coincides with structural
equality, with a single exception: a type parameter that shadows a
predeclared type, as in `func F[int any](x int)`, renders like the basic type
it shadows (`TypeParamRef("int")` and `Basic("int")` both render as `int`).
The parser guarantees the rest: a literal array length is an int (`[0x10]`
and `[(16)]` are both 16), so a spelled length is never a decimal literal,
and a named type always carries its package.

A current-package context may be supplied to render same-package names bare,
matching how change messages are reported.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from typing import Callable, Mapping, Union


def is_exported(identifier: str) -> bool:
    """True iff the identifier starts with an uppercase letter."""
    return bool(identifier) and unicodedata.category(identifier[0]) == "Lu"


@dataclass(frozen=True, slots=True)
class Basic:
    name: str


@dataclass(frozen=True, slots=True)
class Array:
    # Non-literal lengths (named constants, expressions) are kept as spelled.
    length: int | str
    elem: "TypeExpr"


@dataclass(frozen=True, slots=True)
class Slice:
    elem: "TypeExpr"


@dataclass(frozen=True, slots=True)
class Map:
    key: "TypeExpr"
    value: "TypeExpr"


@dataclass(frozen=True, slots=True)
class FieldDef:
    name: str
    type: "TypeExpr"
    tag: str | None = None
    anonymous: bool = False
    exported: bool = False


@dataclass(frozen=True, slots=True)
class Struct:
    fields: tuple[FieldDef, ...] = ()


@dataclass(frozen=True, slots=True)
class MethodSig:
    name: str
    sig: "Func"


@dataclass(frozen=True, slots=True)
class UnionTerm:
    type: "TypeExpr"
    tilde: bool = False


@dataclass(frozen=True, slots=True)
class Interface:
    methods: tuple[MethodSig, ...] = ()
    embeds: tuple[UnionTerm, ...] = ()

    @property
    def has_unexported_method(self) -> bool:
        return any(not is_exported(m.name) for m in self.methods)


@dataclass(frozen=True, slots=True)
class Pointer:
    base: "TypeExpr"


@dataclass(frozen=True, slots=True)
class Chan:
    direction: str  # "send", "recv", or "both"
    elem: "TypeExpr"


@dataclass(frozen=True, slots=True)
class TypeParamDef:
    name: str
    constraint: "TypeExpr"


@dataclass(frozen=True, slots=True)
class Func:
    params: tuple["TypeExpr", ...] = ()
    results: tuple["TypeExpr", ...] = ()
    variadic: bool = False  # when set, params[-1] is the element type
    type_params: tuple[TypeParamDef, ...] = ()


@dataclass(frozen=True, slots=True)
class Named:
    package: str
    name: str
    args: tuple["TypeExpr", ...] = ()


@dataclass(frozen=True, slots=True)
class TypeParamRef:
    name: str


TypeExpr = Union[
    Basic, Array, Slice, Map, Struct, Interface, Pointer, Chan, Func, Named, TypeParamRef
]

# Each variant's kind in the structural form and category in the catalogue.
_VARIANTS = {
    Basic: ("basic", "Basic"),
    Array: ("array", "Array"),
    Slice: ("slice", "Slice"),
    Map: ("map", "Map"),
    Struct: ("struct", "Struct"),
    Interface: ("interface", "Interface"),
    Pointer: ("pointer", "Pointer"),
    Chan: ("chan", "Channel"),
    Func: ("func", "Function"),
    Named: ("named", "Named"),
    TypeParamRef: ("typeparam", "Named"),
}


def variant_category(t: TypeExpr) -> str:
    return _VARIANTS[type(t)][1]


def render_type_params(type_params: tuple[TypeParamDef, ...], current_package: str | None = None) -> str:
    inner = ", ".join(
        f"{tp.name} {render_type_expr(tp.constraint, current_package)}" for tp in type_params
    )
    return f"[{inner}]"


def render_field(f: FieldDef, current_package: str | None = None) -> str:
    out = render_type_expr(f.type, current_package) if f.anonymous else f"{f.name} {render_type_expr(f.type, current_package)}"
    if f.tag is not None:
        # A raw string literal holds a printable tag without a backquote. Any
        # other tag is quoted with escapes, so that the rendering stays one
        # unambiguous line.
        out += f" `{f.tag}`" if f.tag.isprintable() and "`" not in f.tag else " " + json.dumps(f.tag)
    return out


def render_method(m: MethodSig, current_package: str | None = None) -> str:
    # Method element style: name plus signature without the func keyword.
    return m.name + render_type_expr(m.sig, current_package)[len("func") :]


def render_type_expr(t: TypeExpr, current_package: str | None = None) -> str:
    """Canonical, deterministic rendering of a type expression."""
    r = lambda x: render_type_expr(x, current_package)  # noqa: E731

    if isinstance(t, Basic):
        return t.name
    if isinstance(t, TypeParamRef):
        return t.name
    if isinstance(t, Named):
        name = t.name if not t.package or t.package == current_package else f"{t.package}.{t.name}"
        if t.args:
            name += "[" + ", ".join(r(a) for a in t.args) + "]"
        return name
    if isinstance(t, Pointer):
        return "*" + r(t.base)
    if isinstance(t, Slice):
        return "[]" + r(t.elem)
    if isinstance(t, Array):
        return f"[{t.length}]" + r(t.elem)
    if isinstance(t, Map):
        return f"map[{r(t.key)}]{r(t.value)}"
    if isinstance(t, Chan):
        if t.direction == "send":
            return "chan<- " + r(t.elem)
        if t.direction == "recv":
            return "<-chan " + r(t.elem)
        return "chan " + r(t.elem)
    if isinstance(t, Func):
        parts = []
        for i, p in enumerate(t.params):
            if t.variadic and i == len(t.params) - 1:
                parts.append("..." + r(p))
            else:
                parts.append(r(p))
        out = "func"
        if t.type_params:
            out += render_type_params(t.type_params, current_package)
        out += "(" + ", ".join(parts) + ")"
        if len(t.results) == 1:
            out += " " + r(t.results[0])
        elif len(t.results) > 1:
            out += " (" + ", ".join(r(x) for x in t.results) + ")"
        return out
    if isinstance(t, Struct):
        return "struct{" + "; ".join(render_field(f, current_package) for f in t.fields) + "}"
    if isinstance(t, Interface):
        elems = [render_method(m, current_package) for m in t.methods]
        elems.extend(("~" if e.tilde else "") + r(e.type) for e in t.embeds)
        return "interface{" + "; ".join(elems) + "}"
    raise TypeError(f"unknown type expression: {t!r}")


def normalized_params(f: Func) -> tuple[TypeExpr, ...]:
    """Parameter types with a variadic final parameter in slice form.

    Used so that a pure variadic flip (...T <-> []T) is reported once as a
    variadic change rather than doubling as a parameter change.
    """
    if f.variadic and f.params:
        return f.params[:-1] + (Slice(f.params[-1]),)
    return f.params


def is_comparable(t: TypeExpr, resolve: Callable[[Named], TypeExpr | None] | None = None) -> bool:
    """Whether values of the type support equality comparison.

    Slices, maps, and funcs are non-comparable; arrays and structs inherit
    from their elements. Named types are resolved through `resolve` when
    possible and assumed comparable otherwise.
    """
    return not incomparable({"": t}, resolve)


def incomparable(types: Mapping[str, TypeExpr], resolve: Callable[[Named], TypeExpr | None] | None = None) -> set[str]:
    """The keys of types whose types are not comparable (see is_comparable):
    a slice, map or func is reached from them through array elements, struct
    fields and the named types resolve resolves.

    Each named type is resolved and walked once for all the types, and no
    Python frame is spent per type, so long chains of named types cost
    their length. A type that holds itself is comparable unless something
    else in it is not.
    """
    holders: dict[Named, list] = {}  # each named type met, with the keys and named types that hold it
    found = []  # the keys and named types that hold a slice, map or func themselves
    todo: list[tuple] = list(types.items())
    while todo:
        key, t = todo.pop()
        if isinstance(t, (Slice, Map, Func)):
            found.append(key)
        elif isinstance(t, Struct):
            todo.extend([(key, f.type) for f in t.fields])
        elif isinstance(t, Array):
            todo.append((key, t.elem))
        elif isinstance(t, Named) and resolve is not None:
            if t not in holders:
                holders[t] = []
                if (underlying := resolve(t)) is not None:
                    todo.append((t, underlying))
            holders[t].append(key)
        # Basic, Pointer base, Chan, Interface, TypeParamRef are all comparable.
    reached = set(found)
    while found:
        for key in holders.get(found.pop(), ()):
            if key not in reached:
                reached.add(key)
                found.append(key)
    return {key for key in types if key in reached}


def type_to_structure(t: TypeExpr) -> dict:
    """Structured (JSON-ready) form of a type expression: "kind", then each
    field in declaration order, with tuples as lists and nested dataclasses
    in the same form. As the form has always been, a Named without type
    arguments has no "args", and a UnionTerm gives "tilde" before "type"."""
    if type(t) not in _VARIANTS:
        raise TypeError(f"unknown type expression: {t!r}")
    return _structure(t)


def _structure(value):
    if isinstance(value, tuple):
        return [_structure(v) for v in value]
    cls = type(value)
    names = _field_order(cls)
    if names is None:
        return value
    out = {"kind": _VARIANTS[cls][0]} if cls in _VARIANTS else {}
    for name in names:
        if name != "args" or value.args:  # only Named has args
            out[name] = _structure(getattr(value, name))
    return out


@cache
def _field_order(cls: type) -> tuple[str, ...] | None:
    """A dataclass's field names in structural order, or None for any other
    class: declaration order, but a UnionTerm gives "tilde" before "type"."""
    if not is_dataclass(cls):
        return None
    names = tuple(f.name for f in fields(cls))
    return names[::-1] if cls is UnionTerm else names
