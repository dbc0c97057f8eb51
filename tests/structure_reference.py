"""The structural form of a type as it was written out before it was derived
from the dataclass fields: `type_to_structure` kept verbatim, as the
reference the derived form must equal, key order included."""

from __future__ import annotations

from semverdiff.gotypes import (
    Array,
    Basic,
    Chan,
    Func,
    Interface,
    Map,
    Named,
    Pointer,
    Slice,
    Struct,
    TypeExpr,
    TypeParamRef,
)


def type_to_structure(t: TypeExpr) -> dict:
    """Structured (JSON-ready) form of a type expression."""
    if isinstance(t, Basic):
        return {"kind": "basic", "name": t.name}
    if isinstance(t, TypeParamRef):
        return {"kind": "typeparam", "name": t.name}
    if isinstance(t, Named):
        out = {"kind": "named", "package": t.package, "name": t.name}
        if t.args:
            out["args"] = [type_to_structure(a) for a in t.args]
        return out
    if isinstance(t, Pointer):
        return {"kind": "pointer", "base": type_to_structure(t.base)}
    if isinstance(t, Slice):
        return {"kind": "slice", "elem": type_to_structure(t.elem)}
    if isinstance(t, Array):
        return {"kind": "array", "length": t.length, "elem": type_to_structure(t.elem)}
    if isinstance(t, Map):
        return {"kind": "map", "key": type_to_structure(t.key), "value": type_to_structure(t.value)}
    if isinstance(t, Chan):
        return {"kind": "chan", "direction": t.direction, "elem": type_to_structure(t.elem)}
    if isinstance(t, Func):
        return {
            "kind": "func",
            "params": [type_to_structure(p) for p in t.params],
            "results": [type_to_structure(x) for x in t.results],
            "variadic": t.variadic,
            "type_params": [
                {"name": tp.name, "constraint": type_to_structure(tp.constraint)}
                for tp in t.type_params
            ],
        }
    if isinstance(t, Struct):
        return {
            "kind": "struct",
            "fields": [
                {
                    "name": f.name,
                    "type": type_to_structure(f.type),
                    "tag": f.tag,
                    "anonymous": f.anonymous,
                    "exported": f.exported,
                }
                for f in t.fields
            ],
        }
    if isinstance(t, Interface):
        return {
            "kind": "interface",
            "methods": [{"name": m.name, "sig": type_to_structure(m.sig)} for m in t.methods],
            "embeds": [{"tilde": e.tilde, "type": type_to_structure(e.type)} for e in t.embeds],
        }
    raise TypeError(f"unknown type expression: {t!r}")
